package race

import (
	"math/rand"
	"testing"

	"prorace/internal/replay"
)

func TestShadowTableInsertLookupGrow(t *testing.T) {
	tab := newShadowTable(0)
	if len(tab.slots) != defaultShadowCap {
		t.Fatalf("default capacity = %d, want %d", len(tab.slots), defaultShadowCap)
	}
	// Insert well past the growth threshold and verify every slot keeps its
	// identity and payload across rehashes.
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s := tab.slot(0x600000+8*i, uint32(i%3))
		s.wPC = 0x400000 + i
		s.flags |= slotHasWrite
	}
	if tab.used != n {
		t.Fatalf("used = %d, want %d", tab.used, n)
	}
	for i := uint64(0); i < n; i++ {
		s := tab.slot(0x600000+8*i, uint32(i%3))
		if s.wPC != 0x400000+i || s.flags&slotHasWrite == 0 {
			t.Fatalf("slot %d lost payload across growth: pc %#x", i, s.wPC)
		}
	}
	if tab.used != n {
		t.Fatalf("lookups inserted: used = %d, want %d", tab.used, n)
	}
	// Same address, different generation = distinct variable.
	tab.slot(0x600000, 99)
	if tab.used != n+1 {
		t.Error("generation must participate in slot identity")
	}
	if tab.peak != tab.bytes() {
		t.Errorf("peak %d must track the grown table (%d)", tab.peak, tab.bytes())
	}
}

func TestShadowTableCapacityHint(t *testing.T) {
	tab := newShadowTable(100000)
	start := len(tab.slots)
	// The hinted population must fit without any growth.
	for i := uint64(0); i < 100000; i++ {
		tab.slot(0x10000+64*i, 0)
	}
	if len(tab.slots) != start {
		t.Errorf("hinted table grew: %d -> %d slots", start, len(tab.slots))
	}
}

func TestProvPoolSetGetGrowRecycle(t *testing.T) {
	p := newProvPool()
	var ref provRef
	// Rows are sparse: a high TID costs one entry, not a dense prefix.
	p.set(&ref, 4000, 0x41, 100)
	if ref == 0 {
		t.Fatal("set must allocate a row")
	}
	if pc, tsc := p.get(ref, 4000); pc != 0x41 || tsc != 100 {
		t.Fatalf("get = %#x/%d", pc, tsc)
	}
	if pc, _ := p.get(ref, 1); pc != 0 {
		t.Error("unset entry must read zero")
	}
	// In-place update for a known reader.
	p.set(&ref, 4000, 0x44, 101)
	if pc, _ := p.get(ref, 4000); pc != 0x44 {
		t.Error("re-read must update in place")
	}
	// A third distinct reader overflows the 2-entry row: the row moves to
	// the next size class, copying and retiring the old region.
	p.set(&ref, 7, 0x42, 200)
	old := ref
	p.set(&ref, 9, 0x45, 300)
	if ref == old {
		t.Fatal("growth past capacity must move the row")
	}
	for _, chk := range []struct {
		tid int32
		pc  uint64
	}{{4000, 0x44}, {7, 0x42}, {9, 0x45}} {
		if pc, _ := p.get(ref, chk.tid); pc != chk.pc {
			t.Errorf("after growth, get(%d) = %#x, want %#x", chk.tid, pc, chk.pc)
		}
	}
	// The retired 2-entry row must be recycled by the next fresh row,
	// starting empty.
	var ref2 provRef
	p.set(&ref2, 3, 0x43, 300)
	if ref2 != old {
		t.Errorf("recycled row ref = %d, want reuse of %d", ref2, old)
	}
	if pc, _ := p.get(ref2, 7); pc != 0 {
		t.Error("recycled row must start empty")
	}
	if pc, _ := p.get(ref2, 3); pc != 0x43 {
		t.Error("recycled row lost its new entry")
	}
	// Readers arriving in any order, re-reads among them, all stay
	// findable as the row grows through several classes.
	var ref3 provRef
	tids := []int32{17, 3, 40, 0, 25, 8, 39, 12, 1, 33, 21, 5, 38, 9, 30, 2, 36, 14, 27, 6}
	for round := uint64(1); round <= 2; round++ {
		for _, tid := range tids {
			p.set(&ref3, tid, uint64(tid)<<8|round, round)
		}
	}
	for _, tid := range tids {
		if pc, tsc := p.get(ref3, tid); pc != uint64(tid)<<8|2 || tsc != 2 {
			t.Errorf("get(%d) = %#x/%d, want %#x/2", tid, pc, tsc, uint64(tid)<<8|2)
		}
	}
	if pc, _ := p.get(ref3, 4); pc != 0 {
		t.Error("a thread that never read must read zero")
	}
}

func TestDetectorReadInflation(t *testing.T) {
	// Exclusive read → same-thread read keeps the epoch representation;
	// a concurrent second reader inflates to an interned vector.
	d := NewDetector(Options{})
	r1 := acc(1, 0x400100, 0x600000, false, 100)
	r1b := acc(1, 0x400101, 0x600000, false, 110)
	r2 := acc(2, 0x400200, 0x600000, false, 200)
	d.HandleAccess(&r1)
	d.HandleAccess(&r1b)
	s := d.shadow.slot(0x600000, 0)
	if s.flags&slotShared != 0 || d.inflations != 0 {
		t.Fatal("same-thread reads must stay in epoch representation")
	}
	if s.r.TID() != 1 || s.rPC != 0x400101 {
		t.Fatalf("read epoch wrong: %v pc %#x", s.r, s.rPC)
	}
	d.HandleAccess(&r2)
	s = d.shadow.slot(0x600000, 0)
	if s.flags&slotShared == 0 || d.inflations != 1 {
		t.Fatal("concurrent second reader must inflate")
	}
	// The interned vector holds both readers' clocks; provenance holds both
	// PCs (thread 1's from its LAST read).
	if d.intern.At(s.rvc, 1) == 0 || d.intern.At(s.rvc, 2) == 0 {
		t.Errorf("inflated vector missing a reader: %v", d.intern.Clocks(s.rvc))
	}
	if pc, _ := d.prov.get(s.prov, 1); pc != 0x400101 {
		t.Errorf("provenance for T1 = %#x, want its last read PC", pc)
	}
	if pc, _ := d.prov.get(s.prov, 2); pc != 0x400200 {
		t.Errorf("provenance for T2 = %#x", pc)
	}
	// A racy write must report against both recorded read sites.
	w := acc(3, 0x400300, 0x600000, true, 400)
	d.HandleAccess(&w)
	if len(d.Reports()) != 2 {
		t.Fatalf("racy write over 2-reader shared state: %d reports, want 2", len(d.Reports()))
	}
}

func TestDetectorInternSharingAcrossVariables(t *testing.T) {
	// Array-scan shape: the same two threads read many addresses at the
	// same clocks, so every variable's shared-read vector is identical and
	// must intern to ONE pooled vector with a refcount, not per-variable
	// copies.
	d := NewDetector(Options{})
	const vars = 500
	for i := uint64(0); i < vars; i++ {
		r1 := acc(1, 0x400100, 0x600000+8*i, false, 100+i)
		r2 := acc(2, 0x400200, 0x600000+8*i, false, 10000+i)
		d.HandleAccess(&r1)
		d.HandleAccess(&r2)
	}
	st := d.ShadowStats()
	if st.Variables != vars {
		t.Fatalf("variables = %d, want %d", st.Variables, vars)
	}
	if st.InternedVCs != 1 {
		t.Fatalf("distinct interned vectors = %d, want 1 (identical read vectors must dedup)", st.InternedVCs)
	}
	s := d.shadow.slot(0x600000, 0)
	if got := d.intern.Refs(s.rvc); got != vars {
		t.Errorf("shared vector refcount = %d, want %d", got, vars)
	}
	if st.InternHits != vars-1 {
		t.Errorf("intern hits = %d, want %d", st.InternHits, vars-1)
	}
}

func TestDetectorInternChurnReusesRegions(t *testing.T) {
	// One variable re-read many times by alternating threads after sync
	// ticks: each read replaces the interned vector. The retired regions
	// must recycle — live vectors stay tiny and reuses accumulate.
	d := NewDetector(Options{})
	addr := uint64(0x600000)
	r1 := acc(1, 0x400100, addr, false, 100)
	r2 := acc(2, 0x400200, addr, false, 110)
	d.HandleAccess(&r1)
	d.HandleAccess(&r2) // inflate
	for i := 0; i < 300; i++ {
		// Tick the reader's clock via a lock round-trip so each read stores
		// a new value into the shared vector.
		tid := int32(1 + i%2)
		l := syncRec(tid, 6, uint64(1000+10*i), 0x700000, 0) // SyncLock
		u := syncRec(tid, 7, uint64(1005+10*i), 0x700000, 0) // SyncUnlock
		d.HandleSync(&l)
		d.HandleSync(&u)
		r := acc(tid, 0x400300, addr, false, uint64(1006+10*i))
		d.HandleAccess(&r)
	}
	st := d.ShadowStats()
	if st.InternedVCs > 2 {
		t.Errorf("live interned vectors = %d after churn, want ≤ 2", st.InternedVCs)
	}
	if st.InternReuses == 0 {
		t.Error("churn produced no region reuses — free lists not engaged")
	}
}

func TestSameEpochSharedReadSkipsInterner(t *testing.T) {
	// FastTrack's "read same epoch" rule on read-shared state: a repeat
	// read by a thread with no intervening sync stores the clock the vector
	// already holds, so the pooled vector, its refcount and the interner's
	// lookup counters must not move. Provenance still records the newest
	// read, which a later unordered write reports.
	d := NewDetector(Options{})
	addr := uint64(0x600000)
	r1 := acc(1, 0x400100, addr, false, 100)
	r2 := acc(2, 0x400200, addr, false, 110)
	d.HandleAccess(&r1)
	d.HandleAccess(&r2) // inflate
	s := d.shadow.slot(addr, 0)
	if s.flags&slotShared == 0 {
		t.Fatal("second concurrent reader must inflate")
	}
	rvc, refs := s.rvc, d.intern.Refs(s.rvc)
	before := d.ShadowStats()

	r2b := acc(2, 0x400201, addr, false, 120)
	d.HandleAccess(&r2b)
	s = d.shadow.slot(addr, 0)
	if s.rvc != rvc || d.intern.Refs(s.rvc) != refs {
		t.Errorf("same-epoch read changed the vector: ref %d→%d, refs %d→%d", rvc, s.rvc, refs, d.intern.Refs(s.rvc))
	}
	after := d.ShadowStats()
	if got, want := after.InternHits+after.InternMisses, before.InternHits+before.InternMisses; got != want {
		t.Errorf("same-epoch read looked up the interner: %d lookups, want %d", got, want)
	}
	if pc, tsc := d.prov.get(s.prov, 2); pc != 0x400201 || tsc != 120 {
		t.Errorf("provenance for T2 = %#x/%d, want the newest read 0x400201/120", pc, tsc)
	}

	w := acc(3, 0x400300, addr, true, 400)
	d.HandleAccess(&w)
	var found bool
	for _, r := range d.Reports() {
		if r.First.TID == 2 {
			found = true
			if r.First.PC != 0x400201 || r.First.TSC != 120 {
				t.Errorf("write reports T2's read at %#x/%d, want 0x400201/120", r.First.PC, r.First.TSC)
			}
		}
	}
	if !found {
		t.Errorf("unordered write did not report T2's read: %v", d.Reports())
	}
}

// TestWarmSharedReadAllocs extends the warm-replay allocation guard to the
// read-shared path: once a variable's read state is an interned vector and
// both states of the two-reader alternation exist in the pool, further
// shared reads are WithSet/Release churn that must not allocate.
func TestWarmSharedReadAllocs(t *testing.T) {
	d := NewDetector(Options{})
	addr := uint64(0x600000)
	r1 := acc(1, 0x400100, addr, false, 100)
	r2 := acc(2, 0x400200, addr, false, 110)
	d.HandleAccess(&r1)
	d.HandleAccess(&r2)
	step := func() {
		r := acc(2, 0x400200, addr, false, 120)
		d.HandleAccess(&r)
	}
	step()
	if avg := testing.AllocsPerRun(100, step); avg > 0 {
		t.Errorf("warm shared-read path: %.1f allocs/run, want 0", avg)
	}
}

// TestFlatMatchesReferenceRandomized is the representation-differential
// test: random traces with reads, writes, locks and mallocs through both
// the flat-table detector and the frozen map-based reference must produce
// identical ordered report lists and racy-address sets.
func TestFlatMatchesReferenceRandomized(t *testing.T) {
	sameEpoch := 0 // re-reads that take the same-epoch shared-read branch
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{TrackAllocations: true}
		flat := NewDetector(opts)
		ref := NewReferenceDetector(opts)

		nThreads := 2 + rng.Intn(6)
		addrs := make([]uint64, 1+rng.Intn(20))
		for i := range addrs {
			addrs[i] = 0x600000 + uint64(rng.Intn(64))*8
		}
		tsc := uint64(1)
		var prev *replay.Access // the previous event, when it was an access
		for step := 0; step < 2000; step++ {
			tid := int32(1 + rng.Intn(nThreads))
			tsc += uint64(1 + rng.Intn(3))
			op := rng.Intn(10)
			if op == 3 && prev == nil {
				op = 9
			}
			switch op {
			case 0: // lock
				rec := syncRec(tid, 6, tsc, 0x700000+uint64(rng.Intn(2))*64, 0)
				flat.HandleSync(&rec)
				ref.HandleSync(&rec)
				prev = nil
			case 1: // unlock
				rec := syncRec(tid, 7, tsc, 0x700000+uint64(rng.Intn(2))*64, 0)
				flat.HandleSync(&rec)
				ref.HandleSync(&rec)
				prev = nil
			case 2: // malloc over a known address range (generation churn)
				rec := syncRec(tid, 1, tsc, addrs[rng.Intn(len(addrs))], 8)
				flat.HandleSync(&rec)
				ref.HandleSync(&rec)
				prev = nil
			case 3: // same thread re-reads the previous access's address
				a := acc(prev.TID, 0x400000+uint64(rng.Intn(30))*4, prev.Addr, false, tsc)
				s := flat.shadow.slot(a.Addr, flat.genOf(a.Addr))
				if s.flags&slotShared != 0 && flat.intern.At(s.rvc, a.TID) == flat.clock(a.TID).EpochOf(a.TID).Clock() {
					sameEpoch++
				}
				b := a
				flat.HandleAccess(&a)
				ref.HandleAccess(&b)
				prev = &a
			default:
				a := acc(tid, 0x400000+uint64(rng.Intn(30))*4, addrs[rng.Intn(len(addrs))], rng.Intn(3) == 0, tsc)
				b := a
				flat.HandleAccess(&a)
				ref.HandleAccess(&b)
				prev = &a
			}
		}
		if len(flat.Reports()) != len(ref.Reports()) {
			t.Fatalf("seed %d: flat %d reports, reference %d", seed, len(flat.Reports()), len(ref.Reports()))
		}
		for i := range flat.Reports() {
			if flat.Reports()[i] != ref.Reports()[i] {
				t.Fatalf("seed %d report %d:\n  flat: %+v\n  ref:  %+v", seed, i, flat.Reports()[i], ref.Reports()[i])
			}
		}
		if len(flat.RacyAddrs) != len(ref.RacyAddrs) {
			t.Fatalf("seed %d: racy-addr sets differ: %d vs %d", seed, len(flat.RacyAddrs), len(ref.RacyAddrs))
		}
		for a := range ref.RacyAddrs {
			if !flat.RacyAddrs[a] {
				t.Fatalf("seed %d: flat missing racy addr %#x", seed, a)
			}
		}
	}
	if sameEpoch == 0 {
		t.Error("no re-read took the same-epoch shared-read branch")
	}
}

// TestShadowStatsAccounting sanity-checks the byte accounting the memscale
// experiment and CI budget assert against.
func TestShadowStatsAccounting(t *testing.T) {
	d := NewDetector(Options{})
	for i := uint64(0); i < 100; i++ {
		w := acc(1, 0x400100, 0x600000+8*i, true, 100+i)
		d.HandleAccess(&w)
	}
	st := d.ShadowStats()
	if st.Variables != 100 {
		t.Fatalf("variables = %d", st.Variables)
	}
	if st.TableBytes != uint64(defaultShadowCap)*shadowSlotSize {
		t.Errorf("table bytes = %d, want %d", st.TableBytes, defaultShadowCap*shadowSlotSize)
	}
	if st.Bytes() < st.TableBytes || st.PeakBytes() < st.Bytes() {
		t.Error("byte totals inconsistent")
	}
	if st.InternedVCs != 0 || st.InternHits+st.InternMisses != 0 {
		t.Error("write-only trace must not touch the interner")
	}
}

// BenchmarkFlatVsReferenceDetect compares the two representations on an
// array-scan workload with shared reads — the shape the flat table and
// interner are built for.
func BenchmarkFlatVsReferenceDetect(b *testing.B) {
	const vars = 10000
	build := func() []replay.Access {
		accs := make([]replay.Access, 0, 3*vars)
		for i := uint64(0); i < vars; i++ {
			accs = append(accs,
				acc(1, 0x400100, 0x600000+8*i, false, 100+i),
				acc(2, 0x400200, 0x600000+8*i, false, 100000+i),
				acc(3, 0x400300, 0x600000+8*i, true, 200000+i))
		}
		return accs
	}
	run := func(b *testing.B, sink ReportSink) {
		accs := build()
		for i := range accs {
			sink.HandleAccess(&accs[i])
		}
		sink.Finish()
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, NewDetector(Options{MaxReports: 10}))
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, NewReferenceDetector(Options{MaxReports: 10}))
		}
	})
}
