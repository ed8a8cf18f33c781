// Package race implements the FastTrack happens-before data race detector
// (Flanagan & Freund, PLDI 2009) that ProRace runs offline over the
// synchronization trace plus the extended (sampled + reconstructed) memory
// trace (paper §3, §4.3).
//
// Happens-before edges come from the synchronization log: lock release →
// acquire, condition signal → wake, barrier all-to-all, thread create →
// begin, and exit → join. malloc/free are tracked so two objects that
// happen to reuse one address are never confused — the §4.3 false-positive
// scenario.
package race

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"prorace/internal/replay"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/vc"
)

// Report is one detected data race: two accesses to the same address, at
// least one a write, unordered by happens-before.
type Report struct {
	Addr uint64
	// First and Second describe the two conflicting accesses; Second is
	// the one at which the race was detected.
	First, Second AccessInfo
	// GapAdjacent marks a report that involves a thread whose trace was
	// degraded (decode gaps, dropped records, analysis errors). Such
	// reports may be artifacts of conservatively widened happens-before
	// and deserve extra scrutiny. The flag is set by the analysis layer
	// after detection; it does not participate in Key().
	GapAdjacent bool
	// Witness, when non-empty, is a serialized internal/witness
	// reproduction recipe (the prorace-witness text format) that replays
	// the program deterministically to this racing pair. It is attached
	// by the analysis layer behind AnalysisOptions.Witnesses; it
	// participates in neither Key() nor String().
	Witness string
}

// AccessInfo locates one side of a race.
type AccessInfo struct {
	TID   int32
	PC    uint64
	Write bool
	TSC   uint64
}

// Key canonicalises the race for deduplication: the unordered pair of PCs.
func (r Report) Key() [2]uint64 {
	a, b := r.First.PC, r.Second.PC
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

// String renders the race for logs.
func (r Report) String() string {
	return fmt.Sprintf("race on %#x: T%d %s@%#x vs T%d %s@%#x",
		r.Addr, r.First.TID, rw(r.First.Write), r.First.PC,
		r.Second.TID, rw(r.Second.Write), r.Second.PC)
}

func rw(w bool) string {
	if w {
		return "write"
	}
	return "read"
}

// Options configures detection.
type Options struct {
	// MaxReports bounds the report list (default 10000).
	MaxReports int
	// TrackAllocations enables malloc/free generation tracking (default
	// on via Detect; disable for the ablation that shows the §4.3
	// address-reuse false positive).
	TrackAllocations bool
	// Telemetry receives the prorace_detect_* series, published once in
	// Finish. The event hot path only maintains plain per-detector ints;
	// nil disables publication entirely.
	Telemetry *telemetry.Registry
	// ShadowCapacityHint pre-sizes each detector's flat shadow table for
	// the expected live-variable count, avoiding growth rehashes on
	// workloads whose scale is known up front. 0 = small default.
	ShadowCapacityHint int
}

// Detector runs FastTrack over a merged event stream. Per-variable state
// lives in a flat open-addressing shadow table (shadow.go): one inline
// 72-byte slot per variable, shared-read vector clocks deduplicated
// through a vc.Interner and shared-read provenance slab-allocated in a
// provPool — no per-variable heap objects.
type Detector struct {
	opts Options

	hbState // shared sync-clock machinery (hb.go)

	shadow  shadowTable
	intern  *vc.Interner
	prov    provPool
	scratch []uint64 // reusable build buffer for interned-VC updates

	reports []Report
	seen    map[[2]uint64]bool
	// RacyAddrs collects distinct addresses with detected races, for the
	// §5.1 invalidation/regeneration feedback into the replay engine.
	RacyAddrs map[uint64]bool

	// Plain event tallies for telemetry: ints on the single-goroutine hot
	// path, flushed to the registry once in Finish.
	nSync      int
	nAccess    int
	inflations int // epoch → vector-clock read-state transitions
	published  bool
}

type varKey struct {
	addr uint64
	gen  uint32
}

// NewDetector creates a detector.
func NewDetector(opts Options) *Detector {
	if opts.MaxReports == 0 {
		opts.MaxReports = 10000
	}
	return &Detector{
		opts:      opts,
		hbState:   newHBState(opts.TrackAllocations),
		shadow:    newShadowTable(opts.ShadowCapacityHint),
		intern:    vc.NewInterner(),
		prov:      newProvPool(),
		reports:   nil,
		seen:      map[[2]uint64]bool{},
		RacyAddrs: map[uint64]bool{},
	}
}

// HandleSync processes one synchronization record.
func (d *Detector) HandleSync(rec *tracefmt.SyncRecord) {
	d.nSync++
	d.hbState.HandleSync(rec)
}

// HandleAccess processes one memory access of the extended trace. The
// decision logic is FastTrack's, identical to the reference map-based
// detector (reference.go); only the state representation differs.
func (d *Detector) HandleAccess(a *replay.Access) {
	d.nAccess++
	tid := a.TID
	c := d.clock(tid)
	s := d.shadow.slot(a.Addr, d.genOf(a.Addr))
	me := c.EpochOf(tid)

	if a.Store {
		// Write-write race?
		if s.flags&slotHasWrite != 0 && s.w.TID() != tid && !s.w.LEQ(c) {
			d.report(a, AccessInfo{TID: s.w.TID(), PC: s.wPC, Write: true, TSC: s.wTSC})
		}
		// Read-write races?
		if s.flags&slotHasRead != 0 {
			if s.flags&slotShared != 0 {
				// Ascending TID over the canonical (trimmed) vector: the
				// same order — and therefore the same first-reported PC
				// pairs — as the reference detector's scan.
				for t, cl := range d.intern.Clocks(s.rvc) {
					rt := int32(t)
					if cl == 0 || rt == tid {
						continue
					}
					if cl > c.Get(rt) {
						pc, tsc := d.prov.get(s.prov, rt)
						d.report(a, AccessInfo{TID: rt, PC: pc, Write: false, TSC: tsc})
					}
				}
			} else if s.r.TID() != tid && !s.r.LEQ(c) {
				d.report(a, AccessInfo{TID: s.r.TID(), PC: s.rPC, Write: false, TSC: s.rTSC})
			}
		}
		s.flags |= slotHasWrite
		s.w = me
		s.wPC, s.wTSC = a.PC, a.TSC
		return
	}

	// Read: write-read race?
	if s.flags&slotHasWrite != 0 && s.w.TID() != tid && !s.w.LEQ(c) {
		d.report(a, AccessInfo{TID: s.w.TID(), PC: s.wPC, Write: true, TSC: s.wTSC})
	}
	// Update read state (FastTrack's adaptive representation).
	if s.flags&slotShared != 0 {
		// FastTrack's "read same epoch" case: the vector already holds this
		// clock, and dedup would hand back old itself, so skip the pool.
		if old := s.rvc; d.intern.At(old, tid) != me.Clock() {
			s.rvc, d.scratch = d.intern.WithSet(old, tid, me.Clock(), d.scratch)
			d.intern.Release(old)
		}
		d.prov.set(&s.prov, tid, a.PC, a.TSC)
		return
	}
	if s.flags&slotHasRead == 0 || s.r.TID() == tid || s.r.LEQ(c) {
		s.flags |= slotHasRead
		s.r = me
		s.rPC, s.rTSC = a.PC, a.TSC
		return
	}
	// Inflate to read-shared: build the two-reader vector in the scratch
	// buffer and intern it; provenance moves into a slab row.
	d.inflations++
	prev := s.r.TID()
	n := int(tid) + 1
	if int(prev) >= n {
		n = int(prev) + 1
	}
	if cap(d.scratch) < n {
		d.scratch = make([]uint64, n)
	}
	d.scratch = d.scratch[:n]
	clear(d.scratch)
	d.scratch[prev] = s.r.Clock()
	d.scratch[tid] = me.Clock()
	s.rvc = d.intern.Intern(d.scratch)
	s.prov = d.prov.newRow(2)
	d.prov.set(&s.prov, prev, s.rPC, s.rTSC)
	d.prov.set(&s.prov, tid, a.PC, a.TSC)
	s.flags |= slotShared
}

// ShadowStats is the detector's resident shadow-memory accounting, the
// basis of the bytes-per-variable measurements and the
// prorace_detect_shadow_* telemetry.
type ShadowStats struct {
	// Variables is the number of live shadow slots (distinct varKeys).
	Variables int
	// TableBytes is the flat slot array's resident size; PeakTableBytes its
	// high-water mark across growth.
	TableBytes     uint64
	PeakTableBytes uint64
	// InternBytes / ProvBytes are the interner's and provenance pool's slab
	// footprints; InternedVCs the distinct live vectors.
	InternBytes uint64
	ProvBytes   uint64
	InternedVCs int
	// InternHits / InternMisses / InternReuses expose dedup effectiveness.
	InternHits, InternMisses, InternReuses uint64
}

// Bytes is the total resident shadow footprint.
func (s ShadowStats) Bytes() uint64 { return s.TableBytes + s.InternBytes + s.ProvBytes }

// PeakBytes is the high-water shadow footprint (slab pools only grow, so
// only the table term differs from Bytes).
func (s ShadowStats) PeakBytes() uint64 { return s.PeakTableBytes + s.InternBytes + s.ProvBytes }

// ShadowStats returns the detector's current shadow-memory accounting.
func (d *Detector) ShadowStats() ShadowStats {
	return ShadowStats{
		Variables:      d.shadow.used,
		TableBytes:     d.shadow.bytes(),
		PeakTableBytes: d.shadow.peak,
		InternBytes:    d.intern.Bytes(),
		ProvBytes:      d.prov.bytes(),
		InternedVCs:    d.intern.Live(),
		InternHits:     d.intern.Hits(),
		InternMisses:   d.intern.Misses(),
		InternReuses:   d.intern.Reuses(),
	}
}

func (d *Detector) report(a *replay.Access, prior AccessInfo) {
	d.RacyAddrs[a.Addr] = true
	r := Report{
		Addr:   a.Addr,
		First:  prior,
		Second: AccessInfo{TID: a.TID, PC: a.PC, Write: a.Store, TSC: a.TSC},
	}
	if d.seen[r.Key()] || len(d.reports) >= d.opts.MaxReports {
		return
	}
	d.seen[r.Key()] = true
	d.reports = append(d.reports, r)
}

// Reports returns the deduplicated race reports.
func (d *Detector) Reports() []Report { return d.reports }

// Finish completes the detector: the sequential detector needs no
// draining, so this only flushes the event tallies into the telemetry
// registry (once — repeated calls are no-ops), keeping Detector a valid
// ReportSink.
func (d *Detector) Finish() {
	tel := d.opts.Telemetry
	if tel == nil || d.published {
		return
	}
	d.published = true
	publishDetect(tel, d.nSync, d.nAccess, d.inflations)
	publishShadow(tel, d.ShadowStats())
}

// publishDetect folds one detection pass's tallies into the registry.
func publishDetect(tel *telemetry.Registry, nSync, nAccess, inflations int) {
	tel.Counter("prorace_detect_sync_events_total", "Synchronization records processed by detection.").AddInt(nSync)
	tel.Counter("prorace_detect_access_events_total", "Memory accesses processed by detection.").AddInt(nAccess)
	tel.Counter("prorace_detect_read_share_inflations_total", "FastTrack read-epoch to vector-clock (read-shared) transitions.").AddInt(inflations)
}

// publishShadow folds a pass's shadow-memory accounting into the registry.
func publishShadow(tel *telemetry.Registry, st ShadowStats) {
	tel.Gauge("prorace_detect_shadow_variables", "Live shadow-table slots (distinct variables) after the detection pass.").Set(int64(st.Variables))
	tel.Gauge("prorace_detect_shadow_bytes", "Resident shadow-state bytes (flat table + VC interner + provenance slabs).").Set(int64(st.Bytes()))
	tel.Gauge("prorace_detect_shadow_bytes_peak", "High-water shadow-state bytes across the detection pass.").Set(int64(st.PeakBytes()))
	tel.Gauge("prorace_detect_vc_interned", "Distinct live interned vector clocks.").Set(int64(st.InternedVCs))
	tel.Counter("prorace_detect_vc_intern_hits_total", "Interned-VC lookups served by an existing shared vector.").AddInt(int(st.InternHits))
	tel.Counter("prorace_detect_vc_intern_misses_total", "Interned-VC lookups that inserted a fresh vector.").AddInt(int(st.InternMisses))
	tel.Counter("prorace_detect_vc_intern_reuses_total", "Fresh interned-VC insertions served from recycled slab regions.").AddInt(int(st.InternReuses))
}

// RacyAddrSet returns the distinct racy addresses, for the §5.1 feedback.
func (d *Detector) RacyAddrSet() map[uint64]bool { return d.RacyAddrs }

// event is the head of a thread's happens-before-consistent event stream:
// exactly one of Sync or Acc is set.
type event struct {
	TSC  uint64
	Sync *tracefmt.SyncRecord
	Acc  *replay.Access
}

// isRelease reports whether a sync record publishes the thread's clock
// (release side of an HB edge). At equal timestamps, release-side records
// must be processed before the acquire-side records they enable — e.g. a
// barrier arrival before the barrier wakes it causes.
func isRelease(k tracefmt.SyncKind) bool {
	switch k {
	case tracefmt.SyncUnlock, tracefmt.SyncCondWait, tracefmt.SyncCondSignal,
		tracefmt.SyncCondBroadcast, tracefmt.SyncBarrier,
		tracefmt.SyncThreadCreate, tracefmt.SyncThreadExit:
		return true
	}
	return false
}

// isAcquire reports whether a sync record absorbs another clock.
func isAcquire(k tracefmt.SyncKind) bool {
	switch k {
	case tracefmt.SyncLock, tracefmt.SyncCondWake, tracefmt.SyncBarrierWake,
		tracefmt.SyncThreadBegin, tracefmt.SyncThreadJoin:
		return true
	}
	return false
}

// mergePriority orders events at equal TSC across threads: releases first,
// then neutral events (accesses, malloc/free), then acquires, so an HB edge
// whose two sides collapsed onto one timestamp still flows the right way.
func (e *event) mergePriority() int {
	if e.Sync != nil {
		if isRelease(e.Sync.Kind) {
			return 0
		}
		if isAcquire(e.Sync.Kind) {
			return 2
		}
	}
	return 1
}

// compareAccess orders a thread's accesses by TSC, then by path step.
func compareAccess(a, b replay.Access) int {
	if c := cmp.Compare(a.TSC, b.TSC); c != 0 {
		return c
	}
	return cmp.Compare(a.Step, b.Step)
}

// accessesSorted reports whether accs is ordered by compareAccess. It
// reads the accesses in place; slices.IsSortedFunc(accs, compareAccess)
// copies two 40-byte accesses per comparison.
func accessesSorted(accs []replay.Access) bool {
	for i := 1; i < len(accs); i++ {
		a, b := &accs[i-1], &accs[i]
		if b.TSC < a.TSC || b.TSC == a.TSC && b.Step < a.Step {
			return false
		}
	}
	return true
}

// syncByTID partitions sync records per thread, preserving machine order.
func syncByTID(sync []tracefmt.SyncRecord) map[int32][]tracefmt.SyncRecord {
	out := map[int32][]tracefmt.SyncRecord{}
	for _, rec := range sync {
		out[rec.TID] = append(out[rec.TID], rec)
	}
	return out
}

// EventSink consumes the merged happens-before-consistent event stream.
// Detector (FastTrack), ReferenceDetector and the tests' DjitDetector
// (DJIT+) all implement it, so one feed path drives every detector.
type EventSink interface {
	HandleSync(rec *tracefmt.SyncRecord)
	HandleAccess(a *replay.Access)
}

// ReportSink is an EventSink that accumulates race reports. Finish must be
// called after the last event and before Reports/RacyAddrSet; the
// FastTrack Detector publishes its telemetry there.
type ReportSink interface {
	EventSink
	Finish()
	Reports() []Report
	RacyAddrSet() map[uint64]bool
}

// Detect runs FastTrack over a whole trace: sync records plus the extended
// memory trace, merged into a happens-before-consistent order (per-thread
// program order preserved, cross-thread interleaving by TSC with releases
// winning ties).
func Detect(sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access, opts Options) *Detector {
	d := NewDetector(opts)
	Feed(d, sync, accesses)
	return d
}

// streamCursor walks one thread's events in program order, merging its
// sync records and accesses as it goes: sync records arrive in machine
// order; accesses are ordered by path step (or TSC when unpinned). At
// equal TSC within a thread, acquires precede accesses and accesses
// precede releases, keeping accesses inside their critical sections.
type streamCursor struct {
	sync []tracefmt.SyncRecord // not yet delivered
	accs []replay.Access       // not yet delivered
	ev   event                 // the head, unless done
	done bool
}

// newStreamCursor starts a cursor over one thread's records and accesses.
// The access slice is sorted in place.
func newStreamCursor(sync []tracefmt.SyncRecord, accs []replay.Access) *streamCursor {
	// Reconstruction already emits each thread's accesses in this order,
	// so the check usually spares the sort.
	if !accessesSorted(accs) {
		slices.SortStableFunc(accs, compareAccess)
	}
	c := &streamCursor{sync: sync, accs: accs}
	c.advance()
	return c
}

// head returns the next event; nil means the stream ended.
func (c *streamCursor) head() *event {
	if c.done {
		return nil
	}
	return &c.ev
}

// advance moves the head to the thread's next event.
func (c *streamCursor) advance() {
	var takeSync bool
	switch {
	case len(c.sync) == 0 && len(c.accs) == 0:
		c.done = true
		return
	case len(c.sync) == 0:
		takeSync = false
	case len(c.accs) == 0:
		takeSync = true
	case c.sync[0].TSC != c.accs[0].TSC:
		takeSync = c.sync[0].TSC < c.accs[0].TSC
	default: // tie: acquires first, releases last
		takeSync = isAcquire(c.sync[0].Kind)
	}
	if takeSync {
		c.ev = event{TSC: c.sync[0].TSC, Sync: &c.sync[0]}
		c.sync = c.sync[1:]
	} else {
		c.ev = event{TSC: c.accs[0].TSC, Acc: &c.accs[0]}
		c.accs = c.accs[1:]
	}
}

// mergeCursors k-way merges the cursors into the sink: events are emitted
// in (TSC, mergePriority, cursor index) order, so the interleaving is
// deterministic for a given cursor order. Live cursors sit in a binary
// min-heap keyed by their head events, so an event costs O(log k) in the
// stream count rather than a scan of every cursor; a cursor leaves the heap
// when its stream ends.
func mergeCursors(sink EventSink, cursors []*streamCursor) {
	h := make([]mergeKey, 0, len(cursors))
	for i, c := range cursors {
		if e := c.head(); e != nil {
			h = append(h, keyOf(e, i))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		i := h[0].cur
		c := cursors[i]
		if c.ev.Sync != nil {
			sink.HandleSync(c.ev.Sync)
		} else {
			sink.HandleAccess(c.ev.Acc)
		}
		c.advance()
		if e := c.head(); e != nil {
			h[0] = keyOf(e, int(i))
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
}

// mergeKey is a live cursor's heap entry: its head event's sort key, with
// the cursor index as the final tie-break.
type mergeKey struct {
	tsc  uint64
	prio int32
	cur  int32
}

func keyOf(e *event, cur int) mergeKey {
	return mergeKey{tsc: e.TSC, prio: int32(e.mergePriority()), cur: int32(cur)}
}

func (a mergeKey) less(b mergeKey) bool {
	if a.tsc != b.tsc {
		return a.tsc < b.tsc
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.cur < b.cur
}

// siftDown restores the min-heap property below h[i].
func siftDown(h []mergeKey, i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h) && h[l].less(h[m]) {
			m = l
		}
		if r := l + 1; r < len(h) && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Feed merges the trace into happens-before-consistent order and drives
// the sink with it. Cursor order follows ascending thread id, keeping
// tie-breaks deterministic.
func Feed(sink EventSink, sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access) {
	byTID := syncByTID(sync)
	tidSet := map[int32]bool{}
	for tid := range byTID {
		tidSet[tid] = true
	}
	for tid := range accesses {
		tidSet[tid] = true
	}
	tids := make([]int32, 0, len(tidSet))
	for tid := range tidSet {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	cursors := make([]*streamCursor, len(tids))
	for i, tid := range tids {
		cursors[i] = newStreamCursor(byTID[tid], accesses[tid])
	}
	mergeCursors(sink, cursors)
}
