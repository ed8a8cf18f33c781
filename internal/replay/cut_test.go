package replay_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"prorace/internal/asm"
	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/faultinject"
	"prorace/internal/isa"
	"prorace/internal/oracle"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/ptdecode"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// TestBackwardCutMatchesUncutWalk holds the backward walk, which stops
// where the first forward pass already has every register it holds, to the
// walk that visits every step, on every Table-2 bug at periods 100, 1000
// and 10000 and seeds 1–3 (see matchUncutWalk). -short keeps period
// 10000, seed 1 and one bug per application.
func TestBackwardCutMatchesUncutWalk(t *testing.T) {
	t.Parallel()
	periods, seeds := []uint64{100, 1000, 10000}, int64(3)
	if testing.Short() {
		periods, seeds = periods[2:], 1
	}
	apps := map[string]bool{}
	var threads, invalidated int
	for _, bug := range bugs.All() {
		if testing.Short() && apps[bug.App] {
			continue
		}
		apps[bug.App] = true
		for _, period := range periods {
			for seed := int64(1); seed <= seeds; seed++ {
				built, tr := traceBug(t, bug, period, seed)
				name := fmt.Sprintf("%s period=%d seed=%d", bug.ID, period, seed)
				n, inv := matchUncutWalk(t, name, built.Workload.Program, tr, synthesis.Options{Lenient: true})
				threads, invalidated = threads+n, invalidated+inv
			}
		}
	}
	if invalidated == 0 {
		t.Fatalf("no thread of %d hit an invalidated address: the racy-set case was never exercised", threads)
	}
	t.Logf("%d thread reconstructions matched, %d with InvalidHits", threads, invalidated)
}

// TestBackwardCutMatchesUncutWalkOracleSeeds runs the same comparison on
// the ground-truth oracle's random concurrent programs: seeds 1–200 (40
// under -short) at each of the oracle's sampling periods.
func TestBackwardCutMatchesUncutWalkOracleSeeds(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var threads int
	for seed := int64(1); seed <= seeds; seed++ {
		p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(seed)))
		for _, period := range oracle.DefaultPeriods() {
			tr, err := core.TraceProgram(p, core.TraceOptions{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true})
			if err != nil {
				t.Fatal(err)
			}
			n, _ := matchUncutWalk(t, fmt.Sprintf("oracle seed=%d period=%d", seed, period), p, tr.Trace, synthesis.Options{Lenient: true})
			threads += n
		}
	}
	t.Logf("%d thread reconstructions matched", threads)
}

// TestBackwardCutMatchesUncutWalkOnFaults compares the two walks on
// lenient decodes of damaged traces: every Table-2 bug at period 100 under
// the trunc, ptflip and ptdrop injectors at 1%, 10% and 50%, decoded with
// a budget of 1<<20 steps. -short keeps three bugs.
func TestBackwardCutMatchesUncutWalkOnFaults(t *testing.T) {
	t.Parallel()
	bugList := bugs.All()
	if testing.Short() {
		bugList = bugList[:3]
	}
	var threads, traces int
	for _, bug := range bugList {
		built := bug.Build(1)
		tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
			Kind: driver.ProRace, Period: 100, Seed: 5, EnablePT: true,
			Machine: built.Workload.Machine,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []faultinject.Kind{faultinject.Trunc, faultinject.PTFlip, faultinject.PTDrop} {
			for _, rate := range []float64{0.01, 0.1, 0.5} {
				spec := &faultinject.Spec{Seed: 5, Faults: []faultinject.Fault{{Kind: kind, Rate: rate}}}
				bad, _ := spec.Apply(tr.Trace)
				name := fmt.Sprintf("%s/%s@%g", bug.ID, kind, rate)
				n, _ := matchUncutWalk(t, name, built.Workload.Program, bad, synthesis.Options{Lenient: true, MaxSteps: 1 << 20})
				threads += n
				traces++
			}
		}
	}
	t.Logf("%d thread reconstructions matched over %d damaged traces", threads, traces)
}

// matchUncutWalk synthesises tr with opts and reconstructs every thread
// with the fixed schedule, whose backward walk stops early and whose
// second forward pass skips where it repeats the first, and with two
// references: one whose second forward pass walks every step, and one
// where the backward walk is uncut too. It does so with memory emulation
// on and off and with InvalidAddrs nil and set to the detected racy set.
// Accesses, Stats (InvalidHits included) and LoadLogs must be identical.
// It returns the reconstructions compared and how many of them had
// InvalidHits.
func matchUncutWalk(t *testing.T, name string, p *prog.Program, tr *tracefmt.Trace, opts synthesis.Options) (threads, invalidated int) {
	t.Helper()
	tts, err := synthesis.SynthesizeWith(p, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for tid, tt := range tts {
		if want := syncStepsByScan(p, tr, tt); !reflect.DeepEqual(tt.Sync, want) {
			t.Fatalf("%s tid=%d: sync records pinned differently from a per-instruction scan:\n got %+v\nwant %+v", name, tid, tt.Sync, want)
		}
	}
	acc, _ := replay.NewEngine(p, replay.Config{}).ReconstructAll(tts)
	racy := race.Detect(tr.Sync, acc, race.Options{TrackAllocations: true}).RacyAddrSet()
	invalids := []map[uint64]bool{nil}
	if len(racy) > 0 {
		invalids = append(invalids, racy)
	}
	for _, invalid := range invalids {
		emulated := replay.NewEngine(p, replay.Config{InvalidAddrs: invalid})
		for _, e := range []*replay.Engine{emulated, emulated.DisableMemoryEmulation()} {
			for tid, tt := range tts {
				got, gst, glog := e.ReconstructThreadLogged(tt)
				for _, ref := range []struct {
					name string
					run  func(*synthesis.ThreadTrace) ([]replay.Access, replay.Stats, *replay.LoadLog)
				}{{"full second forward pass", e.ReconstructThreadFullF2}, {"uncut walk", e.ReconstructThreadUncut}} {
					want, wst, wlog := ref.run(tt)
					if !slices.Equal(got, want) {
						t.Fatalf("%s racy=%d tid=%d: accesses differ from the %s (%d vs %d)", name, len(invalid), tid, ref.name, len(got), len(want))
					}
					if gst != wst {
						t.Fatalf("%s racy=%d tid=%d: stats differ from the %s:\n got %+v\nwant %+v", name, len(invalid), tid, ref.name, gst, wst)
					}
					if !reflect.DeepEqual(glog, wlog) {
						t.Fatalf("%s racy=%d tid=%d: LoadLogs differ from the %s", name, len(invalid), tid, ref.name)
					}
				}
				if gst.InvalidHits > 0 {
					invalidated++
				}
				threads++
			}
		}
	}
	return threads, invalidated
}

// syncStepsByScan pins tt's sync records the way synthesis did before it
// skipped runs without a syscall: it visits every path step, zipping the
// traced syscalls with the thread's records in order.
func syncStepsByScan(p *prog.Program, tr *tracefmt.Trace, tt *synthesis.ThreadTrace) []synthesis.SyncStep {
	kinds := map[isa.Sys]tracefmt.SyncKind{
		isa.SysLock: tracefmt.SyncLock, isa.SysUnlock: tracefmt.SyncUnlock,
		isa.SysCondWait: tracefmt.SyncCondWait, isa.SysCondSignal: tracefmt.SyncCondSignal,
		isa.SysCondBroadcast: tracefmt.SyncCondBroadcast, isa.SysBarrier: tracefmt.SyncBarrier,
		isa.SysThreadCreate: tracefmt.SyncThreadCreate, isa.SysThreadJoin: tracefmt.SyncThreadJoin,
		isa.SysMalloc: tracefmt.SyncMalloc, isa.SysFree: tracefmt.SyncFree,
	}
	type pathSys struct {
		step int
		kind tracefmt.SyncKind
	}
	var steps []pathSys
	first := 0 // the first step of run r
	for _, r := range tt.Path.Runs() {
		for k := 0; k < int(r.Len); k++ {
			in := p.Insts[int(r.Inst)+k]
			if kind, ok := kinds[in.Sys]; ok && in.Op == isa.SYSCALL {
				steps = append(steps, pathSys{first + k, kind})
			}
		}
		first += int(r.Len)
	}
	var out []synthesis.SyncStep
	for _, rec := range tr.Sync {
		if rec.TID != tt.TID {
			continue
		}
		ss := synthesis.SyncStep{Rec: rec, StepIndex: -1}
		if rec.Kind != tracefmt.SyncThreadBegin && rec.Kind != tracefmt.SyncThreadExit &&
			len(steps) > 0 && steps[0].kind == rec.Kind {
			ss.StepIndex = steps[0].step
			steps = steps[1:]
		}
		out = append(out, ss)
	}
	return out
}

// TestBackwardCutKeepsFactAboveCut is a hand-built thread on which the
// backward walk stops right below the step whose definition yields a
// learned fact, and that fact is what the second forward pass needs: r2 is
// lost to the load at step 2 in the first forward pass, the backward pass
// learns it from the sample at step 7, and only the second forward pass can
// carry it through the multiply to the load at step 5. Stopping one step
// earlier (testing fwdAvail at the current step rather than the next, or
// testing at the sample step itself) loses the fact.
func TestBackwardCutKeepsFactAboveCut(t *testing.T) {
	b := asm.New("cut")
	b.Global("a", 8)
	b.Global("b", 8)
	b.Global("buf", 64)
	m := b.Func("main")
	m.Load(isa.R6, asm.Global("a", 0))  // 0: sampled
	m.AddI(isa.R10, 1)                  // 1: the walk stops above this step
	m.Load(isa.R2, asm.Global("b", 0))  // 2: r2 unknown to forward; its definition yields the fact
	m.Mov(isa.R8, isa.R2)               // 3
	m.MulI(isa.R8, 8)                   // 4: not invertible, so backward never has r8 here
	m.Load(isa.R9, asm.Base(isa.R8, 0)) // 5: needs r8 = r2*8
	m.MovI(isa.R8, 0)                   // 6: hides r8 from the backward pass
	m.Load(isa.R6, asm.Global("a", 0))  // 7: sampled
	m.AddI(isa.R10, 1)                  // 8
	m.Exit(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, buf := p.MustLookup("a").Addr, p.MustLookup("buf").Addr

	const last, deref = 8, 5
	entry, _ := isa.AddrToIndex(p.MustLookup("main").Addr)
	path := ptdecode.NewPath(0, []ptdecode.Run{{Inst: uint32(entry), Len: last + 1}})
	sample := func(step int, tsc uint64) synthesis.Sample {
		rec := tracefmt.PEBSRecord{TSC: tsc, IP: isa.IndexToAddr(entry + step), Addr: a}
		rec.Regs[isa.R2] = buf / 8
		return synthesis.Sample{Rec: rec, StepIndex: step}
	}
	tt := &synthesis.ThreadTrace{
		Path:    path,
		Samples: []synthesis.Sample{sample(0, 100), sample(7, 200)},
	}

	e := replay.NewEngine(p, replay.Config{})
	acc, st, log := e.ReconstructThreadLogged(tt)
	i := slices.IndexFunc(acc, func(a replay.Access) bool { return a.Step == deref })
	if i < 0 || acc[i].Addr != buf || acc[i].Origin != replay.OriginForward {
		t.Fatalf("accesses %+v: want step %d recovered forward at %#x", acc, deref, buf)
	}
	wantAcc, wantSt, wantLog := e.ReconstructThreadUncut(tt)
	if !slices.Equal(acc, wantAcc) || st != wantSt || !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("cut walk differs from the uncut walk:\n got %+v %+v\nwant %+v %+v", acc, st, wantAcc, wantSt)
	}
	// The first segment is the sample alone; the second walks steps 7
	// down to 2 and stops above step 1.
	if walked, uncut := e.BackwardSteps(tt); walked != 7 || uncut != 8 {
		t.Errorf("backward walk visited %d of %d steps; want 7 of 8", walked, uncut)
	}
}

// TestBackwardWalkRatchet bounds the share of its segments' steps the
// backward walk visits on the mysql-3596 trace at period 1000, seed 2
// (0.16 when the cut was introduced). It counts steps, not time.
func TestBackwardWalkRatchet(t *testing.T) {
	bug, err := bugs.ByID("mysql-3596")
	if err != nil {
		t.Fatal(err)
	}
	built, tr := traceBug(t, bug, 1000, 2)
	tts, err := synthesis.SynthesizeWith(built.Workload.Program, tr, synthesis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := replay.NewEngine(built.Workload.Program, replay.Config{})
	var walked, uncut int
	for _, tt := range tts {
		w, u := e.BackwardSteps(tt)
		walked, uncut = walked+w, uncut+u
	}
	ratio := float64(walked) / float64(uncut)
	t.Logf("backward walk visited %d of %d segment steps (%.3f)", walked, uncut, ratio)
	if uncut == 0 || ratio > 0.25 {
		t.Fatalf("backward walk visited %d of %d segment steps (%.3f); the bound is 0.25", walked, uncut, ratio)
	}
}

// TestSecondForwardPassWalksPastUnequalMemory is a hand-built thread on
// which the second forward pass must keep walking past a sample. The
// backward pass learns r6 for the store at step 1, so only the second
// pass stores &buf to slot there; the first pass, lacking r6, drops its
// emulated memory instead. Both then enter the sample's registers at step
// 2, but the second pass's memory holds one entry more, so it is not in
// the first pass's state. Its reload of slot at step 3 hits, and only it
// recovers the dereference at step 4. Taking the pass to be in step after
// the sample regardless of memory, or resuming from a checkpoint past the
// fact at step 1, loses that access.
func TestSecondForwardPassWalksPastUnequalMemory(t *testing.T) {
	b := asm.New("skip")
	b.Global("a", 8)
	b.Global("slot", 8)
	b.Global("buf", 64)
	m := b.Func("main")
	m.Lea(isa.R1, asm.Global("buf", 0))   // 0: r1 = &buf in both passes
	m.Store(asm.Base(isa.R6, 0), isa.R1)  // 1: r6 = &slot, learned backward
	m.Load(isa.R2, asm.Global("a", 0))    // 2: sampled
	m.Load(isa.R3, asm.Global("slot", 0)) // 3: hits only the second pass's memory
	m.Load(isa.R4, asm.Base(isa.R3, 0))   // 4: needs r3 = &buf
	m.Exit(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, slot, buf := p.MustLookup("a").Addr, p.MustLookup("slot").Addr, p.MustLookup("buf").Addr

	const sampled, deref = 2, 4
	entry, _ := isa.AddrToIndex(p.MustLookup("main").Addr)
	path := ptdecode.NewPath(0, []ptdecode.Run{{Inst: uint32(entry), Len: deref + 1}})
	rec := tracefmt.PEBSRecord{TSC: 100, IP: isa.IndexToAddr(entry + sampled), Addr: a}
	rec.Regs[isa.R1], rec.Regs[isa.R6] = buf, slot
	tt := &synthesis.ThreadTrace{
		Path:    path,
		Samples: []synthesis.Sample{{Rec: rec, StepIndex: sampled}},
	}

	e := replay.NewEngine(p, replay.Config{})
	acc, st, log := e.ReconstructThreadLogged(tt)
	i := slices.IndexFunc(acc, func(a replay.Access) bool { return a.Step == deref })
	if i < 0 || acc[i].Addr != buf || acc[i].Origin != replay.OriginForward {
		t.Fatalf("accesses %+v: want step %d recovered forward at %#x", acc, deref, buf)
	}
	wantAcc, wantSt, wantLog := e.ReconstructThreadFullF2(tt)
	if !slices.Equal(acc, wantAcc) || st != wantSt || !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("differs from the full second forward pass:\n got %+v %+v\nwant %+v %+v", acc, st, wantAcc, wantSt)
	}
	if walked, steps := e.ForwardSteps(tt); walked != steps {
		t.Errorf("second forward pass walked %d of %d steps; want all of them", walked, steps)
	}
}

// TestForwardSkipRatchet bounds the share of the path's steps the second
// forward pass walks on the mysql-3596 trace at period 1000, seed 2 (0.22
// when the skip was introduced). It counts steps, not time.
func TestForwardSkipRatchet(t *testing.T) {
	bug, err := bugs.ByID("mysql-3596")
	if err != nil {
		t.Fatal(err)
	}
	built, tr := traceBug(t, bug, 1000, 2)
	tts, err := synthesis.SynthesizeWith(built.Workload.Program, tr, synthesis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := replay.NewEngine(built.Workload.Program, replay.Config{})
	var walked, steps int
	for _, tt := range tts {
		w, n := e.ForwardSteps(tt)
		walked, steps = walked+w, steps+n
	}
	ratio := float64(walked) / float64(steps)
	t.Logf("second forward pass walked %d of %d path steps (%.3f)", walked, steps, ratio)
	if steps == 0 || ratio > 0.30 {
		t.Fatalf("second forward pass walked %d of %d path steps (%.3f); the bound is 0.30", walked, steps, ratio)
	}
}
