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
		built := bug.Build(1)
		for _, period := range periods {
			for seed := int64(1); seed <= seeds; seed++ {
				tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
					Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true,
					Machine: built.Workload.Machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s period=%d seed=%d", bug.ID, period, seed)
				n, inv := matchUncutWalk(t, name, built.Workload.Program, tr.Trace, synthesis.Options{Lenient: true})
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
// with the cut backward walk and with the uncut reference, with memory
// emulation on and off and with InvalidAddrs nil and set to the detected
// racy set. Accesses, Stats (InvalidHits included) and LoadLogs must be
// identical. It returns the reconstructions compared and how many of them
// had InvalidHits.
func matchUncutWalk(t *testing.T, name string, p *prog.Program, tr *tracefmt.Trace, opts synthesis.Options) (threads, invalidated int) {
	t.Helper()
	tts, err := synthesis.SynthesizeWith(p, tr, opts)
	if err != nil {
		t.Fatal(err)
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
				want, wst, wlog := e.ReconstructThreadUncut(tt)
				if !slices.Equal(got, want) {
					t.Fatalf("%s racy=%d tid=%d: accesses differ from the uncut walk (%d vs %d)", name, len(invalid), tid, len(got), len(want))
				}
				if gst != wst {
					t.Fatalf("%s racy=%d tid=%d: stats differ:\n got %+v\nwant %+v", name, len(invalid), tid, gst, wst)
				}
				if !reflect.DeepEqual(glog, wlog) {
					t.Fatalf("%s racy=%d tid=%d: LoadLogs differ", name, len(invalid), tid)
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
	path := &ptdecode.Path{Runs: []ptdecode.Run{{Step: 0, Inst: uint32(entry), Len: last + 1}}}
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
	built := bug.Build(1)
	tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 2, EnablePT: true,
		Machine: built.Workload.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	tts, err := synthesis.Synthesize(built.Workload.Program, tr.Trace)
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
