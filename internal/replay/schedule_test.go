package replay_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prorace/internal/asm"
	"prorace/internal/bugs"
	"prorace/internal/core"
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

// TestTwoPassScheduleMatchesFixedPoint holds the forward → backward →
// forward schedule to the round loop it replaced, on every Table-2 bug at
// periods 1000 and 10000 and seeds 1–3 (see matchRoundLoop). -short keeps
// period 10000 and one bug per application.
func TestTwoPassScheduleMatchesFixedPoint(t *testing.T) {
	periods := []uint64{1000, 10000}
	if testing.Short() {
		periods = periods[1:]
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
			for seed := int64(1); seed <= 3; seed++ {
				tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
					Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true,
					Machine: built.Workload.Machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s period=%d seed=%d", bug.ID, period, seed)
				n, inv := matchRoundLoop(t, name, built.Workload.Program, tr.Trace)
				threads, invalidated = threads+n, invalidated+inv
			}
		}
	}
	if invalidated == 0 {
		t.Fatalf("no thread of %d hit an invalidated address: the racy-set case was never exercised", threads)
	}
	t.Logf("%d thread reconstructions matched, %d with InvalidHits", threads, invalidated)
}

// TestTwoPassScheduleMatchesFixedPointOracleSeeds runs the same comparison
// on the ground-truth oracle's random concurrent programs: seeds 1–200 at
// each of the oracle's sampling periods.
func TestTwoPassScheduleMatchesFixedPointOracleSeeds(t *testing.T) {
	var threads, invalidated int
	for seed := int64(1); seed <= 200; seed++ {
		p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(seed)))
		for _, period := range oracle.DefaultPeriods() {
			tr, err := core.TraceProgram(p, core.TraceOptions{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true})
			if err != nil {
				t.Fatal(err)
			}
			n, inv := matchRoundLoop(t, fmt.Sprintf("oracle seed=%d period=%d", seed, period), p, tr.Trace)
			threads, invalidated = threads+n, invalidated+inv
		}
	}
	if invalidated == 0 {
		t.Fatalf("no thread of %d hit an invalidated address: the racy-set case was never exercised", threads)
	}
	t.Logf("%d thread reconstructions matched, %d with InvalidHits", threads, invalidated)
}

// matchRoundLoop reconstructs every thread of tr with the fixed schedule
// and with the round loop it replaced (three rounds of forward then
// backward, ending early once a round past the first recovers nothing),
// with memory emulation on and off and with InvalidAddrs nil and set to
// the detected racy set. Every thread must reconstruct the same accesses
// and the same Stats. InvalidHits is the exception: the old loop counted
// the loads of a third forward pass too, so only whether it is non-zero
// must agree. It returns the reconstructions compared and how many of them
// had InvalidHits.
func matchRoundLoop(t *testing.T, name string, p *prog.Program, tr *tracefmt.Trace) (threads, invalidated int) {
	t.Helper()
	tts, err := synthesis.SynthesizeWith(p, tr, synthesis.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := replay.NewEngine(p, replay.Config{Mode: replay.ModeForwardBackward}).ReconstructAll(tts)
	racy := race.Detect(tr.Sync, acc, race.Options{TrackAllocations: true}).RacyAddrSet()
	invalids := []map[uint64]bool{nil}
	if len(racy) > 0 {
		invalids = append(invalids, racy)
	}
	for _, invalid := range invalids {
		emulated := replay.NewEngine(p, replay.Config{Mode: replay.ModeForwardBackward, InvalidAddrs: invalid})
		for _, e := range []*replay.Engine{emulated, emulated.DisableMemoryEmulation()} {
			for tid, tt := range tts {
				got, gst := e.ReconstructThread(tt)
				want, wst := e.ReconstructThreadRounds(tt, 3)
				if !slices.Equal(got, want) {
					t.Fatalf("%s racy=%d tid=%d: accesses differ from the round loop (%d vs %d)", name, len(invalid), tid, len(got), len(want))
				}
				if (gst.InvalidHits > 0) != (wst.InvalidHits > 0) {
					t.Fatalf("%s racy=%d tid=%d: InvalidHits %d, round loop %d", name, len(invalid), tid, gst.InvalidHits, wst.InvalidHits)
				}
				if gst.InvalidHits > 0 {
					invalidated++
				}
				gst.InvalidHits, wst.InvalidHits = 0, 0
				if gst != wst {
					t.Fatalf("%s racy=%d tid=%d: stats differ:\n got %+v\nwant %+v", name, len(invalid), tid, gst, wst)
				}
				threads++
			}
		}
	}
	return threads, invalidated
}

// TestSecondForwardPassResolvesThroughEmulatedMemory is a hand-built
// thread on which the second forward pass is needed. The load through r6
// has an unknown address in the first forward pass; the backward pass
// learns r6 from the sample; only the second forward pass can then serve
// the load from emulated memory and recover the dereference of its result,
// which the backward pass cannot see because r5 is overwritten before the
// sample.
func TestSecondForwardPassResolvesThroughEmulatedMemory(t *testing.T) {
	b := asm.New("f2")
	b.Global("ptr", 8)
	b.Global("slot", 8)
	b.Global("buf", 64)
	b.Global("out", 8)
	m := b.Func("main")
	m.Load(isa.R6, asm.Global("ptr", 0))   // 0: r6 = &slot, written before tracing
	m.Lea(isa.R4, asm.Global("buf", 0))    // 1
	m.Store(asm.Global("slot", 0), isa.R4) // 2: slot <- &buf (known value)
	m.Load(isa.R5, asm.Base(isa.R6, 0))    // 3: needs r6, learned backward
	m.Store(asm.Base(isa.R5, 8), isa.R4)   // 4: needs r5, from emulated memory
	m.MovI(isa.R5, 0)                      // 5: hides r5 from the backward pass
	m.Store(asm.Global("out", 0), isa.R5)  // 6: sampled
	m.Exit(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	slot, buf, out := p.MustLookup("slot").Addr, p.MustLookup("buf").Addr, p.MustLookup("out").Addr

	const sampled, deref = 6, 4
	entry := p.MustLookup("main").Addr
	pcs := make([]uint64, sampled+1)
	for i := range pcs {
		pcs[i] = entry + uint64(i)*isa.InstSize
	}
	rec := tracefmt.PEBSRecord{TSC: 100, IP: pcs[sampled], Addr: out, Store: true}
	rec.Regs[isa.R4], rec.Regs[isa.R6] = buf, slot
	tt := &synthesis.ThreadTrace{
		Path:    &ptdecode.Path{PCs: pcs},
		Samples: []synthesis.Sample{{Rec: rec, StepIndex: sampled}},
	}

	derefOf := func(accs []replay.Access) *replay.Access {
		if i := slices.IndexFunc(accs, func(a replay.Access) bool { return a.Step == deref }); i >= 0 {
			return &accs[i]
		}
		return nil
	}
	e := replay.NewEngine(p, replay.Config{Mode: replay.ModeForwardBackward})
	acc, _ := e.ReconstructThread(tt)
	if a := derefOf(acc); a == nil || a.Addr != buf+8 || a.Origin != replay.OriginForward {
		t.Fatalf("dereference = %+v; want a forward recovery of %#x", a, buf+8)
	}
	// Without the second forward pass the dereference stays unknown.
	if acc, _ := e.ReconstructThreadRounds(tt, 1); derefOf(acc) != nil {
		t.Error("forward then backward alone recovered the dereference")
	}
	if acc, _ := replay.NewEngine(p, replay.Config{Mode: replay.ModeForward}).ReconstructThread(tt); derefOf(acc) != nil {
		t.Error("forward replay alone recovered the dereference")
	}
}
