// External test package: the bug traces come through internal/core, which
// imports this package.
package ptdecode_test

import (
	"fmt"
	"math/rand"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/faultinject"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/ptdecode"
	"prorace/internal/tracefmt"
)

// requireReference fails unless the run decoder and the step-at-a-time
// reference agree on every thread stream of tr, and returns the run
// decoder's paths.
func requireReference(t *testing.T, name string, p *prog.Program, tr *tracefmt.Trace, opts ptdecode.Options) map[int32]*ptdecode.Path {
	t.Helper()
	paths := map[int32]*ptdecode.Path{}
	for tid, stream := range tr.PT {
		path, diff := ptdecode.DiffReference(p, tid, stream, opts)
		if diff != "" {
			t.Fatalf("%s tid %d (%+v): %s", name, tid, opts, diff)
		}
		paths[tid] = path
	}
	return paths
}

// traceBug traces one Table-2 bug the way the core fault matrix does.
func traceBug(t *testing.T, bug bugs.Bug) (*prog.Program, *tracefmt.Trace) {
	t.Helper()
	built := bug.Build(1)
	res, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 100, Seed: 5, EnablePT: true,
		Machine: built.Workload.Machine,
	})
	if err != nil {
		t.Fatalf("%s: trace: %v", bug.ID, err)
	}
	return built.Workload.Program, res.Trace
}

// TestRunDecoderMatchesReference holds the run decoder to the reference
// walk on every Table-2 bug trace, clean (strict and lenient) and under
// the trunc/ptflip/ptdrop rows of the core fault matrix.
func TestRunDecoderMatchesReference(t *testing.T) {
	kinds := []faultinject.Kind{faultinject.Trunc, faultinject.PTFlip, faultinject.PTDrop}
	rates := []float64{0.01, 0.1, 0.5}
	degraded := 0
	for _, bug := range bugs.All() {
		p, tr := traceBug(t, bug)
		requireReference(t, bug.ID, p, tr, ptdecode.Options{})
		requireReference(t, bug.ID, p, tr, ptdecode.Options{Lenient: true})
		if testing.Short() {
			continue
		}
		for _, kind := range kinds {
			for _, rate := range rates {
				spec := &faultinject.Spec{Seed: 5, Faults: []faultinject.Fault{{Kind: kind, Rate: rate}}}
				bad, _ := spec.Apply(tr)
				name := fmt.Sprintf("%s/%s@%g", bug.ID, kind, rate)
				// The core matrix's tight budget and the faults experiment's.
				// A desynced walk can spin in a packet-free loop until the
				// budget ends it, so the default would cost 100M steps.
				for _, budget := range []int{1 << 15, 1_000_000} {
					for _, path := range requireReference(t, name, p, bad, ptdecode.Options{Lenient: true, MaxSteps: budget}) {
						if path.Degraded() {
							degraded++
						}
					}
				}
			}
		}
	}
	if !testing.Short() && degraded == 0 {
		t.Fatal("no injected fault degraded a decode; the recovery paths went unchecked")
	}
}

// TestRunDecoderMatchesReferenceOnRandomPrograms covers 200 random
// structured programs and 200 random concurrent ones, decoded strictly.
func TestRunDecoderMatchesReferenceOnRandomPrograms(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		conc, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(seed)))
		for _, p := range []*prog.Program{progtest.RandomProgram(rand.New(rand.NewSource(seed))), conc} {
			mac := machine.New(p, machine.Config{Seed: seed, MaxCycles: 5_000_000})
			d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 7, Seed: seed, EnablePT: true})
			mac.SetTracer(d)
			if _, err := mac.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			requireReference(t, fmt.Sprintf("seed %d", seed), p, d.Finish(), ptdecode.Options{})
		}
	}
}

// TestMaxStepsCutsMidRun sweeps the step budget across the start of a
// bug trace's main thread, so the walk stops inside runs as well as at
// their ends, and checks that the budget is honoured exactly.
func TestMaxStepsCutsMidRun(t *testing.T) {
	bug, err := bugs.ByID("mysql-3596")
	if err != nil {
		t.Fatal(err)
	}
	p, tr := traceBug(t, bug)
	full, err := ptdecode.DecodeWith(p, 0, tr.PT[0], ptdecode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	midRun := 0
	for budget := 1; budget <= 300 && budget < full.Len(); budget++ {
		path, diff := ptdecode.DiffReference(p, 0, tr.PT[0], ptdecode.Options{MaxSteps: budget})
		if diff != "" {
			t.Fatalf("budget %d: %s", budget, diff)
		}
		if path.Len() != budget {
			t.Fatalf("budget %d: decoded %d steps", budget, path.Len())
		}
		if ri, first := full.RunAt(budget - 1); first+int(full.Runs()[ri].Len) != budget {
			midRun++
		}
	}
	if midRun == 0 {
		t.Fatal("no budget ended inside a run")
	}
}
