package ptdecode

import (
	"math/rand"
	"testing"

	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/progtest"
)

// TestFuzzDecodeMatchesExecution runs random structured programs and
// checks the decoded PT path against the executed instruction sequence —
// the decoder's end-to-end correctness property.
func TestFuzzDecodeMatchesExecution(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progtest.RandomProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mac := machine.New(p, machine.Config{Seed: seed, MaxCycles: 5_000_000})
		d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 7, Seed: seed, EnablePT: true})
		g := progtest.NewGolden(d)
		mac.SetTracer(g)
		if _, err := mac.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := d.Finish()
		paths, err := DecodeAll(p, tr.PT, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for tid, path := range paths {
			want := g.Steps[tid]
			if path.Len() != len(want) {
				t.Fatalf("seed %d tid %d: decoded %d steps, executed %d",
					seed, tid, path.Len(), len(want))
			}
			pcs := pcsOf(path)
			for i := range want {
				if pcs[i] != want[i].PC {
					t.Fatalf("seed %d tid %d step %d: %#x vs %#x",
						seed, tid, i, pcs[i], want[i].PC)
				}
			}
		}
		// Every stored sample's marker must exist.
		for tid, recs := range tr.PEBS {
			markers := map[uint64]bool{}
			for _, mk := range paths[tid].Markers {
				markers[mk.TSC] = true
			}
			for _, rec := range recs {
				if !markers[rec.TSC] {
					t.Fatalf("seed %d: sample at TSC %d unmarked", seed, rec.TSC)
				}
			}
		}
	}
}
