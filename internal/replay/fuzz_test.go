package replay

import (
	"math/rand"
	"testing"

	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/progtest"
	"prorace/internal/synthesis"
)

// TestFuzzReplaySoundness runs random structured programs through the full
// online + offline pipeline at several sampling periods and verifies that
// every reconstructed access carries exactly the address the machine
// computed — the soundness property that lets races be reported from
// reconstructed accesses at all.
func TestFuzzReplaySoundness(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		p := progtest.RandomProgram(rng)
		for _, period := range []uint64{5, 31, 257} {
			mac := machine.New(p, machine.Config{Seed: seed, MaxCycles: 5_000_000})
			d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true})
			g := progtest.NewGolden(d)
			mac.SetTracer(g)
			if _, err := mac.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			tts, err := synthesis.SynthesizeWith(p, d.Finish(), synthesis.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, mode := range []Mode{ModeForward, ModeForwardBackward} {
				e := NewEngine(p, Config{Mode: mode})
				accesses, st := e.ReconstructAll(tts)
				for tid, accs := range accesses {
					golden := g.Steps[tid]
					for _, a := range accs {
						if a.Step < 0 {
							continue
						}
						if a.Step >= len(golden) {
							t.Fatalf("seed %d period %d: step %d beyond golden %d",
								seed, period, a.Step, len(golden))
						}
						w := golden[a.Step]
						if !w.IsMem || w.PC != a.PC || w.Addr != a.Addr {
							t.Fatalf("seed %d period %d mode %v tid %d step %d: recovered %#x@%#x, golden %#x@%#x",
								seed, period, mode, tid, a.Step, a.Addr, a.PC, w.Addr, w.PC)
						}
					}
				}
				if st.Sampled == 0 && period == 5 && st.MemSteps > 10 {
					t.Errorf("seed %d: no samples at period 5 with %d mem steps", seed, st.MemSteps)
				}
			}
		}
	}
}
