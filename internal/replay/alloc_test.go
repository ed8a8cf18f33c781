package replay

import (
	"testing"

	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/workload"
)

// allocWorkload traces the blackscholes workload and synthesizes its
// per-thread paths — a fixed, deterministic input for allocation guards.
func allocWorkload(t *testing.T) (*workload.Workload, map[int32]*synthesis.ThreadTrace) {
	t.Helper()
	w := workload.PARSEC(1)[0]
	mcfg := w.Machine
	mcfg.Seed = 3
	mac := machine.New(w.Program, mcfg)
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tts, err := synthesis.Synthesize(w.Program, d.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return &w, tts
}

// TestReconstructAllSteadyStateAllocs pins the allocation budget of warm
// reconstruction. With pooled path states, the dense per-step tables and
// the learned-fact arena, a steady-state ReconstructAll allocates only the
// result map and access slices — a handful of allocations for thousands of
// accesses. The bound is ~20× above the measured value (7) but ~900× under
// the pre-pooling cost (12k+), so it flags a real regression without being
// flaky across runtime versions.
func TestReconstructAllSteadyStateAllocs(t *testing.T) {
	w, tts := allocWorkload(t)
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward})
	// Warm the state pool and count the accesses the budget amortises.
	accs, st := engine.ReconstructAll(tts)
	if st.Total() == 0 || len(accs) == 0 {
		t.Fatal("probe workload reconstructed nothing")
	}
	avg := testing.AllocsPerRun(5, func() { engine.ReconstructAll(tts) })
	const budget = 150
	if avg > budget {
		t.Errorf("steady-state ReconstructAll: %.1f allocs/run over %d accesses, budget %d",
			avg, st.Total(), budget)
	}
}

// TestTelemetryOffAddsNoAllocs pins the disabled-telemetry contract on the
// replay hot path: an engine built without a registry holds nil metric
// handles, and every instrumentation call through them — the per-thread
// publish batch and the per-reconstruction recycle call — is exactly zero
// allocations.
func TestTelemetryOffAddsNoAllocs(t *testing.T) {
	w, _ := allocWorkload(t)
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward})
	m := engine.met
	if m.threads != nil || m.sampled != nil || m.recycles != nil {
		t.Fatal("engine without telemetry must hold nil metric handles")
	}
	st := Stats{Sampled: 10, Forward: 20, Backward: 5, PathSteps: 100, MemSteps: 40}
	if avg := testing.AllocsPerRun(100, func() {
		m.recycles.Inc()
		m.publish(&st)
	}); avg != 0 {
		t.Errorf("disabled-telemetry instrumentation: %.1f allocs/run, want 0", avg)
	}
}

// TestReconstructTelemetryMatchesStats cross-checks the published series
// against the returned Stats — the registry is a second read path for the
// same deterministic values, so they must agree exactly.
func TestReconstructTelemetryMatchesStats(t *testing.T) {
	w, tts := allocWorkload(t)
	reg := telemetry.New()
	engine := NewEngine(w.Program, Config{Mode: ModeForwardBackward, Telemetry: reg})
	_, st := engine.ReconstructAll(tts)
	s := reg.Snapshot()
	checks := []struct {
		name string
		want int
	}{
		{"prorace_replay_threads_total", len(tts)},
		{"prorace_replay_accesses_sampled_total", st.Sampled},
		{"prorace_replay_accesses_forward_total", st.Forward},
		{"prorace_replay_accesses_backward_total", st.Backward},
		{"prorace_replay_accesses_bb_total", st.BasicBlock},
		{"prorace_replay_path_steps_total", st.PathSteps},
		{"prorace_replay_mem_steps_total", st.MemSteps},
		{"prorace_replay_invalid_hits_total", st.InvalidHits},
	}
	for _, c := range checks {
		if got := s.Counter(c.name); got != uint64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
