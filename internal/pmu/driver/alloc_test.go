package driver

import (
	"runtime"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/machine"
)

// TestTracingAllocationRatchet holds the traced per-instruction path —
// the machine's step and the driver's InstRetired with PEBS and PT — to
// no heap allocation per instruction. What remains is amortised growth of
// the trace buffers and per-thread state, far below one object per
// hundred retired instructions; an allocation on the per-instruction path
// would cost at least one object per instruction.
func TestTracingAllocationRatchet(t *testing.T) {
	bug, err := bugs.ByID("mysql-3596")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	mcfg := built.Workload.Machine
	mcfg.Seed = 1

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := machine.New(built.Workload.Program, mcfg)
	d := New(m, Options{Kind: ProRace, Period: 1000, Seed: 1, EnablePT: true})
	m.SetTracer(d)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	runtime.ReadMemStats(&after)

	if st.Retired == 0 || tr.SampleCount() == 0 {
		t.Fatalf("traced nothing: %d retired, %d samples", st.Retired, tr.SampleCount())
	}
	mallocs := after.Mallocs - before.Mallocs
	ratio := float64(mallocs) / float64(st.Retired)
	t.Logf("%d heap objects over %d retired instructions: %.5f per instruction", mallocs, st.Retired, ratio)
	if ratio >= 0.01 {
		t.Errorf("tracing allocated %.4f heap objects per retired instruction, want < 0.01", ratio)
	}
}
