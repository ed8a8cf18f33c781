package replay_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/isa"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
)

// TestOpsMalformedRegisterFailsOnlyItsThread corrupts the destination
// register of a MOVI that exactly one thread of a Table-2 bug trace
// executes. Analysis must still succeed: that thread's reconstruction fails
// with a per-thread error naming the malformed instruction, and every other
// thread reconstructs exactly as on the intact program.
func TestOpsMalformedRegisterFailsOnlyItsThread(t *testing.T) {
	built, tr := traceBug(t, bugs.All()[0], 1000, 1)
	p := built.Workload.Program
	tts, err := synthesis.SynthesizeWith(p, tr, synthesis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// runners[idx] lists the threads whose path executes instruction idx.
	runners := map[int][]int32{}
	for tid := range tts {
		seen := map[int]bool{}
		for _, r := range tts[tid].Path.Runs() {
			for idx := int(r.Inst); idx < int(r.Inst+r.Len); idx++ {
				if !seen[idx] {
					seen[idx] = true
					runners[idx] = append(runners[idx], tid)
				}
			}
		}
	}
	target, victim := -1, int32(-1)
	for idx := range p.Insts {
		if p.Insts[idx].Op == isa.MOVI && len(runners[idx]) == 1 {
			target, victim = idx, runners[idx][0]
			break
		}
	}
	if target < 0 {
		t.Fatal("no MOVI is executed by exactly one thread")
	}
	bad := &prog.Program{Name: p.Name, Insts: slices.Clone(p.Insts), Data: p.Data, Symbols: p.Symbols, Entry: p.Entry}
	bad.Insts[target].Rd = isa.NumRegs + 4

	opts := core.AnalysisOptions{DisableRaceFeedback: true}
	good, err := core.Analyze(p, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Analyze(bad, tr, opts)
	if err != nil {
		t.Fatalf("analysis of the corrupted program failed: %v", err)
	}
	terrs := got.Degradation.ThreadErrors
	if len(terrs) != 1 || terrs[0].TID != victim || terrs[0].Stage != "reconstruct" ||
		!strings.Contains(terrs[0].Err.Error(), "malformed register") {
		t.Fatalf("thread errors %+v; want one reconstruct error for thread %d", terrs, victim)
	}
	for tid, acc := range good.Accesses {
		if tid == victim {
			continue
		}
		if !reflect.DeepEqual(got.Accesses[tid], acc) {
			t.Errorf("thread %d: accesses differ from the intact program's", tid)
		}
	}
	if len(good.Accesses) < 2 {
		t.Fatalf("%d threads reconstructed; the test needs another thread", len(good.Accesses))
	}
}
