package replay_test

import (
	"fmt"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/tracefmt"
)

// tracedBug is a Table-2 bug traced once at one period and seed.
type tracedBug struct {
	once  sync.Once
	built *bugs.Built
	tr    *tracefmt.Trace
	err   error
}

var tracedBugs sync.Map // "id/period/seed" -> *tracedBug

// traceBug returns bug built at scale 1 and traced with the ProRace driver
// and PT at period and seed. Tracing is deterministic, so the package
// traces each (bug, period, seed) once and the differential matrices and
// ratchets share the result; callers must not modify it.
func traceBug(t *testing.T, bug bugs.Bug, period uint64, seed int64) (*bugs.Built, *tracefmt.Trace) {
	t.Helper()
	v, _ := tracedBugs.LoadOrStore(fmt.Sprintf("%s/%d/%d", bug.ID, period, seed), &tracedBug{})
	tb := v.(*tracedBug)
	tb.once.Do(func() {
		tb.built = bug.Build(1)
		var tr *core.TraceResult
		tr, tb.err = core.TraceProgram(tb.built.Workload.Program, core.TraceOptions{
			Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true,
			Machine: tb.built.Workload.Machine,
		})
		if tb.err == nil {
			tb.tr = tr.Trace
		}
	})
	if tb.err != nil {
		t.Fatal(tb.err)
	}
	return tb.built, tb.tr
}
