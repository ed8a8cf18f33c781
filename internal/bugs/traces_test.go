package bugs_test

import (
	"fmt"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
)

// tracedRun is one Table-2 bug traced once under one set of trace options
// and, when a test asks, analysed once.
type tracedRun struct {
	once sync.Once
	tr   *core.TraceResult
	err  error

	analyzeOnce sync.Once
	detected    bool
	analyzeErr  error
}

var (
	builtBugs  sync.Map // bug ID -> *builtBug
	tracedRuns sync.Map // "id/kind/pt/period/seed" -> *tracedRun
)

type builtBug struct {
	once  sync.Once
	built *bugs.Built
}

// build returns bug built at scale 1, once per package run. Building is
// deterministic, so every test sees the same program.
func build(bug bugs.Bug) *bugs.Built {
	v, _ := builtBugs.LoadOrStore(bug.ID, &builtBug{})
	bb := v.(*builtBug)
	bb.once.Do(func() { bb.built = bug.Build(1) })
	return bb.built
}

// traceRun returns the run of built under topts. Tracing is deterministic,
// so the package traces each (bug, driver, PT, period, seed) once and the
// tests share the result; callers must not modify it. Only Kind, EnablePT,
// Period and Seed may vary between callers: the machine is the bug's own.
func traceRun(t *testing.T, built *bugs.Built, topts core.TraceOptions) *tracedRun {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%v/%d/%d", built.Bug.ID, topts.Kind, topts.EnablePT, topts.Period, topts.Seed)
	v, _ := tracedRuns.LoadOrStore(key, &tracedRun{})
	r := v.(*tracedRun)
	r.once.Do(func() {
		topts.Machine = built.Workload.Machine
		r.tr, r.err = core.TraceProgram(built.Workload.Program, topts)
	})
	if r.err != nil {
		t.Fatalf("%s: %v", built.Bug.ID, r.err)
	}
	return r
}

// detect reports whether analysing the run with aopts finds the planted
// race. Analysis is deterministic too, so each run is analysed once; a run
// must always be analysed with the same options.
func (r *tracedRun) detect(t *testing.T, built *bugs.Built, aopts core.AnalysisOptions) bool {
	t.Helper()
	r.analyzeOnce.Do(func() {
		ar, err := core.Analyze(built.Workload.Program, r.tr.Trace, aopts)
		if err != nil {
			r.analyzeErr = err
			return
		}
		r.detected = built.Detected(ar.Reports)
	})
	if r.analyzeErr != nil {
		t.Fatalf("%s: %v", built.Bug.ID, r.analyzeErr)
	}
	return r.detected
}
