package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/workload"
)

// Building and tracing are deterministic, so the package builds each
// program and traces each (program, period, seed) once, and the tests
// share the results; callers must not modify them.

type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

var memo sync.Map // key -> *memoEntry

// memoize returns f's result, computing it once per key per package run.
func memoize[T any](t *testing.T, key string, f func() (T, error)) T {
	t.Helper()
	v, _ := memo.LoadOrStore(key, &memoEntry{})
	e := v.(*memoEntry)
	e.once.Do(func() { e.v, e.err = f() })
	if e.err != nil {
		t.Fatalf("%s: %v", key, e.err)
	}
	return e.v.(T)
}

// bugTrace returns Table-2 bug id built at scale 1 and its trace under the
// ProRace driver with PT at period and seed.
func bugTrace(t *testing.T, id string, period uint64, seed int64) (*bugs.Built, *TraceResult) {
	t.Helper()
	built := memoize(t, "build/"+id, func() (*bugs.Built, error) {
		bug, err := bugs.ByID(id)
		if err != nil {
			return nil, err
		}
		return bug.Build(1), nil
	})
	tr := memoize(t, fmt.Sprintf("trace/%s/%d/%d", id, period, seed), func() (*TraceResult, error) {
		return TraceProgram(built.Workload.Program, TraceOptions{
			Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true,
			Machine: built.Workload.Machine,
		})
	})
	return built, tr
}

// apacheTrace returns the Apache workload at scale 1 and its trace under
// the ProRace driver with PT at period 1000, seed 3.
func apacheTrace(t *testing.T) (workload.Workload, *TraceResult) {
	t.Helper()
	w := memoize(t, "build/apache", func() (workload.Workload, error) { return workload.Apache(1), nil })
	tr := memoize(t, "trace/apache/1000/3", func() (*TraceResult, error) {
		return TraceProgram(w.Program, TraceOptions{
			Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine,
		})
	})
	return w, tr
}

// oracleTrace returns a densely sampled trace of a small oracle-generated
// concurrent program — racy (several reports), §5.1-regenerating, and small
// enough that the full equivalence matrix stays cheap.
func oracleTrace(t *testing.T) (*prog.Program, *TraceResult) {
	t.Helper()
	p := memoize(t, "build/oracle7", func() (*prog.Program, error) {
		p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(7)))
		return p, nil
	})
	tr := memoize(t, "trace/oracle7/2/7", func() (*TraceResult, error) {
		return TraceProgram(p, TraceOptions{Kind: driver.ProRace, Period: 2, Seed: 7, EnablePT: true})
	})
	return p, tr
}
