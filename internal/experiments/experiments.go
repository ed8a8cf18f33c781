// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment returns both raw data and a rendered
// text table; cmd/experiments prints them and the root benchmark suite
// reports their headline metrics.
//
// The per-experiment index mapping each function to the paper's artifact
// lives in DESIGN.md §4; paper-vs-measured numbers are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/workload"
)

// Config sizes the experiments. The zero value is usable: Quick() for test
// and benchmark runs, Full() for the paper-scale regeneration.
type Config struct {
	// Scale multiplies workload iteration counts.
	Scale workload.Scale
	// Periods is the PEBS sampling-period sweep (paper: 10..100K).
	Periods []uint64
	// Seed is the base scheduler seed.
	Seed int64
	// Table2Trials is the number of traces per bug per period (paper: 100).
	Table2Trials int
	// Table2Periods is Table 2's period set (paper: 100, 1K, 10K).
	Table2Periods []uint64
	// Workloads restricts the overhead/trace sweeps to the named
	// workloads (empty = all). The benchmark suite uses it to regenerate
	// each figure's series on a representative subset quickly.
	Workloads []string
	// BugSubset restricts Table 2 / Figures 11-12 to the named bugs
	// (empty = all).
	BugSubset []string
	// FaultTrials is the number of clean traces per bug the fault sweep
	// re-analyses under each injected corruption.
	FaultTrials int
	// FaultRates is the fault sweep's injection-rate axis.
	FaultRates []float64
	// OracleSeeds is the number of generated programs the ground-truth
	// differential sweep scores (seeds Seed..Seed+OracleSeeds-1).
	OracleSeeds int
	// OraclePeriods is the oracle sweep's sampling-period axis; it must
	// include 1 for the recall@1 invariant.
	OraclePeriods []uint64
	// OracleDeterminismEvery runs the metamorphic determinism matrix on
	// every Nth oracle seed (0 disables).
	OracleDeterminismEvery int
}

// Quick returns a configuration small enough for tests and benchmarks.
func Quick() Config {
	return Config{
		Scale:         1,
		Periods:       []uint64{10, 100, 1000, 10000, 100000},
		Seed:          1,
		Table2Trials:  10,
		Table2Periods: []uint64{100, 1000, 10000},
	}
}

// Full returns the paper-scale configuration.
func Full() Config {
	c := Quick()
	c.Scale = 3
	c.Table2Trials = 100
	c.OracleSeeds = 200
	c.OracleDeterminismEvery = 10
	return c
}

func (c *Config) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Periods) == 0 {
		c.Periods = []uint64{10, 100, 1000, 10000, 100000}
	}
	if c.Table2Trials <= 0 {
		c.Table2Trials = 10
	}
	if len(c.Table2Periods) == 0 {
		c.Table2Periods = []uint64{100, 1000, 10000}
	}
	if c.FaultTrials <= 0 {
		c.FaultTrials = 3
	}
	if len(c.FaultRates) == 0 {
		c.FaultRates = []float64{0.01, 0.1, 0.25, 0.5}
	}
	if c.OracleSeeds <= 0 {
		c.OracleSeeds = 50
	}
	if len(c.OraclePeriods) == 0 {
		c.OraclePeriods = []uint64{1, 10, 100, 1000}
	}
	if c.OracleDeterminismEvery == 0 {
		c.OracleDeterminismEvery = 25
	}
}

// Point is one measurement of the overhead/trace-size sweeps: one workload
// traced at one period under one driver.
type Point struct {
	Workload string
	Class    workload.Class
	Period   uint64
	Driver   driver.Kind
	// Overhead is traced/untraced - 1.
	Overhead float64
	// MBps is the trace generation rate over the traced run.
	MBps float64
	// Samples and Dropped count stored and discarded PEBS records.
	Samples int
	Dropped uint64
	// PEBSBytes/PTBytes/SyncBytes decompose the trace volume.
	PEBSBytes, PTBytes, SyncBytes uint64
}

// Harness runs and caches the sweeps shared by several figures (Figures 6
// and 8 use the same PARSEC runs; 7 and 9 the same real-app runs).
type Harness struct {
	cfg   Config
	cache map[string][]Point
}

// NewHarness creates a harness for a configuration.
func NewHarness(cfg Config) *Harness {
	cfg.setDefaults()
	return &Harness{cfg: cfg, cache: map[string][]Point{}}
}

// Config returns the (defaulted) configuration.
func (h *Harness) Config() Config { return h.cfg }

// filterWorkloads applies the Workloads subset.
func (h *Harness) filterWorkloads(ws []workload.Workload) []workload.Workload {
	if len(h.cfg.Workloads) == 0 {
		return ws
	}
	keep := map[string]bool{}
	for _, n := range h.cfg.Workloads {
		keep[n] = true
	}
	var out []workload.Workload
	for _, w := range ws {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// sweep traces every workload at every period under one driver setup.
func (h *Harness) sweep(key string, ws []workload.Workload, kind driver.Kind, enablePT bool) ([]Point, error) {
	if pts, ok := h.cache[key]; ok {
		return pts, nil
	}
	ws = h.filterWorkloads(ws)
	var out []Point
	for _, w := range ws {
		for _, period := range h.cfg.Periods {
			res, err := core.TraceProgram(w.Program, core.TraceOptions{
				Kind:            kind,
				Period:          period,
				Seed:            h.cfg.Seed,
				EnablePT:        enablePT,
				MeasureOverhead: true,
				Machine:         w.Machine,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s @%d: %w", w.Name, period, err)
			}
			pebsB, ptB, syncB := res.Trace.Sizes()
			out = append(out, Point{
				Workload:  w.Name,
				Class:     w.Class,
				Period:    period,
				Driver:    kind,
				Overhead:  res.Overhead,
				MBps:      res.Trace.MBPerSecond(),
				Samples:   res.Trace.SampleCount(),
				Dropped:   res.Dropped,
				PEBSBytes: pebsB,
				PTBytes:   ptB,
				SyncBytes: syncB,
			})
		}
	}
	h.cache[key] = out
	return out, nil
}

// parsecSweep traces the PARSEC suite under the ProRace driver.
func (h *Harness) parsecSweep() ([]Point, error) {
	return h.sweep("parsec-prorace", workload.PARSEC(h.cfg.Scale), driver.ProRace, true)
}

// realSweep traces the real applications under the ProRace driver.
func (h *Harness) realSweep() ([]Point, error) {
	return h.sweep("real-prorace", workload.RealApps(h.cfg.Scale), driver.ProRace, true)
}

// parsecVanillaSweep traces PARSEC under the stock driver (Figure 10).
func (h *Harness) parsecVanillaSweep() ([]Point, error) {
	return h.sweep("parsec-vanilla", workload.PARSEC(h.cfg.Scale), driver.Vanilla, false)
}

// realVanillaSweep traces real applications under the stock driver.
func (h *Harness) realVanillaSweep() ([]Point, error) {
	return h.sweep("real-vanilla", workload.RealApps(h.cfg.Scale), driver.Vanilla, false)
}
