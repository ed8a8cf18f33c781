package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// offlineWorkloads are the `prorace analyze` workloads: one Table-2 bug
// traced at one sampling period, and whether the analysed trace must have
// races. mysql-3596 at period 1000 has races, so the §5.1 feedback pass
// regenerates and reconstruction dominates; cherokee-0.9.2 at the CLI's
// default period has few samples and no race, so detection is the largest
// share and feedback is skipped.
var offlineWorkloads = map[string]struct {
	bug    string
	period uint64
	races  bool
}{
	"analyze-mysql":    {"mysql-3596", 1000, true},
	"analyze-cherokee": {"cherokee-0.9.2", 10000, false},
}

// goldenTrace is one input trace of a workload, named by the scheduler
// seed that traces it, with the report set its analysis must produce.
type goldenTrace struct {
	Seed    int64    `json:"trace_seed"`
	Reports []string `json:"reports"`
}

// goldenJSON holds, per workload, the traces a workload seed selects from
// and their expected report sets. It is written by -update-golden and kept
// with the benchmark, so neither the choice of input nor the expected
// answer depends on the code being measured.
//
//go:embed golden.json
var goldenJSON []byte

// goldenPerWorkload is how many traces -update-golden keeps per workload.
const goldenPerWorkload = 16

// traceFor returns the golden trace workload seed s selects: entry s mod
// the number of entries.
func traceFor(cfg config) (goldenTrace, error) {
	var all map[string][]goldenTrace
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return goldenTrace{}, fmt.Errorf("parsing golden.json: %w", err)
	}
	gs := all[cfg.workload]
	if len(gs) == 0 {
		return goldenTrace{}, fmt.Errorf("golden.json has no trace for %s", cfg.workload)
	}
	n := int64(len(gs))
	return gs[(cfg.seed%n+n)%n], nil
}

// updateGolden regenerates golden.json under dir: for each workload it
// takes the first goldenPerWorkload scheduler seeds whose trace fits the
// workload. Whether sampling exposes a planted race depends on the
// schedule (about 2 in 5 cherokee-0.9.2 traces do), and a workload whose
// feedback pass ran on some seeds and not on others would measure two
// pipelines. A trace with races is kept only if its reports include the
// planted bug.
func updateGolden(dir string) error {
	all := map[string][]goldenTrace{}
	for name, wl := range offlineWorkloads {
		for seed := int64(1); len(all[name]) < goldenPerWorkload; seed++ {
			if seed > 64*goldenPerWorkload {
				return fmt.Errorf("too few traces of %s have races=%v", wl.bug, wl.races)
			}
			built, tr, err := traceBug(wl.bug, wl.period, seed)
			if err != nil {
				return err
			}
			res, err := core.Analyze(built.Workload.Program, tr.Trace, cliOptions())
			if err != nil {
				return fmt.Errorf("analysing %s trace %d: %w", wl.bug, seed, err)
			}
			if wl.races && !built.Detected(res.Reports) || !wl.races && len(res.Reports) > 0 {
				continue
			}
			all[name] = append(all[name], goldenTrace{Seed: seed, Reports: reportSet(res.Reports)})
		}
	}
	raw, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(raw, '\n'), 0o644)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// traceBug builds a Table-2 bug program and runs the online phase on it
// the way `prorace trace` and `proraced send` do.
func traceBug(bug string, period uint64, seed int64) (*bugs.Built, *core.TraceResult, error) {
	b, err := bugs.ByID(bug)
	if err != nil {
		return nil, nil, err
	}
	built := b.Build(workload.Scale(1))
	tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
		Kind:     driver.ProRace,
		Period:   period,
		Seed:     seed,
		EnablePT: true,
		Machine:  built.Workload.Machine,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tracing %s: %w", bug, err)
	}
	return built, tr, nil
}

// cliOptions is the analysis configuration of `prorace analyze` with its
// defaults (fb mode, sequential, strict), given a fresh, empty decoded-path
// cache: a one-shot CLI process never finds its trace already decoded.
func cliOptions() core.AnalysisOptions {
	return core.AnalysisOptions{
		Mode:      replay.ModeForwardBackward,
		Strict:    true,
		PathCache: synthesis.NewCache(synthesis.DefaultCacheCapacity),
	}
}

// analyzeCall is the offline analysis call `prorace analyze` makes on the
// bytes of a trace file.
func analyzeCall(in *offlineInput) (*core.AnalysisResult, error) {
	raw, err := os.ReadFile(in.path)
	if err != nil {
		return nil, err
	}
	tr, err := tracefmt.DecodeTraceAuto(raw)
	if err != nil {
		return nil, err
	}
	return core.Analyze(in.built.Workload.Program, tr, cliOptions())
}

// reportSet renders reports as a sorted list of "key | string" lines, the
// identity two analyses must agree on.
func reportSet(rs []race.Report) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		k := r.Key()
		out[i] = fmt.Sprintf("%#x/%#x | %s", k[0], k[1], r.String())
	}
	sort.Strings(out)
	return out
}

// offlineInput is an analyze-* workload's generated input: the trace file
// as `prorace trace` writes it, the report set recorded at setup and the
// golden one.
type offlineInput struct {
	built  *bugs.Built
	path   string
	exec   float64 // simulated execution seconds the trace covers
	ref    []string
	golden goldenTrace
	races  bool
}

// check returns why an analysis's reports are wrong, or "" when they equal
// both the golden set and the set recorded at setup and, on a workload
// with races, include the planted bug.
func (in *offlineInput) check(rs []race.Report) string {
	got := reportSet(rs)
	switch {
	case !slices.Equal(got, in.golden.Reports):
		return fmt.Sprintf("%d reports differ from the %d golden ones of trace seed %d", len(got), len(in.golden.Reports), in.golden.Seed)
	case !slices.Equal(got, in.ref):
		return fmt.Sprintf("%d reports differ from the %d recorded at setup", len(got), len(in.ref))
	case in.races && !in.built.Detected(rs):
		return fmt.Sprintf("the planted bug %s was not detected", in.built.Bug.ID)
	}
	return ""
}

// offlineSetup setupRepeats times builds the program, traces the seed's
// golden trace, writes the trace file and records the reference report
// set. It returns the last input and the median set-up time, as process
// CPU seconds and as wall seconds.
func offlineSetup(cfg config) (in *offlineInput, cpuS, wallS float64, err error) {
	wl := offlineWorkloads[cfg.workload]
	golden, err := traceFor(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		t0, c0 := time.Now(), processCPU()
		built, tr, err := traceBug(wl.bug, wl.period, golden.Seed)
		if err != nil {
			return nil, 0, 0, err
		}
		in = &offlineInput{built: built, path: filepath.Join(cfg.work, cfg.workload+".trace"), exec: tr.TracedStats.Seconds(), golden: golden, races: wl.races}
		if err := os.WriteFile(in.path, tr.Trace.Encode(), 0o644); err != nil {
			return nil, 0, 0, err
		}
		res, err := analyzeCall(in)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("reference analysis: %w", err)
		}
		in.ref = reportSet(res.Reports)
		cpu = append(cpu, (processCPU() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	if in.exec <= 0 {
		return nil, 0, 0, fmt.Errorf("trace of %s covers no execution time", wl.bug)
	}
	return in, median(cpu), median(wall), nil
}

// processCPU is the benchmark process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap samples the Go heap (live objects plus garbage not yet swept)
// every millisecond until the returned stop function is called, which
// returns the largest value seen.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// offlineEndToEnd runs `prorace analyze`'s analysis call back to back for
// the run's duration, each call from a collected heap and with a cold
// decoded-path cache, and checks every report set. Calls alternate between
// timed ones (CPU, wall time, allocation) and ones whose heap is sampled,
// so the sampler's own work never lands on the clock.
func offlineEndToEnd(cfg config) (*outcome, error) {
	in, setupCPU, setupWall, err := offlineSetup(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.put("setup_s", setupCPU, setupRepeats)
	o.putUngated("setup_wall_s", "s", setupWall, setupRepeats)
	var analyzeS, cpuMS, allocMB, peakMB []float64
	deadline := time.Now().Add(cfg.seconds)
	for o.attempted < 2 || time.Now().Before(deadline) {
		sampled := o.attempted%2 == 1
		// A CLI process starts with an empty heap; do not let the previous
		// call's garbage be collected on this call's clock.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var stop func() uint64
		if sampled {
			stop = sampleHeap()
		}
		cpu0, t0 := processCPU(), time.Now()
		res, err := analyzeCall(in)
		wall, cpu := time.Since(t0), processCPU()-cpu0
		var peak uint64
		if sampled {
			peak = stop()
		}
		runtime.ReadMemStats(&m1)
		o.attempted++
		if err != nil {
			o.fail(1, "analysis %d: %v", o.attempted, err)
			continue
		}
		if why := in.check(res.Reports); why != "" {
			o.correct = false
			o.fail(1, "analysis %d: %s", o.attempted, why)
		}
		if sampled {
			peakMB = append(peakMB, float64(peak)/mb)
			continue
		}
		analyzeS = append(analyzeS, wall.Seconds())
		cpuMS = append(cpuMS, ms(cpu))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/mb)
	}
	if len(analyzeS) == 0 || len(peakMB) == 0 {
		return nil, fmt.Errorf("no analysis succeeded: %v", o.notes)
	}
	// Figure 12's ratio in analysis CPU seconds: on a shared virtual
	// machine wall time follows the hypervisor's steal, CPU time much less.
	o.put("analysis_s_per_exec_s", median(cpuMS)/1e3/in.exec, len(cpuMS))
	o.put("alloc_mb", median(allocMB), len(allocMB))
	o.put("peak_heap_mb", median(peakMB), len(peakMB))
	o.putUngated("analyze_s", "s", median(analyzeS), len(analyzeS))
	o.putUngated("analyze_p90_s", "s", quantile(analyzeS, 0.9), len(analyzeS))
	o.notes = append(o.notes, fmt.Sprintf("trace seed %d: %d golden reports", in.golden.Seed, len(in.golden.Reports)))
	return o, nil
}
