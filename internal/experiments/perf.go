package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/ptdecode"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/report"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/workload"
)

// The perf experiment re-runs the offline pipeline's key benchmarks —
// the same bodies as the root package's BenchmarkParallelAnalysis,
// BenchmarkReplayForwardBackward, BenchmarkPTDecode and
// BenchmarkDetection — through testing.Benchmark, and writes the
// measurements next to a pinned pre-optimisation baseline so the
// allocation-lean work (decoded-path cache, pooled replay state) stays
// accountable: ns/op and allocs/op, current vs baseline, with the speedup
// factors computed.

// PerfBench is one benchmark measurement.
type PerfBench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PerfRow pairs a current measurement with its pre-optimisation baseline.
type PerfRow struct {
	Current PerfBench `json:"current"`
	// Baseline is the same benchmark at the commit before the
	// allocation-lean rework, measured on the development machine
	// (Xeon @ 2.10GHz); zero when no baseline was pinned.
	Baseline *PerfBench `json:"baseline,omitempty"`
	// Speedup is baseline ns/op over current ns/op (>1 means faster).
	Speedup float64 `json:"speedup,omitempty"`
	// AllocReduction is baseline allocs/op over current allocs/op.
	AllocReduction float64 `json:"alloc_reduction,omitempty"`
}

// PerfResult is the full suite: one row per benchmark, in run order.
type PerfResult struct {
	Rows []PerfRow `json:"benchmarks"`
}

// perfBaselines pins the pre-optimisation numbers (benchtime=5x on the
// development machine) the speedup columns divide against.
var perfBaselines = map[string]PerfBench{
	"parallel_analysis/sequential": {NsPerOp: 527029049, BytesPerOp: 254526369, AllocsPerOp: 190447},
	"parallel_analysis/workers":    {NsPerOp: 547211853, BytesPerOp: 254526376, AllocsPerOp: 190447},
	"replay_forward_backward":      {NsPerOp: 168230746, BytesPerOp: 19228368, AllocsPerOp: 12543},
	"pt_decode":                    {NsPerOp: 24869778, BytesPerOp: 67692408, AllocsPerOp: 3394},
	"detection":                    {NsPerOp: 14550595, BytesPerOp: 3527972, AllocsPerOp: 4133},
}

// Perf runs the suite. Each benchmark is auto-scaled by testing.Benchmark
// (about a second each), so a full run takes tens of seconds.
func (h *Harness) Perf() (*PerfResult, error) {
	res := &PerfResult{}
	add := func(name string, f func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		row := PerfRow{Current: PerfBench{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}}
		if base, ok := perfBaselines[name]; ok {
			base.Name = name
			row.Baseline = &base
			if row.Current.NsPerOp > 0 {
				row.Speedup = base.NsPerOp / row.Current.NsPerOp
			}
			if row.Current.AllocsPerOp > 0 {
				row.AllocReduction = float64(base.AllocsPerOp) / float64(row.Current.AllocsPerOp)
			}
		}
		res.Rows = append(res.Rows, row)
	}

	// parallel_analysis — BenchmarkParallelAnalysis: the full offline
	// pipeline over the 20-thread mysql trace, sequential vs fanned out.
	// Iterations past the first hit the decoded-path cache, exactly as
	// repeated analyses of one trace do in production use.
	mysql := workload.MySQL(1)
	mysqlTrace, err := core.TraceProgram(mysql.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: mysql.Machine})
	if err != nil {
		return nil, err
	}
	analysis := func(opts core.AnalysisOptions) func(b *testing.B) {
		return func(b *testing.B) {
			opts.PathCache = synthesis.NewCache(synthesis.DefaultCacheCapacity)
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(mysql.Program, mysqlTrace.Trace, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	add("parallel_analysis/sequential", analysis(core.AnalysisOptions{}))
	add("parallel_analysis/workers", analysis(core.AnalysisOptions{Workers: -1}))

	// segmented_analysis — the session API's cost contract: feeding the
	// trace as 8 segments through an Analyzer (merge + one deferred
	// analysis at Finish) vs the identical one-shot Analyze. The results
	// are byte-identical (the equivalence matrix proves it); this row
	// prices the segment accounting and re-merge the daemon path adds.
	add("segmented_analysis/oneshot", analysis(core.AnalysisOptions{}))
	segments := mysqlTrace.Trace.Split(8)
	add("segmented_analysis/segments=8", func(b *testing.B) {
		opts := core.AnalysisOptions{PathCache: synthesis.NewCache(synthesis.DefaultCacheCapacity)}
		for i := 0; i < b.N; i++ {
			a, err := core.NewAnalyzer(mysql.Program, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, seg := range segments {
				if err := a.Feed(seg); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := a.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// analyze_telemetry — BenchmarkAnalyzeTelemetryOff/On: the same full
	// analysis with telemetry disabled (nil registry — must match
	// parallel_analysis/sequential, the 0-extra-cost contract) vs
	// publishing every stage's series into a live registry (the enabled
	// overhead, dominated by one snapshot per analysis).
	add("analyze_telemetry/off", analysis(core.AnalysisOptions{}))
	add("analyze_telemetry/on", analysis(core.AnalysisOptions{Telemetry: telemetry.New()}))

	// replay_forward_backward — BenchmarkReplayForwardBackward: the
	// reconstruction engine alone, synthesis prebuilt.
	bs := workload.PARSEC(1)[0]
	bsTrace, err := core.TraceProgram(bs.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: bs.Machine})
	if err != nil {
		return nil, err
	}
	bsTTS, err := synthesis.SynthesizeWith(bs.Program, bsTrace.Trace, synthesis.Options{})
	if err != nil {
		return nil, err
	}
	engine := replay.NewEngine(bs.Program, replay.Config{})
	add("replay_forward_backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st := engine.ReconstructAll(bsTTS)
			if st.Total() == 0 {
				b.Fatal("nothing reconstructed")
			}
		}
	})

	// pt_decode — BenchmarkPTDecode: raw decode throughput, uncached.
	add("pt_decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ptdecode.DecodeAll(bs.Program, bsTrace.Trace.PT, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	// detection — BenchmarkDetection: the detect phase over a prepared
	// extended trace.
	detTrace, err := core.TraceProgram(mysql.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 500, Seed: 3, EnablePT: true, Machine: mysql.Machine})
	if err != nil {
		return nil, err
	}
	detTTS, err := synthesis.SynthesizeWith(mysql.Program, detTrace.Trace, synthesis.Options{})
	if err != nil {
		return nil, err
	}
	detEngine := replay.NewEngine(mysql.Program, replay.Config{})
	accesses, _ := detEngine.ReconstructAll(detTTS)
	add("detection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			race.Detect(detTrace.Trace.Sync, accesses, race.Options{TrackAllocations: true})
		}
	})
	return res, nil
}

// WriteJSON records the suite at path, indented for diffing.
func (r *PerfResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render formats the measurements against their baselines.
func (r *PerfResult) Render() string {
	t := report.NewTable("offline pipeline performance (vs pre-optimisation baseline)",
		"benchmark", "ns/op", "allocs/op", "base ns/op", "base allocs", "speedup", "allocs÷")
	for _, row := range r.Rows {
		c := row.Current
		if row.Baseline == nil {
			t.AddRow(c.Name, fmt.Sprintf("%.0f", c.NsPerOp), c.AllocsPerOp, "-", "-", "-", "-")
			continue
		}
		t.AddRow(c.Name, fmt.Sprintf("%.0f", c.NsPerOp), c.AllocsPerOp,
			fmt.Sprintf("%.0f", row.Baseline.NsPerOp), row.Baseline.AllocsPerOp,
			fmt.Sprintf("%.2fx", row.Speedup), fmt.Sprintf("%.2fx", row.AllocReduction))
	}
	return t.String()
}
