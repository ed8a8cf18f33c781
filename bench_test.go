package prorace

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§7) plus ablations of the design decisions DESIGN.md calls
// out. Each per-artifact benchmark runs the corresponding experiment on a
// representative subset (for speed) and reports the headline series via
// b.ReportMetric, so `go test -bench=.` prints the same rows the paper
// reports; `go run ./cmd/experiments -full` regenerates the complete
// artifacts.

import (
	"fmt"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/experiments"
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/ptdecode"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// benchConfig returns a reduced experiment configuration sized for
// benchmarking: a representative workload per class and three periods.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Periods = []uint64{100, 1000, 10000}
	cfg.Workloads = []string{
		"blackscholes", "canneal", "streamcluster", // PARSEC: compute/pointer/stream
		"apache", "mysql", "pbzip2", // real: net/mixed/cpu
	}
	cfg.BugSubset = []string{"apache-21287", "mysql-3596", "pfscan"}
	cfg.Table2Trials = 5
	return cfg
}

// BenchmarkTable1 regenerates the evaluation-setup table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1(1) == "" {
			b.Fatal("empty table")
		}
	}
}

func reportOverheadSeries(b *testing.B, fig interface {
	Render() string
}, periods []uint64, geomean []float64) {
	for i, p := range periods {
		b.ReportMetric(geomean[i]*100, fmt.Sprintf("ovh%%@P=%d", p))
	}
	if fig.Render() == "" {
		b.Fatal("empty render")
	}
}

// BenchmarkFigure6 regenerates the PARSEC overhead series (paper: 4%, 7%,
// 13%, 2.85x, 7.52x for periods 100K..10).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		fig, err := h.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheadSeries(b, fig, fig.Periods, fig.Geomean)
	}
}

// BenchmarkFigure7 regenerates the real-application overhead series
// (paper: 0.8%, 2.6%, 8%, 34%, 80%).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		fig, err := h.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		reportOverheadSeries(b, fig, fig.Periods, fig.Geomean)
	}
}

// BenchmarkFigure8 regenerates the PARSEC trace-rate series (paper: 26,
// 69, 132, 597, 463 MB/s — with the period-10 inversion from drops).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		fig, err := h.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range fig.Periods {
			b.ReportMetric(fig.Geomean[j], fmt.Sprintf("MB/s@P=%d", p))
		}
	}
}

// BenchmarkFigure9 regenerates the real-application trace-rate series
// (paper: 0.2, 1.2, 7.9, 40.8, 99.5 MB/s).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		fig, err := h.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range fig.Periods {
			b.ReportMetric(fig.Geomean[j], fmt.Sprintf("MB/s@P=%d", p))
		}
	}
}

// BenchmarkFigure10 regenerates the driver comparison (paper anchors: 50x
// vanilla vs 7.5x ProRace at period 10; 20% vs 4% at 100K).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		fig, err := h.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range fig.Periods {
			b.ReportMetric(fig.ParsecVanilla[j]*100, fmt.Sprintf("vanilla%%@P=%d", p))
			b.ReportMetric(fig.ParsecProRace[j]*100, fmt.Sprintf("prorace%%@P=%d", p))
		}
	}
}

// BenchmarkTable2 regenerates the detection-probability table (paper:
// ProRace 27.5% average at 10K vs RaceZ 0.2%; PC-relative bugs at 100%).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		res, err := h.Table2()
		if err != nil {
			b.Fatal(err)
		}
		avgP, avgZ := res.Average("prorace"), res.Average("racez")
		for _, p := range res.Periods {
			b.ReportMetric(avgP[p]*100, fmt.Sprintf("prorace%%@P=%d", p))
			b.ReportMetric(avgZ[p]*100, fmt.Sprintf("racez%%@P=%d", p))
		}
	}
}

// BenchmarkFigure11 regenerates the memory-recovery-ratio comparison
// (paper: basic-block ~5.4x, forward ~34x, forward+backward ~64x).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		res, err := h.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgBB, "x_basicblock")
		b.ReportMetric(res.AvgFwd, "x_forward")
		b.ReportMetric(res.AvgFB, "x_fwd+bwd")
	}
}

// BenchmarkFigure12 regenerates the offline-analysis-cost breakdown
// (paper: decode 33.7%, reconstruction 64.7%, detection 1.6%).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(benchConfig())
		res, err := h.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DecodeFrac*100, "decode%")
		b.ReportMetric(res.ReconstructFrac*100, "reconstruct%")
		b.ReportMetric(res.DetectFrac*100, "detect%")
	}
}

// --- Ablations of DESIGN.md §5's design decisions ---

// benchWorkload is a small CPU-bound program for driver ablations.
func ablationWorkload() workload.Workload { return workload.PARSEC(1)[0] }

func measureOverhead(b *testing.B, w workload.Workload, costs *driver.Costs) float64 {
	b.Helper()
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true,
		MeasureOverhead: true, Machine: w.Machine, Costs: costs,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Overhead
}

// BenchmarkAblationDriverMetadataSkip isolates the ProRace driver's
// metadata-processing elimination: re-enabling the vanilla per-sample
// kernel work on the otherwise-ProRace stack.
func BenchmarkAblationDriverMetadataSkip(b *testing.B) {
	w := ablationWorkload()
	for i := 0; i < b.N; i++ {
		with := measureOverhead(b, w, nil)
		costs := driver.DefaultCosts(driver.ProRace)
		costs.PerSampleKernel = driver.DefaultCosts(driver.Vanilla).PerSampleKernel
		without := measureOverhead(b, w, &costs)
		b.ReportMetric(with*100, "skip_on_ovh%")
		b.ReportMetric(without*100, "skip_off_ovh%")
	}
}

// BenchmarkAblationDriverCopyElimination isolates the kernel-to-user copy
// elimination of the single aux-buffer design.
func BenchmarkAblationDriverCopyElimination(b *testing.B) {
	w := ablationWorkload()
	for i := 0; i < b.N; i++ {
		with := measureOverhead(b, w, nil)
		costs := driver.DefaultCosts(driver.ProRace)
		costs.CopyPerByte = driver.DefaultCosts(driver.Vanilla).CopyPerByte
		without := measureOverhead(b, w, &costs)
		b.ReportMetric(with*100, "nocopy_on_ovh%")
		b.ReportMetric(without*100, "nocopy_off_ovh%")
	}
}

// BenchmarkAblationRandomPhase measures the sampling-diversity feature:
// detection probability of a Table 2 bug with and without the randomised
// first sampling period.
func BenchmarkAblationRandomPhase(b *testing.B) {
	bug, err := bugs.ByID("apache-21287")
	if err != nil {
		b.Fatal(err)
	}
	built := bug.Build(1)
	for i := 0; i < b.N; i++ {
		count := func(disable bool) int {
			hits := 0
			for seed := int64(1); seed <= 8; seed++ {
				res, err := core.Run(built.Workload.Program,
					core.TraceOptions{Kind: driver.ProRace, Period: 1000, Seed: seed,
						EnablePT: true, Machine: built.Workload.Machine,
						DisableRandomFirstPeriod: disable},
					core.AnalysisOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if built.Detected(res.AnalysisResult.Reports) {
					hits++
				}
			}
			return hits
		}
		b.ReportMetric(float64(count(false))/8*100, "random%")
		b.ReportMetric(float64(count(true))/8*100, "fixed%")
	}
}

// BenchmarkAblationMemoryEmulation measures the §5.1 program-map memory
// emulation's contribution to recovery.
func BenchmarkAblationMemoryEmulation(b *testing.B) {
	w := workload.MySQL(1)
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 10000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		with, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{DisableMemoryEmulation: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.ReplayStats.RecoveryRatio(), "x_with_mem")
		b.ReportMetric(without.ReplayStats.RecoveryRatio(), "x_without_mem")
	}
}

// BenchmarkAblationAllocationTracking shows the §4.3 address-reuse false
// positive appearing when malloc/free generation tracking is disabled.
func BenchmarkAblationAllocationTracking(b *testing.B) {
	// A workload where one thread frees an object and another reuses the
	// address: see race package tests for the unit-level version; here the
	// full pipeline runs on a synthetic reuse workload.
	p := buildReuseWorkload()
	for i := 0; i < b.N; i++ {
		with, err := core.Run(p,
			core.TraceOptions{Kind: driver.ProRace, Period: 50, Seed: 2, EnablePT: true},
			core.AnalysisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Run(p,
			core.TraceOptions{Kind: driver.ProRace, Period: 50, Seed: 2, EnablePT: true},
			core.AnalysisOptions{DisableAllocationTracking: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(with.AnalysisResult.Reports)), "races_tracked")
		b.ReportMetric(float64(len(without.AnalysisResult.Reports)), "races_untracked")
	}
}

// buildReuseWorkload: thread 1 writes an object then frees it; thread 2
// mallocs (reusing the address) and writes. Join edges order everything:
// the only "race" a detector can report is the address-reuse false
// positive.
func buildReuseWorkload() *Program {
	b := NewProgram("reuse")
	b.Global("tids", 16)
	m := b.Func("main")
	m.MovI(R4, 0)
	m.SpawnThread("first", R4)
	m.Store(MemGlobal("tids", 0), R0)
	m.MovI(R4, 1)
	m.SpawnThread("second", R4)
	m.Store(MemGlobal("tids", 8), R0)
	m.Load(R0, MemGlobal("tids", 0))
	m.Join(R0)
	m.Load(R0, MemGlobal("tids", 8))
	m.Join(R0)
	m.Exit(0)
	// first: allocate, write, free — all early in the run.
	f1 := b.Func("first")
	f1.MovI(R0, 64)
	f1.Syscall(isa.SysMalloc)
	f1.Mov(R9, R0)
	f1.MovI(R3, 40)
	f1.Label("w")
	f1.Store(MemBase(R9, 8), R3)
	f1.SubI(R3, 1)
	f1.CmpI(R3, 0)
	f1.Jgt("w")
	f1.Mov(R0, R9)
	f1.Syscall(isa.SysFree)
	f1.Exit(0)
	// second: spin first, so its malloc (concurrent with first, no HB
	// edge between them) reuses the freed address, then write — the §4.3
	// address-reuse scenario.
	f2 := b.Func("second")
	f2.MovI(R3, 3000)
	f2.Label("spin")
	f2.SubI(R3, 1)
	f2.CmpI(R3, 0)
	f2.Jgt("spin")
	f2.MovI(R0, 64)
	f2.Syscall(isa.SysMalloc) // reuses the freed address
	f2.Mov(R9, R0)
	f2.MovI(R3, 40)
	f2.Label("w")
	f2.Store(MemBase(R9, 8), R3)
	f2.SubI(R3, 1)
	f2.CmpI(R3, 0)
	f2.Jgt("w")
	f2.Exit(0)
	return mustBuild(b)
}

// BenchmarkAblationPTGuidance compares reconstruction with the PT path
// (forward replay across basic blocks) against the blockbound baseline —
// the value of control-flow tracing itself.
func BenchmarkAblationPTGuidance(b *testing.B) {
	w := workload.Apache(1)
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 10000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		guided, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{Mode: replay.ModeForward})
		if err != nil {
			b.Fatal(err)
		}
		blockbound, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{Mode: replay.ModeBasicBlock})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(guided.ReplayStats.RecoveryRatio(), "x_pt_guided")
		b.ReportMetric(blockbound.ReplayStats.RecoveryRatio(), "x_blockbound")
	}
}

// --- Microbenchmarks of the substrate ---

// BenchmarkMachineExecution measures raw simulation throughput.
func BenchmarkMachineExecution(b *testing.B) {
	w := ablationWorkload()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		cfg := w.Machine
		cfg.Seed = int64(i)
		m := machine.New(w.Program, cfg)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		retired = st.Retired
	}
	b.ReportMetric(float64(retired), "instructions/op")
}

// BenchmarkOnlineTracing measures the full online phase (machine + driver).
func BenchmarkOnlineTracing(b *testing.B) {
	w := ablationWorkload()
	for i := 0; i < b.N; i++ {
		_, err := core.TraceProgram(w.Program, core.TraceOptions{
			Kind: driver.ProRace, Period: 1000, Seed: int64(i), EnablePT: true, Machine: w.Machine})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPTDecode measures path reconstruction throughput.
func BenchmarkPTDecode(b *testing.B) {
	w := ablationWorkload()
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		paths, err := ptdecode.DecodeAll(w.Program, res.Trace.PT, 0)
		if err != nil {
			b.Fatal(err)
		}
		steps = 0
		for _, p := range paths {
			steps += p.Len()
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}

// BenchmarkReplayForwardBackward measures the reconstruction engine.
func BenchmarkReplayForwardBackward(b *testing.B) {
	w := ablationWorkload()
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	tts, err := synthesis.SynthesizeWith(w.Program, res.Trace, synthesis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engine := replay.NewEngine(w.Program, replay.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := engine.ReconstructAll(tts)
		if st.Total() == 0 {
			b.Fatal("nothing reconstructed")
		}
	}
}

// BenchmarkFastTrackDetection measures the detector over a prepared
// extended trace.
func BenchmarkFastTrackDetection(b *testing.B) {
	w := ablationWorkload()
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	tts, err := synthesis.SynthesizeWith(w.Program, res.Trace, synthesis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engine := replay.NewEngine(w.Program, replay.Config{})
	accesses, _ := engine.ReconstructAll(tts)
	n := 0
	for _, a := range accesses {
		n += len(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := race.Detect(res.Trace.Sync, accesses, race.Options{TrackAllocations: true})
		_ = d.Reports()
	}
	b.ReportMetric(float64(n), "accesses/op")
}

// BenchmarkTraceEncodeDecode measures the trace container round trip.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	w := ablationWorkload()
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 100, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Trace.Encode())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := res.Trace.Encode()
		if _, err := tracefmt.DecodeTrace(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelatedWork regenerates the §2 comparison across LiteRace,
// Pacer, DataCollider, RaceZ and ProRace (paper anchors: LiteRace 1.47x,
// Pacer 1.86x at 3%, DataCollider low overhead/low coverage).
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Workloads = []string{"streamcluster"}
		cfg.Table2Trials = 4
		h := experiments.NewHarness(cfg)
		res, err := h.RelatedWork()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.CPUOverhead*100, row.System+"_cpu%")
			b.ReportMetric(row.Detection*100, row.System+"_det%")
		}
	}
}

// BenchmarkParallelAnalysis measures the §7.6 parallelisation of the
// offline phase: sequential vs worker-pool decode+reconstruction on the
// 20-thread mysql trace. Each sub-benchmark has its own decoded-path
// cache, so iterations past the first hit it, as in -exp perf.
func BenchmarkParallelAnalysis(b *testing.B) {
	w := workload.MySQL(1)
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	run := func(opts core.AnalysisOptions) func(*testing.B) {
		return func(b *testing.B) {
			opts.PathCache = synthesis.NewCache(synthesis.DefaultCacheCapacity)
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(w.Program, tr.Trace, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", run(core.AnalysisOptions{}))
	b.Run("workers", run(core.AnalysisOptions{Workers: -1}))
}

// benchAnalyzeTelemetry is the shared body of the telemetry cost pair:
// one full analysis per iteration over a fixed mysql trace, with its own
// decoded-path cache as in -exp perf.
func benchAnalyzeTelemetry(b *testing.B, opts core.AnalysisOptions) {
	w := workload.MySQL(1)
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	opts.PathCache = synthesis.NewCache(synthesis.DefaultCacheCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(w.Program, tr.Trace, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTelemetryOff is the disabled-telemetry baseline: nil
// registry, nil metric handles, zero extra allocations on the hot paths
// (the contract the AllocsPerRun guards in internal/replay and
// internal/race enforce). Compare against BenchmarkAnalyzeTelemetryOn to
// price the observability; cmd/experiments -exp perf records the pair to
// the BENCH json artifact.
func BenchmarkAnalyzeTelemetryOff(b *testing.B) {
	benchAnalyzeTelemetry(b, core.AnalysisOptions{})
}

// BenchmarkAnalyzeTelemetryOn runs the same analysis publishing into a
// live registry: per-thread counter batches, stage spans, and one snapshot
// per analysis.
func BenchmarkAnalyzeTelemetryOn(b *testing.B) {
	benchAnalyzeTelemetry(b, core.AnalysisOptions{Telemetry: telemetry.New()})
}

// BenchmarkDetection measures the detect phase alone: sequential FastTrack
// over a prepared extended trace.
func BenchmarkDetection(b *testing.B) {
	w := workload.MySQL(1)
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 500, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	tts, err := synthesis.SynthesizeWith(w.Program, res.Trace, synthesis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engine := replay.NewEngine(w.Program, replay.Config{})
	accesses, _ := engine.ReconstructAll(tts)
	n := 0
	for _, a := range accesses {
		n += len(a)
	}
	for i := 0; i < b.N; i++ {
		race.Detect(res.Trace.Sync, accesses, race.Options{TrackAllocations: true})
	}
	b.ReportMetric(float64(n), "accesses/op")
}
