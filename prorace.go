// Package prorace is a from-scratch reproduction of "ProRace: Practical
// Data Race Detection for Production Use" (Zhang, Jung, Lee — ASPLOS 2017):
// a sampling-based dynamic data race detector whose online phase traces a
// program with near-zero overhead using the hardware PMU (PEBS memory-access
// samples plus a PT control-flow trace and a synchronization log), and whose
// offline phase reconstructs unsampled memory accesses by replaying the
// binary forwards and backwards around each sample before running FastTrack
// happens-before detection on the extended trace.
//
// Because raw PEBS/PT hardware is not accessible (or portable) from Go, the
// reproduction runs on a deterministic simulated multicore machine executing
// a small RISC-style ISA with x86-like addressing modes; every layer the
// paper depends on — the PMU, the two kernel driver designs it compares,
// the perf tool, the LD_PRELOAD synchronization shim, the PT decoder, the
// replay engine, and the detector — is implemented in this module. See
// DESIGN.md for the substitution table and EXPERIMENTS.md for
// paper-vs-measured results of every table and figure.
//
// # Quick start
//
//	w := prorace.MustWorkload("apache", 1)
//	res, err := prorace.Run(w.Program, prorace.WithMachine(w.Machine))
//	if err != nil { ... }
//	fmt.Print(prorace.FormatRaces(w.Program, res.AnalysisResult.Reports))
//
// Trace, Analyze, Run and NewAnalyzer are the entry points, and all of
// them take functional options (options.go): WithPeriod, WithSeed,
// WithReplayMode, WithWorkers and friends. No options means full ProRace;
// the RaceZ baseline is WithDriver(VanillaDriver), WithoutPT() and
// WithReplayMode(ReplayBasicBlock). WithWorkers fans PT decoding and
// reconstruction out across a worker pool with race reports identical to
// the sequential analysis.
//
// Custom programs are assembled with NewProgram (see the builder aliases
// below) and run through the same pipeline; examples/ contains three
// complete programs.
//
// # Determinism
//
// The pipeline is deterministic end to end, and the guarantees are
// continuously enforced, not aspirational:
//
//   - online: a (program, seed) pair reproduces the traced execution
//     exactly — same interleaving, same samples, same trace bytes;
//   - offline: for a given trace, the reported race set is byte-identical
//     across every performance configuration — any WithWorkers count,
//     with or without WithPathCache — and WithStrict equals
//     the lenient default whenever the trace decodes cleanly.
//
// internal/oracle checks these invariants differentially: it generates
// random concurrent programs, records every memory access of the traced
// execution, computes the exact happens-before race set with a
// pair-complete detector, and requires the pipeline to report zero false
// positives at any period, every racy address at period=1, and identical
// reports across the configuration matrix. Run it with
//
//	go run ./cmd/experiments -exp oracle        # quick differential sweep
//	go run ./cmd/experiments -exp oracle -soak  # 200-seed soak
package prorace

import (
	"prorace/internal/asm"
	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/experiments"
	"prorace/internal/faultinject"
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/report"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
	"prorace/internal/workload"
)

// Core pipeline types.
type (
	// Program is an executable image for the simulated machine.
	Program = prog.Program
	// MachineConfig parameterises the simulated machine.
	MachineConfig = machine.Config
	// TraceResult is the online phase's outcome.
	TraceResult = core.TraceResult
	// AnalysisResult is the offline phase's outcome.
	AnalysisResult = core.AnalysisResult
	// Analyzer is a stateful, segment-resumable analysis session: Feed it
	// trace segments as they arrive, Snapshot it at any point, Finish it to
	// seal the run (see NewAnalyzer). Feeding a trace in
	// any number of segments yields reports byte-identical to one-shot
	// Analyze.
	Analyzer = core.Analyzer
	// TraceSegment is a contiguous chunk of one run's trace streams, as
	// produced by Trace.Split and consumed by Analyzer.Feed.
	TraceSegment = tracefmt.Trace
	// Result bundles a full pipeline run.
	Result = core.Result
	// Report is one detected data race.
	Report = race.Report
	// Degradation summarises everything a lenient analysis had to give up.
	Degradation = core.Degradation
	// ThreadError is one thread's isolated analysis failure.
	ThreadError = core.ThreadError
	// FaultSpec describes a deterministic set of trace faults to inject
	// before analysis (robustness testing).
	FaultSpec = faultinject.Spec
	// PathCache memoizes decoded PT paths across analyses of one trace
	// (see NewPathCache and WithPathCache).
	PathCache = synthesis.Cache
	// DriverKind selects the vanilla or ProRace PEBS driver model.
	DriverKind = driver.Kind
	// DriverCosts is a driver stack's cycle-cost model.
	DriverCosts = driver.Costs
	// ReplayMode selects the reconstruction algorithm.
	ReplayMode = replay.Mode
	// Workload is a runnable benchmark program.
	Workload = workload.Workload
	// Bug describes one of Table 2's planted races.
	Bug = bugs.Bug
	// BuiltBug is a constructed bug workload with ground truth.
	BuiltBug = bugs.Built
	// ExperimentConfig sizes the evaluation harness.
	ExperimentConfig = experiments.Config
	// Experiments regenerates the paper's tables and figures.
	Experiments = experiments.Harness
	// Telemetry is a metrics registry capturing the pipeline's counters,
	// gauges, histograms and stage spans (see NewTelemetry/WithTelemetry).
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a frozen view of a Telemetry registry, attached
	// to AnalysisResult.Telemetry when telemetry is enabled.
	TelemetrySnapshot = telemetry.Snapshot
	// MetricsServer is a live telemetry HTTP listener (see ServeMetrics).
	MetricsServer = telemetry.Server
	// Witness is a deterministic reproduction recipe for one race report:
	// program identity, machine configuration, optional PMU driver, the
	// expected racing pair, event-stream digests, and a minimized forced
	// scheduler-decision prefix. See WithWitnesses and ReadWitness.
	Witness = witness.Witness
	// WitnessSpec names the replayable program source a witness re-executes
	// (see BugWitnessSpec, WorkloadWitnessSpec, OracleWitnessSpec).
	WitnessSpec = witness.ProgSpec
	// WitnessOutcome is one report's generation result: the witness (nil if
	// none was found within budget), the rung that produced it, and the
	// replays spent.
	WitnessOutcome = witness.Outcome
	// WitnessReplay is the result of replaying a witness: OK, or a
	// human-readable drift list.
	WitnessReplay = witness.ReplayOutcome
)

// Driver kinds.
const (
	// VanillaDriver is the stock Linux PEBS driver model.
	VanillaDriver = driver.Vanilla
	// ProRaceDriver is the paper's redesigned driver.
	ProRaceDriver = driver.ProRace
)

// Replay modes.
const (
	// ReplayForwardBackward runs full ProRace reconstruction (§5.2), the
	// default.
	ReplayForwardBackward = replay.ModeForwardBackward
	// ReplayForward runs forward replay only (§5.1).
	ReplayForward = replay.ModeForward
	// ReplayBasicBlock confines reconstruction to each sample's basic
	// block (the RaceZ baseline).
	ReplayBasicBlock = replay.ModeBasicBlock
)

// Trace runs the online phase: execute the program on the simulated
// machine under the configured driver, collecting PEBS, PT and sync traces.
func Trace(p *Program, opts ...Option) (*TraceResult, error) {
	return core.TraceProgram(p, newOptions(opts...).trace)
}

// Analyze runs the offline phase over a collected trace: PT decode and
// synthesis, memory-access reconstruction, and FastTrack detection. It is
// a thin wrapper over a single-segment Analyzer session — the same code
// path streamed ingest takes — sequential by default; WithWorkers fans
// synthesis and reconstruction out across a worker pool.
func Analyze(p *Program, tr *TraceResult, opts ...Option) (*AnalysisResult, error) {
	a, err := NewAnalyzer(p, opts...)
	if err != nil {
		return nil, err
	}
	if err := a.Feed(tr.Trace); err != nil {
		return nil, err
	}
	return a.Finish()
}

// NewAnalyzer opens a segment-resumable analysis session for one traced
// program: Feed it the run's trace in segments as they arrive (any cut
// points — see TraceSegment), read intermediate results with Snapshot, and
// seal it with Finish. The reports are byte-identical to one-shot Analyze
// over the concatenated trace at every WithWorkers/WithPathCache setting.
func NewAnalyzer(p *Program, opts ...Option) (*Analyzer, error) {
	return core.NewAnalyzer(p, newOptions(opts...).analysis)
}

// Run executes the complete pipeline.
func Run(p *Program, opts ...Option) (*Result, error) {
	c := newOptions(opts...)
	return core.Run(p, c.trace, c.analysis)
}

// PARSEC returns the 13 CPU-bound benchmark workloads.
func PARSEC(scale int) []Workload { return workload.PARSEC(workload.Scale(scale)) }

// RealApps returns the eight real-application models of Table 1.
func RealApps(scale int) []Workload { return workload.RealApps(workload.Scale(scale)) }

// Workloads returns every built-in workload.
func Workloads(scale int) []Workload { return workload.All(workload.Scale(scale)) }

// WorkloadByName finds a built-in workload.
func WorkloadByName(name string, scale int) (Workload, error) {
	return workload.ByName(name, workload.Scale(scale))
}

// MustWorkload is WorkloadByName for known names; it panics otherwise.
func MustWorkload(name string, scale int) Workload {
	w, err := workload.ByName(name, workload.Scale(scale))
	if err != nil {
		panic(err)
	}
	return w
}

// WorkloadNames lists the built-in workload names.
func WorkloadNames() []string { return workload.Names() }

// Bugs returns the 12 planted races of the paper's Table 2.
func Bugs() []Bug { return bugs.All() }

// BugByID finds a Table 2 bug by its identifier (e.g. "apache-25520").
func BugByID(id string) (Bug, error) { return bugs.ByID(id) }

// BugWitnessSpec identifies a Table-2 bug program for witness generation.
func BugWitnessSpec(id string, scale int) WitnessSpec { return witness.BugSpec(id, scale) }

// WorkloadWitnessSpec identifies a built-in workload program for witness
// generation.
func WorkloadWitnessSpec(name string, scale int) WitnessSpec {
	return witness.WorkloadSpec(name, scale)
}

// OracleWitnessSpec identifies a generated differential-oracle program by
// its generator seed.
func OracleWitnessSpec(seed int64) WitnessSpec { return witness.OracleSpec(seed) }

// ReadWitness loads and decodes a witness file (the prorace-witness text
// format; see DecodeWitness for parsing bytes directly). Replay it with
// Witness.ReplayResolved, or from the command line with
// `prorace reproduce <file>`.
func ReadWitness(path string) (*Witness, error) { return witness.ReadFile(path) }

// DecodeWitness parses the versioned, checksummed prorace-witness text
// format. Corrupt or truncated input errors; it never replays a wrong
// schedule.
func DecodeWitness(data []byte) (*Witness, error) { return witness.Decode(data) }

// NewPathCache returns a decoded-path cache holding up to capacity traces.
// Pass it with WithPathCache to analyses that re-analyse one trace, so
// they decode it only once; without it every analysis decodes afresh.
func NewPathCache(capacity int) *PathCache { return synthesis.NewCache(capacity) }

// ParseFaultSpec parses a fault-injection spec of the form
// "kind=rate,kind=rate[:seed=N]" (kinds: trunc, ptflip, ptdrop, pebsloss,
// syncgap, torn); "" and "none" mean no injection.
func ParseFaultSpec(s string) (*FaultSpec, error) { return faultinject.Parse(s) }

// FormatRaces renders race reports with symbol names.
func FormatRaces(p *Program, rs []Report) string { return report.FormatRaces(p, rs) }

// FormatRace renders one race report with symbol names.
func FormatRace(p *Program, r Report) string { return report.FormatRace(p, r) }

// NewTelemetry returns an empty metrics registry. Pass it to runs via
// WithTelemetry; every pipeline stage then publishes its prorace_* series and stage spans into it.
// Expose it with ServeMetrics, render it with its WritePrometheus /
// WriteJSON / WriteTimeline methods, or read AnalysisResult.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ServeMetrics starts an HTTP listener on addr (e.g. "localhost:9100",
// or ":0" for an ephemeral port — see Server.Addr) serving reg's
// Prometheus text at /metrics, expvar-style JSON at /debug/vars, a
// chrome://tracing timeline at /timeline, and net/http/pprof under
// /debug/pprof/. Close the returned server to release the port.
func ServeMetrics(addr string, reg *Telemetry) (*MetricsServer, error) {
	return telemetry.Serve(addr, reg)
}

// NewExperiments creates the evaluation harness that regenerates the
// paper's tables and figures.
func NewExperiments(cfg ExperimentConfig) *Experiments { return experiments.NewHarness(cfg) }

// QuickExperiments returns a configuration small enough for tests.
func QuickExperiments() ExperimentConfig { return experiments.Quick() }

// FullExperiments returns the paper-scale configuration.
func FullExperiments() ExperimentConfig { return experiments.Full() }

// Program construction. NewProgram returns an assembler for building
// custom programs; see examples/quickstart for a complete racy program
// built this way.
type (
	// Builder assembles a program.
	Builder = asm.Builder
	// FuncBuilder emits instructions for one function.
	FuncBuilder = asm.FuncBuilder
	// Mem describes a memory operand.
	Mem = asm.Mem
	// Reg names a machine register (R0..R15).
	Reg = isa.Reg
)

// NewProgram returns a Builder for a custom program.
func NewProgram(name string) *Builder { return asm.New(name) }

// Memory operand constructors.
var (
	// MemBase addresses [reg + disp].
	MemBase = asm.Base
	// MemBaseIndex addresses [base + index*scale + disp].
	MemBaseIndex = asm.BaseIndex
	// MemGlobal addresses a named global PC-relatively.
	MemGlobal = asm.Global
	// MemAbs addresses an absolute location.
	MemAbs = asm.Abs
)

// General-purpose registers.
const (
	R0  = isa.R0
	R1  = isa.R1
	R2  = isa.R2
	R3  = isa.R3
	R4  = isa.R4
	R5  = isa.R5
	R6  = isa.R6
	R7  = isa.R7
	R8  = isa.R8
	R9  = isa.R9
	R10 = isa.R10
	R11 = isa.R11
	R12 = isa.R12
	R13 = isa.R13
	R14 = isa.R14
	R15 = isa.R15
)
