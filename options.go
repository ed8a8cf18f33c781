package prorace

// This file is the package's functional-options surface: one Option type
// covers both pipeline phases, so callers compose a configuration from
// named constructors instead of hand-assembling TraceOptions /
// AnalysisOptions structs and their Disable* booleans.
//
//	res, err := prorace.RunWith(w.Program,
//		prorace.WithMachine(w.Machine),
//		prorace.WithPeriod(1000),
//		prorace.WithSeed(7),
//		prorace.WithWorkers(-1),
//	)
//
// NewOptions expands an option list over the standard ProRace defaults
// (redesigned driver, PT enabled, period 10000, full forward+backward
// reconstruction); TraceWith / AnalyzeWith / RunWith apply it in one call.
//
// Performance options never change results: WithWorkers, WithShadowTable,
// WithPathCache and WithoutPathCache all produce byte-identical race
// reports for a given trace (see the
// package's Determinism section; the guarantee is enforced by
// internal/oracle's metamorphic matrix).

// Option configures one pipeline run, spanning the online tracing phase
// and the offline analysis phase.
type Option func(*TraceOptions, *AnalysisOptions)

// NewOptions expands opts over the standard ProRace configuration and
// returns the two phase-option structs the explicit entry points take.
func NewOptions(opts ...Option) (TraceOptions, AnalysisOptions) {
	topts := TraceOptions{Kind: ProRaceDriver, Period: 10000, Seed: 1, EnablePT: true}
	aopts := AnalysisOptions{Mode: ReplayForwardBackward}
	for _, o := range opts {
		o(&topts, &aopts)
	}
	if aopts.Witnesses != nil {
		// Witness generation re-executes the traced run, so it inherits the
		// online configuration regardless of option order.
		aopts.Witnesses.Machine = topts.Machine
		aopts.Witnesses.DriverKind = topts.Kind
		aopts.Witnesses.EnablePT = topts.EnablePT
	}
	return topts, aopts
}

// WithMachine overrides the simulated machine configuration (cores, I/O
// latencies...).
func WithMachine(cfg MachineConfig) Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.Machine = cfg }
}

// WithPeriod sets the PEBS sampling period.
func WithPeriod(period uint64) Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.Period = period }
}

// WithSeed sets the scheduler seed; a (program, seed) pair reproduces
// exactly.
func WithSeed(seed int64) Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.Seed = seed }
}

// WithDriver selects the PEBS driver model (ProRaceDriver or
// VanillaDriver).
func WithDriver(kind DriverKind) Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.Kind = kind }
}

// WithDriverCosts overrides the driver stack's cycle-cost model.
func WithDriverCosts(costs DriverCosts) Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.Costs = &costs }
}

// WithoutPT turns off control-flow tracing (on by default).
func WithoutPT() Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.EnablePT = false }
}

// WithOverheadMeasurement additionally executes an untraced baseline run
// with the same seed, so TraceResult.Overhead can be reported.
func WithOverheadMeasurement() Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.MeasureOverhead = true }
}

// WithoutRandomFirstPeriod disables the ProRace driver's sampling-phase
// randomisation (ablation).
func WithoutRandomFirstPeriod() Option {
	return func(t *TraceOptions, _ *AnalysisOptions) { t.DisableRandomFirstPeriod = true }
}

// WithReplayMode selects the reconstruction algorithm (default
// ReplayForwardBackward, full ProRace).
func WithReplayMode(m ReplayMode) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.Mode = m }
}

// WithWorkers fans PT decoding and replay reconstruction out across a
// worker pool, one thread at a time; detection stays sequential:
// 0 = sequential, negative = GOMAXPROCS, n > 0 = n workers.
func WithWorkers(n int) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.Workers = n }
}

// WithShadowTable pre-sizes the detector's flat shadow table for the
// expected number of distinct variables (addresses × allocation
// generations), avoiding growth-and-reinsert cycles on million-variable
// traces. 0 starts small and grows on demand; the hint never changes
// results.
func WithShadowTable(variables int) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.ShadowCapacityHint = variables }
}

// WithMaxReports bounds the race report list.
func WithMaxReports(n int) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.MaxReports = n }
}

// WithoutMemoryEmulation turns off the §5.1 program-map memory emulation
// (ablation).
func WithoutMemoryEmulation() Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.DisableMemoryEmulation = true }
}

// WithoutRaceFeedback turns off the §5.1 invalidate-and-regenerate loop
// for racy emulated locations (ablation).
func WithoutRaceFeedback() Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.DisableRaceFeedback = true }
}

// WithoutAllocationTracking turns off malloc/free generation tracking
// (ablation; reintroduces the §4.3 address-reuse false positive).
func WithoutAllocationTracking() Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.DisableAllocationTracking = true }
}

// WithStrict makes the offline phase abort on the first decode error or
// thread failure instead of degrading gracefully. The library default is
// lenient: corrupt PT regions are skipped (recorded as decode gaps),
// failing threads are dropped with their sync records retained, and
// everything given up is accounted in AnalysisResult.Degradation.
func WithStrict() Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.Strict = true }
}

// WithFaultInjection deterministically corrupts the collected trace before
// analysis — the robustness-testing hook. A nil spec is a no-op.
func WithFaultInjection(spec *FaultSpec) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.FaultSpec = spec }
}

// WithPathCache routes the analysis's decoded-path lookups through cache
// instead of the shared process-wide default, isolating its contents (and
// hit/miss counters) to the analyses that share it.
func WithPathCache(cache *PathCache) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.PathCache = cache }
}

// WithoutPathCache disables decoded-path memoization: every analysis
// re-decodes PT and re-synthesises thread paths from scratch (ablation, and
// the honest configuration for decode-cost measurements).
func WithoutPathCache() Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.DisablePathCache = true }
}

// WithTelemetry routes both phases' metrics and stage spans into reg (see
// NewTelemetry). A nil registry keeps telemetry disabled — the default,
// which adds zero allocations to the pipeline's hot paths. The registry's
// snapshot is attached to AnalysisResult.Telemetry.
func WithTelemetry(reg *Telemetry) Option {
	return func(t *TraceOptions, a *AnalysisOptions) {
		t.Telemetry = reg
		a.Telemetry = reg
	}
}

// WithMetricsAddr guarantees a live telemetry HTTP listener on addr
// (e.g. "localhost:9100") for the run, serving Prometheus text at
// /metrics, expvar-style JSON at /debug/vars, a chrome://tracing timeline
// at /timeline, and net/http/pprof under /debug/pprof/. If no registry
// was supplied via WithTelemetry, the process-wide default registry is
// enabled and served. The listener is shared: repeated runs with the same
// addr reuse one server.
func WithMetricsAddr(addr string) Option {
	return func(t *TraceOptions, a *AnalysisOptions) {
		t.MetricsAddr = addr
		a.MetricsAddr = addr
	}
}

// WithWitnesses asks the offline phase to attach a deterministic
// reproduction recipe — a witness — to every race report
// (Report.Witness, serialized; AnalysisResult.Witnesses, structured).
// spec names the replayable program source the trace came from
// (BugWitnessSpec, WorkloadWitnessSpec or OracleWitnessSpec): witnesses
// name their program and pin it with a fingerprint, they do not embed
// it. The machine configuration, driver kind and PT setting of the
// witnessed run are taken from the resolved trace options, so the option
// composes with WithMachine / WithDriver / WithoutPT in any order.
// Witness generation replays the program (bounded by WithWitnessBudget)
// and never changes which races are reported.
func WithWitnesses(spec WitnessSpec) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) {
		if a.Witnesses == nil {
			a.Witnesses = &WitnessOptions{}
		}
		a.Witnesses.Spec = spec
	}
}

// WithWitnessBudget caps the number of replays witness generation may
// spend per report (0 = the default budget). Implies nothing without
// WithWitnesses.
func WithWitnessBudget(replays int) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) {
		if a.Witnesses == nil {
			a.Witnesses = &WitnessOptions{}
		}
		a.Witnesses.Budget = replays
	}
}

// WithThreadRetries sets how many extra attempts a transiently-failing
// per-thread stage gets before the thread is dropped (lenient) or the
// analysis aborts (strict). 0 means the default of one retry; negative
// disables retries.
func WithThreadRetries(n int) Option {
	return func(_ *TraceOptions, a *AnalysisOptions) { a.ThreadRetries = n }
}

// TraceWith runs the online phase with functional options.
func TraceWith(p *Program, opts ...Option) (*TraceResult, error) {
	topts, _ := NewOptions(opts...)
	return Trace(p, topts)
}

// AnalyzeWith runs the offline phase over a collected trace with
// functional options.
func AnalyzeWith(p *Program, tr *TraceResult, opts ...Option) (*AnalysisResult, error) {
	_, aopts := NewOptions(opts...)
	return Analyze(p, tr, aopts)
}

// RunWith executes the complete pipeline with functional options.
func RunWith(p *Program, opts ...Option) (*Result, error) {
	topts, aopts := NewOptions(opts...)
	return Run(p, topts, aopts)
}

// NewAnalyzerWith opens a segment-resumable analysis session with
// functional options (see NewAnalyzer for the session contract).
func NewAnalyzerWith(p *Program, opts ...Option) (*Analyzer, error) {
	_, aopts := NewOptions(opts...)
	return NewAnalyzer(p, aopts)
}
