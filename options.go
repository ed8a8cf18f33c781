package prorace

// This file is the package's configuration surface: one opaque Option type
// covers both pipeline phases, and Trace, Analyze, Run and NewAnalyzer all
// take a list of them.
//
//	res, err := prorace.Run(w.Program,
//		prorace.WithMachine(w.Machine),
//		prorace.WithPeriod(1000),
//		prorace.WithSeed(7),
//		prorace.WithWorkers(-1),
//	)
//
// No options means full ProRace: the redesigned driver with PT enabled,
// period 10000, seed 1, forward+backward reconstruction with memory
// emulation, §5.1 race feedback and allocation tracking. newOptions is the
// one place those defaults are resolved; the analysis defaults are the
// zero value of the underlying options, so the resolver only has to name
// the trace ones.
//
// Performance options never change results: WithWorkers and WithPathCache
// both produce byte-identical race reports for a given trace (see the
// package's Determinism section; the guarantee is enforced by
// internal/oracle's metamorphic matrix).

import "prorace/internal/core"

// Option configures one pipeline run, spanning the online tracing phase
// and the offline analysis phase.
type Option func(*config)

// config is what a list of Options resolves to.
type config struct {
	trace    core.TraceOptions
	analysis core.AnalysisOptions
}

// newOptions expands opts over the ProRace defaults.
func newOptions(opts ...Option) config {
	c := config{trace: core.TraceOptions{Kind: ProRaceDriver, Period: 10000, Seed: 1, EnablePT: true}}
	for _, o := range opts {
		o(&c)
	}
	if w := c.analysis.Witnesses; w != nil {
		// Witness generation re-executes the traced run, so it inherits the
		// online configuration regardless of option order.
		w.Machine = c.trace.Machine
		w.DriverKind = c.trace.Kind
		w.EnablePT = c.trace.EnablePT
	}
	return c
}

// WithMachine overrides the simulated machine configuration (cores, I/O
// latencies...).
func WithMachine(cfg MachineConfig) Option {
	return func(c *config) { c.trace.Machine = cfg }
}

// WithPeriod sets the PEBS sampling period.
func WithPeriod(period uint64) Option {
	return func(c *config) { c.trace.Period = period }
}

// WithSeed sets the scheduler seed; a (program, seed) pair reproduces
// exactly.
func WithSeed(seed int64) Option {
	return func(c *config) { c.trace.Seed = seed }
}

// WithDriver selects the PEBS driver model (ProRaceDriver or
// VanillaDriver).
func WithDriver(kind DriverKind) Option {
	return func(c *config) { c.trace.Kind = kind }
}

// WithDriverCosts overrides the driver stack's cycle-cost model.
func WithDriverCosts(costs DriverCosts) Option {
	return func(c *config) { c.trace.Costs = &costs }
}

// WithoutPT turns off control-flow tracing (on by default).
func WithoutPT() Option {
	return func(c *config) { c.trace.EnablePT = false }
}

// WithOverheadMeasurement additionally executes an untraced baseline run
// with the same seed, so TraceResult.Overhead can be reported.
func WithOverheadMeasurement() Option {
	return func(c *config) { c.trace.MeasureOverhead = true }
}

// WithoutRandomFirstPeriod disables the ProRace driver's sampling-phase
// randomisation (ablation).
func WithoutRandomFirstPeriod() Option {
	return func(c *config) { c.trace.DisableRandomFirstPeriod = true }
}

// WithReplayMode selects the reconstruction algorithm (default
// ReplayForwardBackward, full ProRace).
func WithReplayMode(m ReplayMode) Option {
	return func(c *config) { c.analysis.Mode = m }
}

// WithWorkers fans PT decoding and replay reconstruction out across a
// worker pool, one thread at a time; detection stays sequential:
// 0 = sequential, negative = GOMAXPROCS, n > 0 = n workers.
func WithWorkers(n int) Option {
	return func(c *config) { c.analysis.Workers = n }
}

// WithMaxReports bounds the race report list.
func WithMaxReports(n int) Option {
	return func(c *config) { c.analysis.MaxReports = n }
}

// WithoutMemoryEmulation turns off the §5.1 program-map memory emulation
// (ablation).
func WithoutMemoryEmulation() Option {
	return func(c *config) { c.analysis.DisableMemoryEmulation = true }
}

// WithoutRaceFeedback turns off the §5.1 invalidate-and-regenerate loop
// for racy emulated locations (ablation).
func WithoutRaceFeedback() Option {
	return func(c *config) { c.analysis.DisableRaceFeedback = true }
}

// WithoutAllocationTracking turns off malloc/free generation tracking
// (ablation; reintroduces the §4.3 address-reuse false positive).
func WithoutAllocationTracking() Option {
	return func(c *config) { c.analysis.DisableAllocationTracking = true }
}

// WithStrict makes the offline phase abort on the first decode error or
// thread failure instead of degrading gracefully. The library default is
// lenient: corrupt PT regions are skipped (recorded as decode gaps),
// failing threads are dropped with their sync records retained, and
// everything given up is accounted in AnalysisResult.Degradation.
func WithStrict() Option {
	return func(c *config) { c.analysis.Strict = true }
}

// WithFaultInjection deterministically corrupts the collected trace before
// analysis — the robustness-testing hook. A nil spec is a no-op.
func WithFaultInjection(spec *FaultSpec) Option {
	return func(c *config) { c.analysis.FaultSpec = spec }
}

// WithPathCache memoizes PT decode and synthesis in cache, so analyses
// that share it decode a given trace only once (see NewPathCache). Without
// it every analysis decodes afresh.
func WithPathCache(cache *PathCache) Option {
	return func(c *config) { c.analysis.PathCache = cache }
}

// WithTelemetry routes both phases' metrics and stage spans into reg (see
// NewTelemetry). A nil registry keeps telemetry disabled — the default,
// which adds zero allocations to the pipeline's hot paths. The registry's
// snapshot is attached to AnalysisResult.Telemetry.
func WithTelemetry(reg *Telemetry) Option {
	return func(c *config) {
		c.trace.Telemetry = reg
		c.analysis.Telemetry = reg
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
// Witness generation replays the program a bounded number of times per
// report and never changes which races are reported.
func WithWitnesses(spec WitnessSpec) Option {
	return func(c *config) { c.analysis.Witnesses = &core.WitnessOptions{Spec: spec} }
}
