// Package core assembles the full ProRace pipeline of the paper's Figure 1:
//
//	online:  machine run + PMU driver  →  PEBS + PT + sync traces
//	offline: decode & synthesis → memory reconstruction → FastTrack
//
// It also implements the §5.1 safety feedback: when a race is detected on a
// location whose reconstruction relied on emulated memory, the trace is
// regenerated with that location invalidated, so reconstruction never
// depends on racy emulated state.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"prorace/internal/faultinject"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synctrace"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
)

// TraceOptions configures the online phase. Unlike AnalysisOptions, its
// zero value is not ProRace: it selects the vanilla driver with PT off
// (the root package's options resolve the ProRace trace defaults).
type TraceOptions struct {
	// Kind selects the PEBS driver model (ProRace or Vanilla).
	Kind driver.Kind
	// Period is the PEBS sampling period.
	Period uint64
	// Seed drives the machine scheduler and the driver's randomised first
	// period; a given (program, seed) pair reproduces exactly.
	Seed int64
	// EnablePT turns on control-flow tracing.
	EnablePT bool
	// MeasureOverhead additionally executes an untraced baseline run with
	// the same seed, so Overhead can be reported.
	MeasureOverhead bool
	// Machine overrides simulator parameters (cores, I/O latencies...).
	// Seed and Tracer fields are managed by TraceProgram.
	Machine machine.Config
	// Costs overrides the driver cost model (nil = calibrated defaults).
	Costs *driver.Costs
	// DisableRandomFirstPeriod turns off the ProRace driver's sampling
	// phase randomisation (ablation).
	DisableRandomFirstPeriod bool
	// WrapTracer, when set, wraps the PMU driver before it is installed as
	// the machine's tracer. The wrapper must delegate every callback to the
	// driver (preserving its returned stall cycles unchanged) so the traced
	// execution is bit-identical to an unwrapped run; it may observe the
	// full event stream on the way through. The ground-truth oracle
	// (internal/oracle) uses this to record every memory access of the
	// very execution whose sampled trace the pipeline analyzes.
	WrapTracer func(machine.Tracer) machine.Tracer
	// Telemetry receives the online phase's prorace_driver_* series and a
	// "trace" stage span. Nil falls back to the process-wide default
	// registry (telemetry.Default), which is itself nil unless a command
	// enabled it — the zero-overhead disabled state.
	Telemetry *telemetry.Registry
}

// TraceResult is the outcome of the online phase.
type TraceResult struct {
	Trace       *tracefmt.Trace
	TracedStats machine.Stats
	// BaseStats is only valid when MeasureOverhead was set.
	BaseStats machine.Stats
	// Overhead is traced/base - 1 (0 when not measured).
	Overhead float64
	// Dropped and Throttled report the kernel-side sample losses.
	Dropped   uint64
	Throttled uint64
}

// TraceProgram runs the online phase: execute the program on the simulated
// machine under the selected driver and collect the three traces.
func TraceProgram(p *prog.Program, opts TraceOptions) (*TraceResult, error) {
	if opts.Period == 0 {
		opts.Period = 10000
	}
	tel := resolveTelemetry(opts.Telemetry)
	span := tel.StartSpan("trace")
	defer span.End()
	res := &TraceResult{}

	if opts.MeasureOverhead {
		mcfg := opts.Machine
		mcfg.Seed = opts.Seed
		mcfg.Tracer = nil
		base := machine.New(p, mcfg)
		st, err := base.Run()
		if err != nil {
			return nil, fmt.Errorf("core: baseline run: %w", err)
		}
		res.BaseStats = st
	}

	mcfg := opts.Machine
	mcfg.Seed = opts.Seed
	mcfg.Tracer = nil
	mac := machine.New(p, mcfg)
	d := driver.New(mac, driver.Options{
		Kind:                     opts.Kind,
		Period:                   opts.Period,
		Seed:                     opts.Seed,
		EnablePT:                 opts.EnablePT,
		Costs:                    opts.Costs,
		DisableRandomFirstPeriod: opts.DisableRandomFirstPeriod,
		Telemetry:                tel,
	})
	tracer := machine.Tracer(d)
	if opts.WrapTracer != nil {
		tracer = opts.WrapTracer(tracer)
	}
	mac.SetTracer(tracer)
	st, err := mac.Run()
	if err != nil {
		return nil, fmt.Errorf("core: traced run: %w", err)
	}
	res.TracedStats = st
	res.Trace = d.Finish()
	res.Dropped = d.DroppedSamples()
	res.Throttled = d.ThrottledEvents()
	if opts.MeasureOverhead && res.BaseStats.Cycles > 0 {
		res.Overhead = float64(st.Cycles)/float64(res.BaseStats.Cycles) - 1
	}
	return res, nil
}

// AnalysisOptions configures the offline phase. The zero value is full
// ProRace: forward+backward reconstruction with memory emulation, §5.1
// race feedback and allocation tracking, sequential and lenient.
type AnalysisOptions struct {
	// Mode selects the reconstruction algorithm (default ForwardBackward —
	// full ProRace).
	Mode replay.Mode
	// Workers fans PT decoding/synthesis and replay reconstruction out
	// across a worker pool, one thread at a time (§7.6); detection stays
	// sequential: 0 = fully sequential, <0 = GOMAXPROCS, n > 0 = n
	// workers. Results are identical to the sequential analysis.
	Workers int
	// DisableMemoryEmulation turns off the §5.1 program-map memory
	// emulation (ablation).
	DisableMemoryEmulation bool
	// DisableRaceFeedback turns off the §5.1 invalidate-and-regenerate
	// loop for racy emulated locations (ablation; slightly faster,
	// slightly less safe).
	DisableRaceFeedback bool
	// DisableAllocationTracking turns off malloc/free generation tracking
	// (ablation; reintroduces the §4.3 address-reuse false positive).
	DisableAllocationTracking bool
	// MaxReports bounds the race report list.
	MaxReports int
	// Strict makes the first decode or per-thread analysis error abort the
	// run. The default (false) is lenient: corrupt PT regions are skipped
	// via sync-point recovery, failing threads are dropped (their sync
	// records still contribute happens-before edges), and everything lost
	// is accounted in AnalysisResult.Degradation. On a clean trace the two
	// modes produce identical reports.
	Strict bool
	// FaultSpec, when non-nil, injects the described faults into a copy of
	// the trace before analysis — the test harness for the degradation
	// machinery. The original trace is never modified.
	FaultSpec *faultinject.Spec
	// DecodeMaxSteps bounds each thread's PT decode (0 means the decoder's
	// large default). Lenient analyses of heavily corrupted streams use it
	// to keep resynced walks from wandering for millions of steps.
	DecodeMaxSteps int
	// PathCache memoizes PT decode + synthesis across analyses that share
	// it; nil decodes every analysis afresh. Cached entries are keyed by
	// (program, trace content fingerprint, decode options), so a hit is
	// byte-equivalent to a fresh decode.
	PathCache *synthesis.Cache
	// Telemetry receives the offline phase's metric series and stage
	// spans, and its snapshot is attached to AnalysisResult.Telemetry.
	// Nil falls back to the process-wide default registry (nil unless a
	// command enabled it); instrumentation is allocation-free when no
	// registry is resolved.
	Telemetry *telemetry.Registry
	// Witnesses, when non-nil, attaches a deterministic reproduction to
	// every report: a replay-verified witness schedule (seed + forced
	// scheduler-decision prefix) is generated per race, serialized into
	// Report.Witness and summarised in AnalysisResult.Witnesses. Witness
	// generation re-executes the program a bounded number of times per
	// report; it never changes which races are reported.
	Witnesses *WitnessOptions
}

// AnalysisResult is the outcome of the offline phase.
type AnalysisResult struct {
	Reports []race.Report
	// RacyAddrs is the full set of addresses with at least one detected
	// race. Unlike Reports — which deduplicates by PC pair and is bounded
	// by MaxReports — this set is complete, so it is the right basis for
	// per-variable recall measurements (the oracle harness scores against
	// it) as well as the §5.1 feedback.
	RacyAddrs   map[uint64]bool
	ReplayStats replay.Stats
	// Accesses is the extended memory trace per thread.
	Accesses map[int32][]replay.Access
	// Phase timings for the paper's Figure 12 breakdown, read from the
	// stage spans of the same name. The stages run one after another at
	// every Workers count, so Decode + Reconstruct + Detect is the elapsed
	// analysis (the §5.1 feedback pass adds to ReconstructTime and, when
	// it re-detects, to DetectTime).
	DecodeTime      time.Duration
	ReconstructTime time.Duration
	DetectTime      time.Duration
	// Workers records the resolved parallelism the analysis actually ran
	// with (after GOMAXPROCS expansion).
	Workers int
	// Segments is the number of trace segments the producing Analyzer
	// session accepted (0 for a plain whole-trace Analyze).
	Segments int
	// Regenerated is true when the §5.1 feedback loop re-ran
	// reconstruction with racy locations invalidated.
	Regenerated bool
	// DecodeCacheHit is true when decode + synthesis were served from the
	// decoded-path cache instead of being recomputed.
	DecodeCacheHit bool
	// Degradation accounts everything a lenient analysis had to give up
	// (zero-valued on a clean strict or lenient run).
	Degradation Degradation
	// Telemetry is the metrics registry's snapshot taken as the analysis
	// finished — counters, gauges, histograms and completed stage spans.
	// Nil when the analysis ran without telemetry. When analyses share a
	// registry (the cmds' process-wide default), counters accumulate
	// across runs and the snapshot reflects the registry, not one run.
	Telemetry *telemetry.Snapshot
	// Witnesses holds one generation outcome per report (parallel to
	// Reports), populated only when AnalysisOptions.Witnesses was set.
	// A nil Outcome.Witness means no reproduction was found in budget.
	Witnesses []*witness.Outcome
}

// TotalTime is the full offline analysis duration.
func (r *AnalysisResult) TotalTime() time.Duration {
	return r.DecodeTime + r.ReconstructTime + r.DetectTime
}

// workerCount resolves the Workers knob: 0 means sequential (one worker),
// negative means GOMAXPROCS.
func workerCount(n int) int {
	if n == 0 {
		return 1
	}
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Analyze runs the offline phase over a collected trace, as one pipeline
// at every Workers count: synthesis and reconstruction fan out per thread,
// then one sequential FastTrack pass detects, then the §5.1 feedback runs.
// Unless opts.Strict is set, the analysis is fault-tolerant: corrupt trace
// regions and failing threads degrade the result (see Degradation) instead
// of aborting it.
func Analyze(p *prog.Program, tr *tracefmt.Trace, opts AnalysisOptions) (*AnalysisResult, error) {
	workers := workerCount(opts.Workers)
	tel := resolveTelemetry(opts.Telemetry)
	span := tel.StartSpan("analyze")
	defer span.End()
	res := &AnalysisResult{Workers: workers}
	deg := &res.Degradation

	if opts.FaultSpec != nil && !opts.FaultSpec.Zero() {
		tr, _ = opts.FaultSpec.Apply(tr)
		deg.Injected = opts.FaultSpec.String()
	}

	// Screen out impossible thread IDs before anything indexes by TID.
	tr, sanErr := sanitizeTrace(tr, opts.Strict, deg)
	if sanErr != nil {
		return nil, sanErr
	}

	spanDecode := tel.StartSpan("decode+synthesis")
	var tts map[int32]*synthesis.ThreadTrace
	var err error
	sopts := synthesis.Options{Lenient: !opts.Strict, MaxSteps: opts.DecodeMaxSteps}
	cache := opts.PathCache
	var ckey synthesis.CacheKey
	if cache != nil {
		// Content-keyed, so a mutated copy (fault injection, salvage)
		// misses while a byte-identical re-analysis hits; the fingerprint
		// is computed on the sanitised trace the pipeline actually decodes.
		ckey = synthesis.CacheKey{Prog: p, Fingerprint: tr.Fingerprint(), Opts: sopts}
		if hit, ok := cache.Get(ckey); ok {
			tts = hit
			res.DecodeCacheHit = true
		}
	}
	if tts == nil {
		errsBefore := len(deg.ThreadErrors)
		tts, err = synthesizeThreads(p, tr, workers, sopts, opts.Strict, deg)
		if err != nil {
			return nil, fmt.Errorf("core: synthesis: %w", err)
		}
		// Only a fully successful synthesis is cached: a run that dropped
		// threads must re-record those drops in every analysis's
		// Degradation, which a hit would silently skip.
		if cache != nil && len(deg.ThreadErrors) == errsBefore {
			cache.Put(ckey, tts)
		}
	}
	res.DecodeTime = spanDecode.End()
	publishSynthesis(tel, tts, res.DecodeCacheHit)

	// Account what decoding gave up, and check the sync log's invariants:
	// dropped sync records silently widen happens-before (edges can only
	// disappear, so races are over- not under-reported) — surface that.
	collectDecodeDegradation(tts, deg)
	_, ptBytes, _ := tr.Sizes()
	deg.PTBytesTotal = ptBytes
	gaps := synctrace.AnalyzeLog(tr.Sync)
	deg.SyncAnomalies = gaps.Anomalies()

	ropts := race.Options{
		TrackAllocations: !opts.DisableAllocationTracking,
		MaxReports:       opts.MaxReports,
		Telemetry:        tel,
	}
	engine := replay.NewEngine(p, replay.Config{Mode: opts.Mode, Telemetry: tel})
	if opts.DisableMemoryEmulation {
		engine = engine.DisableMemoryEmulation()
	}

	spanRecon := tel.StartSpan("reconstruct")
	recon, terrs := reconstructThreads(engine, tts, sortedTIDs(tts), workers, tel)
	res.ReconstructTime = spanRecon.End()
	if err := absorbThreadErrors(terrs, opts.Strict, deg); err != nil {
		return nil, err
	}
	res.ReplayStats = statsOf(recon)
	accesses := accessesOf(recon)

	spanDetect := tel.StartSpan("detect")
	det := detect(ropts, tr.Sync, accesses)
	res.DetectTime = spanDetect.End()

	// §5.1 feedback: if races were found and reconstruction used memory
	// emulation, regenerate the trace with the racy locations invalidated
	// so no reconstructed address depended on racy emulated memory, then
	// detect again if that changed the trace.
	if racy := det.RacyAddrSet(); !opts.DisableRaceFeedback && opts.Mode != replay.ModeBasicBlock &&
		!opts.DisableMemoryEmulation && len(racy) > 0 {
		spanFeedback := tel.StartSpan("feedback")
		spanRecon := tel.StartSpan("reconstruct")
		engine2 := replay.NewEngine(p, replay.Config{Mode: opts.Mode, InvalidAddrs: racy, Telemetry: tel})
		recon2, changed, terrs2 := regenerate(engine2, racy, tts, recon, workers, tel)
		res.ReconstructTime += spanRecon.End()
		if err := absorbThreadErrors(terrs2, opts.Strict, deg); err != nil {
			return nil, err
		}
		// Adopt the regeneration only when the invalidation touched the
		// trace at all.
		if rstats2 := statsOf(recon2); rstats2.InvalidHits > 0 {
			res.ReplayStats = rstats2
			accesses = accessesOf(recon2)
			res.Regenerated = true
			if changed {
				spanDetect := tel.StartSpan("detect")
				det = detect(ropts, tr.Sync, accesses)
				res.DetectTime += spanDetect.End()
			}
		}
		spanFeedback.End()
	}

	res.Accesses = accesses
	res.Reports = det.Reports()
	res.RacyAddrs = det.RacyAddrSet()
	flagGapAdjacent(res, tts, gaps, deg)
	if opts.Witnesses != nil && opts.Witnesses.Spec.Kind != "" {
		spanWitness := tel.StartSpan("witness")
		attachWitnesses(p, tr, res, opts.Witnesses)
		spanWitness.End()
	}
	publishAnalysis(tel, res)
	res.Telemetry = tel.Snapshot()
	return res, nil
}

// threadRecon is one thread's reconstruction: its accesses and stats, and
// the load log the §5.1 feedback decides reuse from (nil when the engine
// kept none).
type threadRecon struct {
	acc []replay.Access
	st  replay.Stats
	log *replay.LoadLog
}

// accessesOf is the per-thread extended memory trace of a reconstruction.
func accessesOf(recon map[int32]threadRecon) map[int32][]replay.Access {
	out := make(map[int32][]replay.Access, len(recon))
	for tid, r := range recon {
		out[tid] = r.acc
	}
	return out
}

// statsOf aggregates a reconstruction's per-thread stats.
func statsOf(recon map[int32]threadRecon) replay.Stats {
	var agg replay.Stats
	for _, r := range recon {
		agg.Merge(r.st)
	}
	return agg
}

// sortedTIDs lists the threads of tts in ascending order.
func sortedTIDs(tts map[int32]*synthesis.ThreadTrace) []int32 {
	tids := make([]int32, 0, len(tts))
	for tid := range tts {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	return tids
}

// detect runs one FastTrack pass over a materialised access map. Finish
// publishes the pass's prorace_detect_* series.
func detect(ropts race.Options, syncRecs []tracefmt.SyncRecord, accesses map[int32][]replay.Access) *race.Detector {
	det := race.Detect(syncRecs, accesses, ropts)
	det.Finish()
	return det
}

// regenerate is the §5.1 feedback pass: the reconstruction of every thread
// of tts with the racy addresses invalidated, given first, the pass that
// found them. It re-runs (with engine, which carries racy as its
// InvalidAddrs, fanned out over workers) only the threads whose first-pass
// LoadLog says a racy address was read from emulated memory, plus any
// thread without a log, such as one that failed in the first pass. Every
// other thread's first-pass reconstruction is exactly what a re-run would
// produce (see replay.LoadLog), so it is reused with only its InvalidHits
// filled in. changed reports whether a re-run thread's accesses differ
// from the first pass — if not, the detector input is unchanged too.
func regenerate(engine *replay.Engine, racy map[uint64]bool, tts map[int32]*synthesis.ThreadTrace, first map[int32]threadRecon, workers int, tel *telemetry.Registry) (recon map[int32]threadRecon, changed bool, terrs []*ThreadError) {
	recon = make(map[int32]threadRecon, len(tts))
	var rerun []int32
	for _, tid := range sortedTIDs(tts) {
		r := first[tid]
		if hits, reuse := r.log.Reuse(racy); reuse {
			r.st.InvalidHits = hits
			recon[tid] = r
			continue
		}
		rerun = append(rerun, tid)
	}
	redone, terrs := reconstructThreads(engine, tts, rerun, workers, tel)
	for _, tid := range rerun {
		r, ok := redone[tid]
		if ok {
			recon[tid] = r
		}
		if f, had := first[tid]; ok != had || !slices.Equal(f.acc, r.acc) {
			changed = true
		}
	}
	return recon, changed, terrs
}

// absorbThreadErrors applies the strictness policy to a batch of isolated
// failures: strict returns the first as the run's error, lenient records
// them as degradation.
func absorbThreadErrors(terrs []*ThreadError, strict bool, deg *Degradation) error {
	if len(terrs) == 0 {
		return nil
	}
	// Worker pools surface failures in completion order; sort by thread so
	// the recorded (or returned) errors are deterministic.
	sort.Slice(terrs, func(i, j int) bool { return terrs[i].TID < terrs[j].TID })
	if strict {
		return terrs[0]
	}
	for _, te := range terrs {
		deg.recordThreadError(te)
	}
	return nil
}

// collectDecodeDegradation aggregates per-thread decode damage into the
// run's Degradation.
func collectDecodeDegradation(tts map[int32]*synthesis.ThreadTrace, deg *Degradation) {
	for _, tt := range tts {
		if tt.Path != nil {
			deg.CorruptPTPackets += tt.Path.CorruptPackets
			deg.DecodeGaps += len(tt.Path.Gaps)
			deg.PTBytesSkipped += uint64(tt.Path.SkippedBytes())
		}
		deg.UnpinnedSamples += len(tt.UnpinnedSamples)
	}
}

// flagGapAdjacent marks reports touching a degraded thread — a thread with
// decode gaps, an isolated failure, or sync-log anomalies — so analysts
// know which races may be artifacts of widened happens-before.
func flagGapAdjacent(res *AnalysisResult, tts map[int32]*synthesis.ThreadTrace, gaps *synctrace.GapReport, deg *Degradation) {
	degTIDs := map[int32]bool{}
	for _, tid := range deg.DroppedThreads {
		degTIDs[tid] = true
	}
	for tid, tt := range tts {
		if tt.Path != nil && tt.Path.Degraded() {
			degTIDs[tid] = true
		}
	}
	for _, tid := range gaps.Threads {
		degTIDs[tid] = true
	}
	if len(degTIDs) == 0 {
		return
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		if degTIDs[r.First.TID] || degTIDs[r.Second.TID] {
			r.GapAdjacent = true
			deg.GapAdjacentRaces++
		}
	}
}

// Result bundles a full pipeline run.
type Result struct {
	TraceResult    *TraceResult
	AnalysisResult *AnalysisResult
}

// Run executes the complete pipeline: trace online, analyze offline.
func Run(p *prog.Program, topts TraceOptions, aopts AnalysisOptions) (*Result, error) {
	tr, err := TraceProgram(p, topts)
	if err != nil {
		return nil, err
	}
	ar, err := Analyze(p, tr.Trace, aopts)
	if err != nil {
		return nil, err
	}
	return &Result{TraceResult: tr, AnalysisResult: ar}, nil
}
