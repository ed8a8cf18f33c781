package main

import (
	"runtime/metrics"
	"slices"
	"time"

	"prorace/internal/core"
	"prorace/internal/prog"
	"prorace/internal/ptdecode"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// The traced run takes each analysis apart: it calls every layer's public
// function itself, one layer at a time, on the input the end-to-end run
// analyses, and records a span around each call. It then runs the user's
// call (core.Analyze) on the same input and requires the same reports, so
// the per-layer numbers provably describe the end-to-end work.

// layerCounts is what one layered pass measured: its span durations and
// what each layer counted.
type layerCounts struct {
	op, decodeTrace, fingerprint, decode, synthesize time.Duration
	reconstruct, detect, feedback                    time.Duration
	analyze                                          time.Duration // core.Analyze on the same input

	pathSteps, unpinned   int
	accesses, sampled     int
	recovery              float64
	replayAlloc, detAlloc uint64
	events, racyAddrs     int
	shadowPeak            uint64
	invalidHits           int
}

// heapAllocs is the process's cumulative heap allocation in bytes, read
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layeredPass runs the pipeline of core.Analyze with the CLI's options
// layer by layer under one "op" span, on the encoded trace raw of program
// p, and returns the final reports and the decoded trace.
func layeredPass(rec *recorder, p *prog.Program, raw []byte) (reports []race.Report, tr *tracefmt.Trace, c layerCounts, err error) {
	var (
		tts  map[int32]*synthesis.ThreadTrace
		acc  map[int32][]replay.Access
		st   replay.Stats
		det  *race.Detector
		opts = cliOptions()
	)
	op := rec.start("op", -1)
	defer func() {
		rec.end(op)
		c.op = rec.spans[op].dur()
	}()
	c.decodeTrace = rec.timed("tracefmt.decode_trace", op, func() { tr, err = tracefmt.DecodeTraceAuto(raw) })
	if err != nil {
		return nil, nil, c, err
	}
	c.fingerprint = rec.timed("tracefmt.fingerprint", op, func() { tr.Fingerprint() })
	var paths map[int32]*ptdecode.Path
	c.decode = rec.timed("ptdecode.decode", op, func() { paths, err = ptdecode.DecodeAll(p, tr.PT, opts.DecodeMaxSteps) })
	if err != nil {
		return nil, nil, c, err
	}
	for _, path := range paths {
		c.pathSteps += path.Len()
	}
	sopts := synthesis.Options{Lenient: !opts.Strict, MaxSteps: opts.DecodeMaxSteps}
	c.synthesize = rec.timed("synthesis.synthesize", op, func() { tts, err = synthesis.SynthesizeWith(p, tr, sopts) })
	if err != nil {
		return nil, nil, c, err
	}
	for _, tt := range tts {
		c.unpinned += len(tt.UnpinnedSamples)
	}

	a0 := heapAllocs()
	c.reconstruct = rec.timed("replay.reconstruct", op, func() {
		acc, st = replay.NewEngine(p, replay.Config{Mode: opts.Mode}).ReconstructAll(tts)
	})
	a1 := heapAllocs()
	ropts := race.Options{TrackAllocations: !opts.DisableAllocationTracking, MaxReports: opts.MaxReports}
	c.detect = rec.timed("race.detect", op, func() { det = race.Detect(tr.Sync, acc, ropts) })
	a2 := heapAllocs()
	c.accesses, c.sampled, c.recovery = st.Total(), st.Sampled, st.RecoveryRatio()
	c.replayAlloc, c.detAlloc = a1-a0, a2-a1
	c.events = len(tr.Sync)
	for _, as := range acc {
		c.events += len(as)
	}
	c.racyAddrs = len(det.RacyAddrSet())
	c.shadowPeak = det.ShadowStats().PeakBytes()

	// §5.1 feedback, under the same condition core.Analyze applies: when
	// races were found on a reconstruction that used memory emulation,
	// regenerate with the racy addresses invalidated and detect again if
	// that changed anything.
	fb := rec.start("core.feedback", op)
	if opts.Mode != replay.ModeBasicBlock && !opts.DisableMemoryEmulation && !opts.DisableRaceFeedback && c.racyAddrs > 0 {
		acc2, st2 := replay.NewEngine(p, replay.Config{Mode: opts.Mode, InvalidAddrs: det.RacyAddrSet()}).ReconstructAll(tts)
		c.invalidHits = st2.InvalidHits
		if st2.InvalidHits > 0 {
			det = race.Detect(tr.Sync, acc2, ropts)
		}
	}
	rec.end(fb)
	c.feedback = rec.spans[fb].dur()
	return det.Reports(), tr, c, nil
}

// offlineSweep takes the analysis of trace raw apart until the deadline
// (at least once), checks each layered result against core.Analyze, and
// puts the offline layers' metrics into o.
func offlineSweep(rec *recorder, p *prog.Program, raw []byte, deadline time.Time, o *outcome) {
	var counts []layerCounts
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		o.attempted++
		reports, tr, c, err := layeredPass(rec, p, raw)
		if err != nil {
			o.fail(1, "layered pass %d: %v", i, err)
			continue
		}
		var res *core.AnalysisResult
		c.analyze = rec.timed("core.analyze", -1, func() { res, err = core.Analyze(p, tr, cliOptions()) })
		if err != nil {
			o.fail(1, "core.Analyze %d: %v", i, err)
			continue
		}
		if !slices.Equal(reportSet(reports), reportSet(res.Reports)) {
			o.correct = false
			o.fail(1, "fidelity: layered pass %d reported %d races, core.Analyze %d", i, len(reports), len(res.Reports))
			continue
		}
		counts = append(counts, c)
	}
	if len(counts) == 0 {
		return
	}
	put := func(name string, f func(c layerCounts) float64) {
		xs := make([]float64, len(counts))
		for i, c := range counts {
			xs[i] = f(c)
		}
		o.put(name, median(xs), len(xs))
	}
	put("tracefmt.decode_trace_ms", func(c layerCounts) float64 { return ms(c.decodeTrace) })
	put("tracefmt.fingerprint_ms", func(c layerCounts) float64 { return ms(c.fingerprint) })
	put("ptdecode.decode_ms", func(c layerCounts) float64 { return ms(c.decode) })
	put("ptdecode.path_steps", func(c layerCounts) float64 { return float64(c.pathSteps) })
	// Synthesis decodes PT itself; its self time is its span minus the
	// separately timed decode of the same pass.
	put("synthesis.synthesize_ms", func(c layerCounts) float64 { return ms(c.synthesize - c.decode) })
	put("synthesis.unpinned_samples", func(c layerCounts) float64 { return float64(c.unpinned) })
	put("replay.reconstruct_ms", func(c layerCounts) float64 { return ms(c.reconstruct) })
	put("replay.accesses", func(c layerCounts) float64 { return float64(c.accesses) })
	put("replay.sampled", func(c layerCounts) float64 { return float64(c.sampled) })
	put("replay.recovery_ratio", func(c layerCounts) float64 { return c.recovery })
	put("replay.alloc_mb", func(c layerCounts) float64 { return float64(c.replayAlloc) / mb })
	put("race.detect_ms", func(c layerCounts) float64 { return ms(c.detect) })
	put("race.events", func(c layerCounts) float64 { return float64(c.events) })
	put("race.racy_addrs", func(c layerCounts) float64 { return float64(c.racyAddrs) })
	put("race.shadow_peak_mb", func(c layerCounts) float64 { return float64(c.shadowPeak) / mb })
	put("race.alloc_mb", func(c layerCounts) float64 { return float64(c.detAlloc) / mb })
	put("core.feedback_ms", func(c layerCounts) float64 { return ms(c.feedback) })
	put("core.feedback_invalid_hits", func(c layerCounts) float64 { return float64(c.invalidHits) })
	put("core.analyze_ms", func(c layerCounts) float64 { return ms(c.analyze) })
	// Glue: core.Analyze's time outside the layers it calls (decode and
	// synthesis, fingerprint, reconstruction, detection, feedback).
	put("core.glue_ms", func(c layerCounts) float64 {
		return ms(c.analyze - c.fingerprint - c.synthesize - c.reconstruct - c.detect - c.feedback)
	})
	// The untraced equivalent of a pass is the call the user makes: trace
	// decode plus core.Analyze.
	put("trace.overhead_ratio", func(c layerCounts) float64 { return float64(c.op) / float64(c.decodeTrace+c.analyze) })
}

// offlineLayers is the traced run of an analyze-* workload: the streaming
// layers on its golden trace cut into segments, then the offline layers on
// the trace file itself.
func offlineLayers(cfg config) (*outcome, error) {
	wl := offlineWorkloads[cfg.workload]
	golden, err := traceFor(cfg)
	if err != nil {
		return nil, err
	}
	built, tr, err := traceBug(wl.bug, wl.period, golden.Seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	rec := newRecorder()
	p := built.Workload.Program
	if err := tracedStream(cfg, rec, newTenant(p, tr, cfg.seconds), o); err != nil {
		return nil, err
	}
	offlineSweep(rec, p, tr.Trace.Encode(), time.Now().Add(cfg.seconds), o)
	o.spans = rec.spans
	return o, nil
}
