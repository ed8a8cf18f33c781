package core

import (
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
)

// resolveTelemetry picks the registry an entry point runs with: the one
// named in the options, else the process-wide default (installed by the
// cmds' -metrics-addr/-timeline flags — one atomic load, nil when
// telemetry is off).
func resolveTelemetry(reg *telemetry.Registry) *telemetry.Registry {
	if reg == nil {
		return telemetry.Default()
	}
	return reg
}

// publishSynthesis folds the decode + synthesis outcome into the registry.
// The per-path counters are published only for a fresh synthesis: a path
// cache hit performed no decode work, so it increments only the hit
// counter — keeping every series an honest account of work done while
// staying deterministic for a fixed cache configuration.
func publishSynthesis(tel *telemetry.Registry, tts map[int32]*synthesis.ThreadTrace, cacheHit bool) {
	if tel == nil {
		return
	}
	if cacheHit {
		tel.Counter("prorace_synthesis_cache_hits_total", "Analyses whose decode + synthesis was served by the decoded-path cache (AnalysisResult.DecodeCacheHit).").Inc()
		return
	}
	tel.Counter("prorace_synthesis_cache_misses_total", "Analyses that ran a fresh PT decode + synthesis.").Inc()
	var packets, resyncs, gapBytes, corrupt, steps, anchors, pinned, unpinned int
	for _, tt := range tts {
		if tt.Path != nil {
			packets += tt.Path.Packets
			resyncs += tt.Path.Resyncs
			gapBytes += tt.Path.SkippedBytes()
			corrupt += tt.Path.CorruptPackets
			steps += tt.Path.Len()
		}
		anchors += tt.Anchors()
		pinned += len(tt.Samples)
		unpinned += len(tt.UnpinnedSamples)
	}
	tel.Counter("prorace_ptdecode_packets_total", "Well-formed PT packets consumed by decoding.").AddInt(packets)
	tel.Counter("prorace_ptdecode_psb_resyncs_total", "Decoder recoveries that re-anchored at a PSB sync point (Degradation.DecodeGaps companion).").AddInt(resyncs)
	tel.Counter("prorace_ptdecode_gap_bytes_total", "PT stream bytes lost to decode gaps (Degradation.PTBytesSkipped).").AddInt(gapBytes)
	tel.Counter("prorace_ptdecode_corrupt_packets_total", "Malformed packets and sync mismatches hit by decoding (Degradation.CorruptPTPackets).").AddInt(corrupt)
	tel.Counter("prorace_ptdecode_steps_total", "Instructions on decoded paths.").AddInt(steps)
	tel.Counter("prorace_synthesis_anchors_total", "TSC anchors built for timestamp estimation.").AddInt(anchors)
	tel.Counter("prorace_synthesis_samples_pinned_total", "PEBS samples pinned onto decoded paths.").AddInt(pinned)
	tel.Counter("prorace_synthesis_samples_unpinned_total", "PEBS samples usable only as bare samples (Degradation.UnpinnedSamples).").AddInt(unpinned)
}

// publishAnalysis folds one completed analysis into the registry:
// degradation accounting, §5.1 regeneration, report volume, and the
// per-stage latency histograms behind the Figure 12 timings.
func publishAnalysis(tel *telemetry.Registry, res *AnalysisResult) {
	if tel == nil {
		return
	}
	deg := &res.Degradation
	tel.Counter("prorace_analysis_runs_total", "Completed offline analyses.").Inc()
	if deg.Degraded() {
		tel.Counter("prorace_analysis_degraded_runs_total", "Analyses that gave something up (Degradation.Degraded).").Inc()
	}
	if res.Regenerated {
		tel.Counter("prorace_analysis_regenerations_total", "Analyses re-run by the §5.1 racy-address feedback loop (AnalysisResult.Regenerated).").Inc()
	}
	tel.Counter("prorace_analysis_thread_errors_total", "Isolated per-thread stage failures (Degradation.ThreadErrors).").AddInt(len(deg.ThreadErrors))
	tel.Counter("prorace_analysis_dropped_threads_total", "Threads dropped after a stage failed for them (Degradation.DroppedThreads).").AddInt(len(deg.DroppedThreads))
	tel.Counter("prorace_analysis_invalid_tid_drops_total", "Records discarded by trace sanitisation (Degradation.InvalidTIDDrops).").AddInt(deg.InvalidTIDDrops)
	tel.Counter("prorace_analysis_sync_anomalies_total", "Sync-log invariant violations (Degradation.SyncAnomalies).").AddInt(deg.SyncAnomalies)
	tel.Counter("prorace_analysis_gap_adjacent_reports_total", "Reports flagged as touching a degraded thread (Degradation.GapAdjacentRaces).").AddInt(deg.GapAdjacentRaces)
	tel.Counter("prorace_detect_reports_total", "Deduplicated race reports emitted.").AddInt(len(res.Reports))
	tel.Counter("prorace_analysis_racy_addrs_total", "Distinct racy addresses found (AnalysisResult.RacyAddrs).").AddInt(len(res.RacyAddrs))
	tel.Histogram("prorace_analysis_decode_seconds", "Decode + synthesis stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.DecodeTime)
	tel.Histogram("prorace_analysis_reconstruct_seconds", "Reconstruction stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.ReconstructTime)
	tel.Histogram("prorace_analysis_detect_seconds", "Detection stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.DetectTime)
}
