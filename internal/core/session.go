package core

import (
	"errors"
	"fmt"
	"sync"

	"prorace/internal/prog"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// Analyzer is the resumable form of Analyze: a stateful analysis session
// that consumes a run's trace in segments instead of as one finished
// artifact. Feed accepts segments as they arrive (a production process
// streaming its perf buffers out in bounded chunks), Snapshot yields the
// analysis of everything fed so far, and Finish seals the session.
//
// The contract the daemon (internal/monitor) and every other incremental
// caller relies on: feeding a trace in 1, 2 or N segments — cut anywhere,
// including mid PT packet — and calling Finish yields a result
// byte-identical to Analyze over the whole trace, at every Workers /
// path-cache configuration. The session owns what makes
// that cheap to re-derive and safe to carry:
//
//   - the merged trace accumulated so far (segments are re-concatenated
//     before decode, because PT decoding, sample pinning, and the §5.1
//     feedback loop are all whole-stream computations — see DESIGN.md §13
//     for why mid-stream detector carry-over cannot be byte-faithful);
//   - the telemetry registry, resolved once at session creation and
//     reused by every analysis round;
//   - the decoded-path cache named in the options, if any, so repeated
//     rounds over identical content share decodes;
//   - the detector output of the last round (reports, racy addresses),
//     returned without recomputation when no new segment arrived since;
//   - session-level degradation: a rejected segment (foreign run header)
//     is recorded and surfaced in every subsequent result's Degradation
//     instead of poisoning the session.
//
// An Analyzer is safe for concurrent use; Feed/Snapshot/Finish serialise
// on an internal lock (the analysis itself parallelises internally via
// Workers).
type Analyzer struct {
	p    *prog.Program
	opts AnalysisOptions
	tel  *telemetry.Registry

	mu       sync.Mutex
	merged   *tracefmt.Trace // nil until first accepted segment
	adopted  bool            // merged aliases the caller's first segment
	segments int
	rejected []string // reasons, in arrival order
	last     *AnalysisResult
	dirty    bool // a segment arrived since the last analysis round
	finished bool
}

// ErrFinished is returned by Feed and Snapshot once Finish has sealed the
// session.
var ErrFinished = errors.New("core: analyzer session is finished")

// ErrSegmentRejected wraps a Feed failure that degraded the session
// without poisoning it: the offending segment was discarded, the session
// remains usable, and the rejection is accounted in every subsequent
// result's Degradation.RejectedSegments.
var ErrSegmentRejected = errors.New("core: segment rejected")

// NewAnalyzer opens an analysis session for one traced program. The
// telemetry registry is resolved once here and carried across every round.
func NewAnalyzer(p *prog.Program, opts AnalysisOptions) (*Analyzer, error) {
	opts.Telemetry = resolveTelemetry(opts.Telemetry)
	return &Analyzer{p: p, opts: opts, tel: opts.Telemetry}, nil
}

// Feed appends one trace segment to the session. Segments must belong to
// the same run (matching Program/Period/Seed header); a mismatched or nil
// segment is rejected with an error wrapping ErrSegmentRejected — the
// session itself stays healthy and the rejection is accounted as
// degradation. Feed after Finish returns ErrFinished.
func (a *Analyzer) Feed(seg *tracefmt.Trace) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return ErrFinished
	}
	if seg == nil {
		return a.reject("nil segment")
	}
	switch {
	case a.merged == nil:
		// Single-segment sessions (the Analyze wrapper) stay zero-copy:
		// adopt the caller's trace and only deep-copy if a second segment
		// ever arrives. Analysis never mutates trace content.
		a.merged = seg
		a.adopted = true
	default:
		if a.adopted {
			a.merged = a.merged.CloneForMerge()
			a.adopted = false
		}
		if err := tracefmt.MergeSegment(a.merged, seg); err != nil {
			return a.reject(err.Error())
		}
	}
	a.segments++
	a.dirty = true
	if a.tel != nil {
		a.tel.Counter("prorace_session_segments_total", "Trace segments accepted by Analyzer sessions.").Inc()
		a.tel.Counter("prorace_session_segment_bytes_total", "Trace payload bytes accepted by Analyzer sessions.").Add(seg.TotalBytes())
	}
	return nil
}

// reject records a session-level degradation and returns the error. The
// caller holds a.mu.
func (a *Analyzer) reject(reason string) error {
	a.rejected = append(a.rejected, reason)
	// The carried result no longer reflects the session's degradation
	// tally; recompute on next Snapshot (cheap: decode comes from cache).
	a.dirty = true
	if a.tel != nil {
		a.tel.Counter("prorace_session_segments_rejected_total", "Trace segments refused by Analyzer sessions (foreign run header, nil segment).").Inc()
	}
	return fmt.Errorf("%w: %s", ErrSegmentRejected, reason)
}

// Snapshot runs the offline analysis over everything fed so far and
// returns the result. The session stays open — more segments may follow.
// When nothing changed since the last round, the carried result is
// returned as-is (no recomputation and no new telemetry publication), so a
// daemon can serve report reads at any frequency. Callers must treat the
// returned result as immutable: later rounds return fresh results, but an
// unchanged session shares one.
func (a *Analyzer) Snapshot() (*AnalysisResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return nil, ErrFinished
	}
	return a.analyzeLocked()
}

// Finish runs a final analysis round and seals the session: subsequent
// Feed/Snapshot calls return ErrFinished, and Finish itself keeps
// returning the final result.
func (a *Analyzer) Finish() (*AnalysisResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return a.last, nil
	}
	res, err := a.analyzeLocked()
	if err != nil {
		return nil, err
	}
	a.finished = true
	return res, nil
}

// analyzeLocked runs (or reuses) the analysis of the merged trace. The
// caller holds a.mu.
func (a *Analyzer) analyzeLocked() (*AnalysisResult, error) {
	if !a.dirty && a.last != nil {
		return a.last, nil
	}
	tr := a.merged
	if tr == nil {
		// An empty session analyses an empty trace: no reports, but a
		// well-formed result carrying the session degradation.
		tr = tracefmt.NewTrace("", 0, 0)
	}
	res, err := Analyze(a.p, tr, a.opts)
	if err != nil {
		return nil, err
	}
	res.Segments = a.segments
	res.Degradation.RejectedSegments = len(a.rejected)
	res.Degradation.SegmentRejections = append([]string(nil), a.rejected...)
	a.last = res
	a.dirty = false
	return res, nil
}
