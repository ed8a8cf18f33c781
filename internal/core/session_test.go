package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prorace/internal/faultinject"
	"prorace/internal/prog"
	"prorace/internal/report"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// sessionMatrix is the segment-equivalence sweep: every segment count ×
// worker count, clean and fault-injected. The contract under test is the
// Analyzer's headline guarantee — feeding a trace in N segments and calling
// Finish, at any worker count, is byte-identical to one sequential one-shot
// Analyze, including the telemetry counter totals the run publishes.
// Segment count 0 is the one-shot Analyze itself at that worker count.
func sessionMatrix(short bool) (segs, workers []int) {
	if short {
		return []int{0, 1, 2, 8}, []int{0, 4}
	}
	return []int{0, 1, 2, 8, 17}, []int{0, 1, 4}
}

// pipelineCounters strips the session-layer series (segment acceptance
// accounting, absent by construction from a one-shot run) and the
// pathState recycle tally (warm-state reuse — allocation behaviour, not
// pipeline output) so the remaining counters — decode, synthesis, replay,
// detection, feedback — can be compared exactly between a one-shot and a
// segmented analysis.
func pipelineCounters(s *telemetry.Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(s.Counters))
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "prorace_session_") ||
			name == "prorace_replay_pool_recycles_total" {
			continue
		}
		out[name] = v
	}
	return out
}

func TestSegmentEquivalenceMatrix(t *testing.T) {
	p, tr := oracleTrace(t)
	variants := []struct {
		name  string
		fault *faultinject.Spec
	}{
		{name: "clean"},
		{name: "faulted", fault: &faultinject.Spec{Seed: 7, Faults: []faultinject.Fault{
			{Kind: faultinject.PTFlip, Rate: 0.02},
			{Kind: faultinject.SyncGap, Rate: 0.01},
		}}},
	}
	segCounts, workerCounts := sessionMatrix(testing.Short())

	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			// One sequential one-shot reference, with its own registry and
			// path cache so counter totals are attributable to this run
			// alone; every cell below must reproduce it exactly.
			ref := AnalysisOptions{
				FaultSpec: variant.fault,
				PathCache: synthesis.NewCache(2),
				Telemetry: telemetry.New(),
			}
			want, err := Analyze(p, tr.Trace, ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if variant.fault == nil && len(want.Reports) == 0 {
				t.Fatal("clean reference found no races; the equivalence test needs reports to compare")
			}
			wantText := report.FormatRaces(p, want.Reports)
			wantCounters := pipelineCounters(want.Telemetry)

			for _, workers := range workerCounts {
				for _, n := range segCounts {
					label := variant.name + " segments=" + itoa(n) + " workers=" + itoa(workers)
					opts := ref
					opts.Workers = workers
					opts.PathCache = synthesis.NewCache(2)
					opts.Telemetry = telemetry.New()
					got, err := analyzeInSegments(p, tr.Trace, opts, n)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustMatch(t, label, want, got)
					if gotText := report.FormatRaces(p, got.Reports); gotText != wantText {
						t.Fatalf("%s: rendered reports differ:\nwant:\n%s\ngot:\n%s", label, wantText, gotText)
					}
					if got.Segments != n {
						t.Fatalf("%s: result records %d segments", label, got.Segments)
					}
					if gotCounters := pipelineCounters(got.Telemetry); !reflect.DeepEqual(wantCounters, gotCounters) {
						t.Fatalf("%s: pipeline counter totals differ:\nwant %v\n got %v", label, wantCounters, gotCounters)
					}
					if want.Degradation.Summary() != got.Degradation.Summary() {
						t.Fatalf("%s: degradation summaries differ:\nwant %q\n got %q",
							label, want.Degradation.Summary(), got.Degradation.Summary())
					}
				}
			}
		})
	}
}

// analyzeInSegments feeds tr to a fresh Analyzer in n segments and seals
// it; n == 0 is the one-shot Analyze.
func analyzeInSegments(p *prog.Program, tr *tracefmt.Trace, opts AnalysisOptions, n int) (*AnalysisResult, error) {
	if n == 0 {
		return Analyze(p, tr, opts)
	}
	a, err := NewAnalyzer(p, opts)
	if err != nil {
		return nil, err
	}
	for i, seg := range tr.Split(n) {
		if err := a.Feed(seg); err != nil {
			return nil, fmt.Errorf("feed segment %d: %w", i, err)
		}
	}
	return a.Finish()
}

// TestAnalyzerSnapshotAccumulates drives a session Snapshot-by-Snapshot:
// every prefix of the segment stream analyses like a one-shot run over that
// prefix, and an unchanged session serves the memoized result.
func TestAnalyzerSnapshotAccumulates(t *testing.T) {
	p, tr := oracleTrace(t)
	segs := tr.Trace.Split(4)
	opts := AnalysisOptions{PathCache: synthesis.NewCache(4)}
	a, err := NewAnalyzer(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	prefix := &tracefmt.Trace{}
	for i, seg := range segs {
		if err := a.Feed(seg); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
		if err := tracefmt.MergeSegment(prefix, seg.CloneForMerge()); err != nil {
			t.Fatal(err)
		}
		got, err := a.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		want, err := Analyze(p, prefix, AnalysisOptions{
			PathCache: synthesis.NewCache(4),
		})
		if err != nil {
			t.Fatalf("prefix analyze %d: %v", i, err)
		}
		mustMatch(t, "prefix "+itoa(i+1), want, got)
		if got.Segments != i+1 {
			t.Fatalf("prefix %d: result records %d segments", i+1, got.Segments)
		}
		again, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatalf("prefix %d: unchanged session recomputed its result", i+1)
		}
	}
	fin, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if a.segments != len(segs) || fin.Segments != len(segs) {
		t.Fatalf("session accepted %d segments, result says %d, want %d",
			a.segments, fin.Segments, len(segs))
	}
}

// TestAnalyzerRejectsForeignSegment: a segment from a different run must be
// refused without poisoning the session — later feeds still work, and the
// rejection is surfaced as degradation in every subsequent result.
func TestAnalyzerRejectsForeignSegment(t *testing.T) {
	p, tr := oracleTrace(t)
	segs := tr.Trace.Split(2)
	a, err := NewAnalyzer(p, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(segs[0]); err != nil {
		t.Fatal(err)
	}
	foreign := tracefmt.NewTrace("someone-else", 999, 3)
	if err := a.Feed(foreign); !errors.Is(err, ErrSegmentRejected) {
		t.Fatalf("foreign segment: got %v, want ErrSegmentRejected", err)
	}
	if err := a.Feed(nil); !errors.Is(err, ErrSegmentRejected) {
		t.Fatalf("nil segment: got %v, want ErrSegmentRejected", err)
	}
	if err := a.Feed(segs[1]); err != nil {
		t.Fatalf("session poisoned by a rejected segment: %v", err)
	}
	res, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 2 {
		t.Fatalf("accepted %d segments, want 2", res.Segments)
	}
	if res.Degradation.RejectedSegments != 2 || len(res.Degradation.SegmentRejections) != 2 {
		t.Fatalf("rejections not accounted: %+v", res.Degradation)
	}
	if !res.Degradation.Degraded() {
		t.Fatal("rejected segments must mark the result degraded")
	}
	if !strings.Contains(res.Degradation.Summary(), "rejected segments: 2") {
		t.Fatalf("summary omits rejections: %q", res.Degradation.Summary())
	}

	// The analysis content itself must match the clean full-trace run.
	want, err := Analyze(p, tr.Trace, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Reports, res.Reports) {
		t.Fatal("reports differ after surviving a rejected segment")
	}
}

// TestAnalyzerFinishSeals: Feed and Snapshot after Finish fail with
// ErrFinished; Finish itself stays idempotent.
func TestAnalyzerFinishSeals(t *testing.T) {
	p, tr := oracleTrace(t)
	a, err := NewAnalyzer(p, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(tr.Trace); err != nil {
		t.Fatal(err)
	}
	fin, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(tr.Trace.Split(2)[0]); !errors.Is(err, ErrFinished) {
		t.Fatalf("Feed after Finish: got %v, want ErrFinished", err)
	}
	if _, err := a.Snapshot(); !errors.Is(err, ErrFinished) {
		t.Fatalf("Snapshot after Finish: got %v, want ErrFinished", err)
	}
	again, err := a.Finish()
	if err != nil || again != fin {
		t.Fatalf("Finish not idempotent: %v, %p vs %p", err, again, fin)
	}
}

// TestAnalyzerEmptySession: Finish with nothing fed yields a well-formed
// empty result, not an error — a daemon window may time out before any
// segment arrives.
func TestAnalyzerEmptySession(t *testing.T) {
	p, _ := oracleTrace(t)
	a, err := NewAnalyzer(p, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 0 || res.Segments != 0 {
		t.Fatalf("empty session produced %d reports over %d segments", len(res.Reports), res.Segments)
	}
}

// TestAnalyzerSessionTelemetry: the session layer publishes its own
// acceptance/rejection series on the carried registry.
func TestAnalyzerSessionTelemetry(t *testing.T) {
	p, tr := oracleTrace(t)
	reg := telemetry.New()
	a, err := NewAnalyzer(p, AnalysisOptions{
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range tr.Trace.Split(3) {
		if err := a.Feed(seg); err != nil {
			t.Fatal(err)
		}
	}
	a.Feed(nil) // one rejection
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["prorace_session_segments_total"]; got != 3 {
		t.Errorf("segments_total = %d, want 3", got)
	}
	if got := snap.Counters["prorace_session_segments_rejected_total"]; got != 1 {
		t.Errorf("segments_rejected_total = %d, want 1", got)
	}
	if got := snap.Counters["prorace_session_segment_bytes_total"]; got != tr.Trace.TotalBytes() {
		t.Errorf("segment_bytes_total = %d, want %d", got, tr.Trace.TotalBytes())
	}
}
