package prorace

// End-to-end observability tests: the live /metrics scrape during an
// analysis (ISSUE 5's acceptance check), the snapshot attached to
// AnalysisResult, the determinism of pipeline-derived series, and the
// timeline artifact produced by a whole run.

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// scrapeFamilies fetches /metrics and returns the distinct prorace_*
// family names (labels stripped, histogram suffixes reduced to the base).
func scrapeFamilies(t *testing.T, addr string) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	fams := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "prorace_") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		fams[name] = true
	}
	return fams
}

// TestTelemetryLiveScrape runs the full pipeline with telemetry and an
// ephemeral HTTP listener, scraping /metrics while analyses are running.
// It asserts the acceptance bar: at least 20 distinct prorace_* series
// spanning the driver, decode, replay and detection stages.
func TestTelemetryLiveScrape(t *testing.T) {
	reg := NewTelemetry()
	srv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w := MustWorkload("pfscan", 1)
	done := make(chan error, 1)
	go func() {
		var ferr error
		for trial := 0; trial < 3 && ferr == nil; trial++ {
			_, ferr = Run(w.Program,
				WithMachine(w.Machine),
				WithPeriod(500),
				WithSeed(int64(trial+1)),
				WithWorkers(2),
				WithTelemetry(reg),
			)
		}
		done <- ferr
	}()

	// Scrape while the run loop is alive; the endpoint must serve
	// consistent text at any point, not only after the runs finish.
	deadline := time.Now().Add(30 * time.Second)
	var fams map[string]bool
	for {
		fams = scrapeFamilies(t, srv.Addr())
		if len(fams) >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 20 series; got %d: %v", len(fams), sorted(fams))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	fams = scrapeFamilies(t, srv.Addr())
	if len(fams) < 20 {
		t.Errorf("final scrape has %d distinct prorace_* series, want >= 20: %v", len(fams), sorted(fams))
	}
	for _, stage := range []string{"prorace_driver_", "prorace_ptdecode_", "prorace_replay_", "prorace_detect_"} {
		found := false
		for f := range fams {
			if strings.HasPrefix(f, stage) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series in scrape: %v", stage, sorted(fams))
		}
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTelemetrySnapshotInResult: the analysis attaches the registry's
// snapshot, and without telemetry the field stays nil.
func TestTelemetrySnapshotInResult(t *testing.T) {
	w := MustWorkload("pfscan", 1)
	reg := NewTelemetry()
	res, err := Run(w.Program, WithMachine(w.Machine), WithPeriod(1000), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.AnalysisResult.Telemetry
	if snap == nil {
		t.Fatal("AnalysisResult.Telemetry is nil with telemetry enabled")
	}
	if snap.Counter("prorace_analysis_runs_total") != 1 {
		t.Errorf("analysis runs = %d, want 1", snap.Counter("prorace_analysis_runs_total"))
	}
	if got, want := snap.Counter("prorace_replay_accesses_sampled_total"), uint64(res.AnalysisResult.ReplayStats.Sampled); got != want {
		t.Errorf("sampled counter = %d, ReplayStats.Sampled = %d", got, want)
	}
	if len(snap.Spans) == 0 {
		t.Error("snapshot carries no stage spans")
	}

	plain, err := Run(w.Program, WithMachine(w.Machine), WithPeriod(1000))
	if err != nil {
		t.Fatal(err)
	}
	if plain.AnalysisResult.Telemetry != nil {
		t.Error("AnalysisResult.Telemetry must be nil when telemetry is off")
	}
}

// TestTelemetryDeterministic: the pipeline-derived counters are identical
// across repeated runs of one (program, seed) and across performance
// configurations, once the wall-clock series (histograms, spans) and the
// pathState free list's recycle tally are excluded: how often a warm
// state is reused depends on how many threads reconstruct at once, so that
// tally is allocation behaviour, not pipeline output. No path cache is passed, so every run
// publishes the full decode series (a cache hit honestly publishes only
// the hit counter — that asymmetry is the documented cache-hit
// semantics, not nondeterminism).
func TestTelemetryDeterministic(t *testing.T) {
	w := MustWorkload("pfscan", 1)
	counters := func(opts ...Option) map[string]uint64 {
		reg := NewTelemetry()
		_, err := Run(w.Program, append(opts,
			WithMachine(w.Machine), WithPeriod(500), WithSeed(7),
			WithTelemetry(reg))...)
		if err != nil {
			t.Fatal(err)
		}
		out := reg.Snapshot().Counters
		delete(out, "prorace_replay_pool_recycles_total")
		return out
	}
	base := counters()
	again := counters()
	if !reflect.DeepEqual(base, again) {
		t.Errorf("same-config counters differ:\n%v\nvs\n%v", base, again)
	}
	parallel := counters(WithWorkers(4))
	for _, name := range []string{
		"prorace_driver_samples_emitted_total",
		"prorace_ptdecode_packets_total",
		"prorace_replay_accesses_forward_total",
		"prorace_detect_access_events_total",
		"prorace_detect_read_share_inflations_total",
		"prorace_detect_reports_total",
	} {
		if base[name] != parallel[name] {
			t.Errorf("%s: sequential %d vs 4 workers %d", name, base[name], parallel[name])
		}
	}
}

// TestTelemetryTimelineArtifact: a full pipeline run produces a
// structurally valid chrome://tracing document with the expected stage
// hierarchy.
func TestTelemetryTimelineArtifact(t *testing.T) {
	w := MustWorkload("pfscan", 1)
	reg := NewTelemetry()
	if _, err := Run(w.Program, WithMachine(w.Machine), WithPeriod(1000),
		WithWorkers(2), WithTelemetry(reg)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("malformed event %+v", e)
		}
		names[e.Name] = true
	}
	// One pipeline at every worker count: reconstruction and detection are
	// separate, consecutive stages.
	for _, want := range []string{"trace", "analyze", "decode+synthesis", "reconstruct", "detect"} {
		if !names[want] {
			t.Errorf("timeline missing stage span %q (have %v)", want, sorted(names))
		}
	}
	if names["reconstruct+detect"] {
		t.Error("reconstruction and detection share one span; want separate stages")
	}
	// The workers=2 pass adds per-thread reconstruction lanes.
	lanes := 0
	for n := range names {
		if strings.HasPrefix(n, "reconstruct t") {
			lanes++
		}
	}
	if lanes == 0 {
		t.Error("no per-thread reconstruction lanes in the timeline")
	}
}
