package monitor

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// discardLogger silences a test monitor's structured log output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestLineageRing exercises the ring in isolation: minting, stage
// transitions, terminal immutability, bounded eviction and its accounting.
func TestLineageRing(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r := newLineageRing(3)
	if !r.mint("a", 1, 100, false, base) {
		t.Fatal("fresh mint rejected")
	}
	if r.mint("a", 1, 100, false, base) {
		t.Fatal("duplicate mint accepted")
	}
	if _, _, ok := r.transition("a", StageAcked, base.Add(time.Second)); !ok {
		t.Fatal("transition on a live entry failed")
	}
	si, sp, ok := r.transition("a", StageAnalyzed, base.Add(3*time.Second))
	if !ok || si != 3*time.Second || sp != 2*time.Second {
		t.Fatalf("terminal transition = (%v, %v, %v), want (3s, 2s, true)", si, sp, ok)
	}
	// Terminal entries are immutable; rounds still count.
	if _, _, ok := r.transition("a", StageRetired, base.Add(4*time.Second)); ok {
		t.Fatal("transition on a terminal entry succeeded")
	}
	r.bumpRounds("a")
	e, ok := r.get("a")
	if !ok || e.Stage != StageAnalyzed || e.Rounds != 1 || len(e.Transitions) != 3 {
		t.Fatalf("entry after terminal = %+v", e)
	}
	// Returned copies are detached from the ring.
	e.Transitions[0].Stage = "mutated"
	if e2, _ := r.get("a"); e2.Transitions[0].Stage != StageIngested {
		t.Fatal("get returned a live reference")
	}

	// Eviction: "a" is terminal, "b" stays open; pushing past the depth
	// evicts them in FIFO order and counts only the open one.
	r.mint("b", 2, 1, false, base)
	r.mint("c", 3, 1, false, base)
	r.mint("d", 4, 1, false, base) // evicts a (terminal)
	r.mint("e", 5, 1, false, base) // evicts b (open)
	minted, terminal, evictedOpen, held := r.stats()
	if minted != 5 || terminal != 1 || evictedOpen != 1 || held != 3 {
		t.Fatalf("stats = (%d, %d, %d, %d), want (5, 1, 1, 3)", minted, terminal, evictedOpen, held)
	}
	if _, ok := r.get("a"); ok {
		t.Fatal("evicted entry still readable")
	}
	if tail := r.tail(2); len(tail) != 2 || tail[0].ID != "d" || tail[1].ID != "e" {
		t.Fatalf("tail(2) = %+v", tail)
	}
	if open := r.open(); len(open) != 3 {
		t.Fatalf("open = %d entries, want 3 (c, d, e)", len(open))
	}
}

// TestLineageEndToEnd drives live ingests through a synchronous monitor
// and asserts the completeness invariant: every accepted segment's
// lineage ends terminal, in pipeline order, and rejections record why.
func TestLineageEndToEnd(t *testing.T) {
	cfg := syncConfig("", nil)
	cfg.Logger = discardLogger()
	cfg.QueueDepth = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "web-1", 4)
	m.RegisterProgram(p)
	for i, f := range frames {
		meta := IngestMeta{Lineage: fmt.Sprintf("prod-%d", i)}
		if err := m.IngestWith("web-1", meta, f); err != nil {
			t.Fatal(err)
		}
	}
	// Completeness: no open lineages once the synchronous rounds are done.
	if open := m.OpenLineages(); len(open) != 0 {
		t.Fatalf("open lineages after quiescence: %+v", open)
	}
	// Every producer ID is resolvable with an ordered ingest-to-terminal
	// history. No WAL here, so fsynced is skipped.
	wantPath := []string{StageIngested, StageAcked, StageQueued, StageAnalyzing, StageAnalyzed}
	for i := range frames {
		l, ok := m.Lineage("web-1", fmt.Sprintf("prod-%d", i))
		if !ok {
			t.Fatalf("lineage prod-%d not found", i)
		}
		if len(l.Transitions) != len(wantPath) {
			t.Fatalf("prod-%d path = %+v, want %v", i, l.Transitions, wantPath)
		}
		for j, tr := range l.Transitions {
			if tr.Stage != wantPath[j] {
				t.Fatalf("prod-%d stage %d = %s, want %s", i, j, tr.Stage, wantPath[j])
			}
			if j > 0 && tr.At.Before(l.Transitions[j-1].At) {
				t.Fatalf("prod-%d transitions out of time order: %+v", i, l.Transitions)
			}
		}
		if l.Rounds < 1 || l.Recovered {
			t.Fatalf("prod-%d = rounds %d recovered %v", i, l.Rounds, l.Recovered)
		}
	}
	// The first segment rode in every later round too.
	if l, _ := m.Lineage("web-1", "prod-0"); l.Rounds != len(frames) {
		t.Fatalf("prod-0 rounds = %d, want %d", l.Rounds, len(frames))
	}

	// A corrupt frame with a producer lineage records a terminal rejection
	// carrying the reason; without one, nothing is recorded.
	corrupt := append([]byte(nil), frames[0]...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := m.IngestWith("web-1", IngestMeta{Lineage: "prod-bad"}, corrupt); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	l, ok := m.Lineage("web-1", "prod-bad")
	if !ok || l.Stage != StageRejected || l.Error == "" {
		t.Fatalf("rejected lineage = (%+v, %v)", l, ok)
	}
	before, _, _, _ := m.tenantFor("web-1").lin.stats()
	if err := m.IngestWith("web-1", IngestMeta{}, corrupt); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if after, _, _, _ := m.tenantFor("web-1").lin.stats(); after != before {
		t.Fatal("lineage minted for an ID-less permanent rejection")
	}

	// Retryable rejections must leave the producer's ID mintable: wedge the
	// queue, get ErrQueueFull, then succeed with the same ID.
	ten := m.tenantFor("wedged")
	_, seg, err := tracefmt.DecodeSegment(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	ten.pending = append(ten.pending, ingestSeg{seg: seg}, ingestSeg{seg: seg})
	if err := m.IngestWith("wedged", IngestMeta{Lineage: "retry-1"}, frames[0]); err == nil {
		t.Fatal("full queue accepted")
	}
	if _, ok := m.Lineage("wedged", "retry-1"); ok {
		t.Fatal("lineage recorded for a retryable rejection")
	}
	ten.pending = nil
	if err := m.IngestWith("wedged", IngestMeta{Lineage: "retry-1"}, frames[0]); err != nil {
		t.Fatal(err)
	}
	if l, ok := m.Lineage("wedged", "retry-1"); !ok || !TerminalStage(l.Stage) {
		t.Fatalf("retried lineage = (%+v, %v)", l, ok)
	}
}

// TestLineageStatusCounters: the TenantStatus lineage accounting matches
// the ring, and the latency histograms populate under the fake clock.
func TestLineageStatusCounters(t *testing.T) {
	reg := telemetry.New()
	cfg := syncConfig("", reg)
	cfg.Logger = discardLogger()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "web-1", 3)
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Tenants()[0]
	if st.LineageMinted != 3 || st.LineageTerminal != 3 || st.LineageEvicted != 0 || st.LineageHeld != 3 {
		t.Fatalf("lineage accounting = %+v", st)
	}
	if st.WindowOldest.IsZero() || st.WindowNewest.Before(st.WindowOldest) {
		t.Fatalf("window age bounds = (%v, %v)", st.WindowOldest, st.WindowNewest)
	}
	snap := reg.Snapshot()
	for _, h := range []string{
		"proraced_stage_ack_seconds",
		"proraced_stage_queue_wait_seconds",
		"proraced_stage_analyze_seconds",
		"proraced_ingest_to_analyzed_seconds",
	} {
		if snap.Histograms[h].Count != 3 {
			t.Fatalf("%s count = %d, want 3\n%+v", h, snap.Histograms[h].Count, snap.Histograms)
		}
	}
	// The fake clock ticks one second per now(): end-to-end latency is
	// strictly positive, so the sum reflects real stage gaps.
	if snap.Histograms["proraced_ingest_to_analyzed_seconds"].Sum <= 0 {
		t.Fatal("ingest-to-analyzed histogram sum not positive")
	}
}

// TestLineageRecovery: lineage IDs persisted in the WAL are reconstructed
// after a restart — the analyzed prefix jumps straight to terminal and a
// journaled-but-unanalyzed suffix replays through the pipeline — and both
// are flagged Recovered.
func TestLineageRecovery(t *testing.T) {
	dir := t.TempDir()
	p, frames := oracleRun(t, "web-1", 4)

	m, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterProgram(p)
	for i, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{Lineage: fmt.Sprintf("prod-%d", i)}, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a segment that was journaled but never analysed: append it
	// behind the crashed daemon's back (the cursor does not cover it).
	w, err := OpenWAL(filepath.Join(dir, "wal"), FsyncPolicy{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("web-1", "late-key", "prod-late", frames[len(frames)-1]); err != nil {
		t.Fatal(err)
	}
	w.Close()

	m2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// Everything is terminal again after recovery (the suffix replayed
	// synchronously), and histories carry the producer's IDs.
	if open := m2.OpenLineages(); len(open) != 0 {
		t.Fatalf("open lineages after recovery: %+v", open)
	}
	lin := m2.Lineages("web-1", 0)
	if len(lin) == 0 {
		t.Fatal("no lineages after recovery")
	}
	byID := map[string]SegmentLineage{}
	for _, l := range lin {
		byID[l.ID] = l
	}
	for _, id := range []string{fmt.Sprintf("prod-%d", len(frames)-1), "prod-late"} {
		l, ok := byID[id]
		if !ok {
			t.Fatalf("lineage %s not reconstructed; have %v", id, keysOf(byID))
		}
		if !l.Recovered || !TerminalStage(l.Stage) || l.JournalIndex == 0 {
			t.Fatalf("recovered lineage %s = %+v", id, l)
		}
	}
	// The replayed suffix went through the pipeline, not straight to
	// terminal: its history shows the journey.
	if l := byID["prod-late"]; l.Stage != StageAnalyzed || len(l.Transitions) < 4 {
		t.Fatalf("replayed suffix lineage = %+v", l)
	}
}

func keysOf(m map[string]SegmentLineage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestStatuszSurface drives /statusz and /tenantz over HTTP: HTML and
// JSON rendering, cache suppression, and the drill-down's error paths.
func TestStatuszSurface(t *testing.T) {
	reg := telemetry.New()
	cfg := syncConfig("", reg)
	cfg.Logger = discardLogger()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "web-1", 3)
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	m.Attach(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// HTML overview.
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("statusz HTML = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("statusz Cache-Control = %q", got)
	}
	for _, want := range []string{"web-1", "proraced", StageAnalyzed} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("statusz page missing %q:\n%s", want, page)
		}
	}

	// JSON overview: at least one tenant row whose lineage tail ends
	// terminal (the CI daemon job scrapes exactly this).
	var s Statusz
	getJSON(t, srv.URL+"/statusz?format=json", &s)
	if s.Service != "proraced" || s.GoVersion == "" || s.PID == 0 || s.UptimeSeconds < 0 {
		t.Fatalf("statusz identity = %+v", s)
	}
	if s.Config.Window != 8 || s.Config.LineageDepth != 256 {
		t.Fatalf("statusz config = %+v", s.Config)
	}
	if len(s.Tenants) != 1 || s.Tenants[0].Tenant != "web-1" {
		t.Fatalf("statusz tenants = %+v", s.Tenants)
	}
	tail := s.Tenants[0].LineageTail
	if len(tail) == 0 || !TerminalStage(tail[len(tail)-1].Stage) {
		t.Fatalf("statusz lineage tail = %+v", tail)
	}

	// The Accept header is an equally good way to ask for JSON.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/statusz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("Accept: application/json got Content-Type %q", ct)
	}

	// Tenant drill-down.
	var tz Tenantz
	getJSON(t, srv.URL+"/tenantz?tenant=web-1&format=json", &tz)
	if tz.Tenant != "web-1" || len(tz.Lineages) != 3 || len(tz.Reports) == 0 {
		t.Fatalf("tenantz = %d lineages, %d reports", len(tz.Lineages), len(tz.Reports))
	}
	for _, l := range tz.Lineages {
		if len(l.Transitions) == 0 || !TerminalStage(l.Stage) {
			t.Fatalf("tenantz lineage = %+v", l)
		}
	}
	resp, _ = http.Get(srv.URL + "/tenantz?tenant=web-1")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), StageAnalyzed) {
		t.Fatalf("tenantz HTML = %d:\n%s", resp.StatusCode, body)
	}
	if resp, _ = http.Get(srv.URL + "/tenantz?tenant=nope"); resp.StatusCode != 404 {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, _ = http.Get(srv.URL + "/tenantz"); resp.StatusCode != 400 {
		t.Fatalf("missing tenant param = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestLineageHeaderPropagation: the client's X-Prorace-Lineage header is
// the ID the daemon's ring keys the history on.
func TestLineageHeaderPropagation(t *testing.T) {
	cfg := syncConfig("", nil)
	cfg.Logger = discardLogger()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mux := http.NewServeMux()
	m.Attach(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	p, frames := oracleRun(t, "web-1", 2)
	m.RegisterProgram(p)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/ingest?tenant=web-1", strings.NewReader(string(frames[0])))
	req.Header.Set(HeaderLineage, "lin-via-header")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	l, ok := m.Lineage("web-1", "lin-via-header")
	if !ok || !TerminalStage(l.Stage) {
		t.Fatalf("header lineage = (%+v, %v)", l, ok)
	}

	// Without the header the daemon mints one (boot-scoped).
	resp, err = http.Post(srv.URL+"/ingest?tenant=web-1", "application/octet-stream", strings.NewReader(string(frames[1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lin := m.Lineages("web-1", 1)
	if len(lin) != 1 || !strings.Contains(lin[0].ID, "-web-1-") {
		t.Fatalf("daemon-minted lineage = %+v", lin)
	}
}
