package monitor

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"prorace/internal/prog"
	"prorace/internal/telemetry"
)

// occurrences reduces a store to its chaos-equivalence view: fingerprint
// -> occurrence count.
func occurrences(s *Store) map[string]int {
	out := map[string]int{}
	for _, r := range s.Reports() {
		out[r.Fingerprint] = r.Occurrences
	}
	return out
}

func sameOccurrences(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("report sets differ: %d vs %d fingerprints", len(got), len(want))
	}
	for fp, n := range want {
		if got[fp] != n {
			t.Fatalf("fingerprint %s: %d occurrences, want %d", fp, got[fp], n)
		}
	}
}

// durableConfig is syncConfig plus a journal.
func durableConfig(dir string) Config {
	cfg := syncConfig(filepath.Join(dir, "reports.json"), telemetry.New())
	cfg.Window = 4
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.Logger = discardLogger()
	return cfg
}

// TestRecoveryReplay is the heart of the durability contract: segments
// that were journaled and acknowledged but never analysed (the daemon
// died first) are replayed at boot through the normal ingest path, and
// the resulting store — fingerprints AND occurrence counts — is identical
// to an uninterrupted run's.
func TestRecoveryReplay(t *testing.T) {
	p, frames := oracleRun(t, "web-1", 6)

	// Uninterrupted baseline.
	base, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	base.RegisterProgram(p)
	for _, f := range frames {
		if err := base.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	want := occurrences(base.Store())
	if len(want) == 0 {
		t.Fatal("baseline produced no races")
	}
	base.Close()

	// Crashed daemon: everything reached the journal (the producer was
	// acknowledged) but nothing was ever analysed — the worst-case suffix.
	dir := t.TempDir()
	cfg := durableConfig(dir)
	w, err := OpenWAL(cfg.WALDir, FsyncPolicy{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveProgram(p.Name, prog.EncodeImage(p)); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if _, err := w.Append("web-1", fmt.Sprintf("run-%d", i), fmt.Sprintf("lin-%d", i), f); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sameOccurrences(t, occurrences(m.Store()), want)
	st := m.Tenants()[0]
	if st.Replayed != uint64(len(frames)) {
		t.Fatalf("replayed = %d, want %d", st.Replayed, len(frames))
	}
	if got := cfg.Telemetry.Snapshot().Counters["proraced_recovery_replayed_total"]; got != uint64(len(frames)) {
		t.Fatalf("proraced_recovery_replayed_total = %d, want %d", got, len(frames))
	}
	// The replayed keys were re-learned, so a producer retry of an already
	// accepted segment still dedups after the restart.
	if err := m.IngestWith("web-1", IngestMeta{Key: "run-2"}, frames[2]); err != nil {
		t.Fatal(err)
	}
	if got := m.Tenants()[0].Duplicates; got != 1 {
		t.Fatalf("post-recovery resend duplicates = %d, want 1", got)
	}
	sameOccurrences(t, occurrences(m.Store()), want)
}

// TestRecoveryAfterCleanShutdown: a drained daemon leaves nothing to
// replay — the cursor covers the whole journal, the rolling window is
// rebuilt silently, and the store is untouched by the restart.
func TestRecoveryAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	p, frames := oracleRun(t, "web-1", 6)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterProgram(p)
	for i, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{Key: fmt.Sprintf("k%d", i)}, f); err != nil {
			t.Fatal(err)
		}
	}
	want := occurrences(m.Store())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := durableConfig(dir)
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sameOccurrences(t, occurrences(m2.Store()), want)
	st := m2.Tenants()[0]
	if st.Replayed != 0 {
		t.Fatalf("clean shutdown still replayed %d segments", st.Replayed)
	}
	if st.WindowSegments == 0 {
		t.Fatal("rolling window not rebuilt after restart")
	}
	// The stream continues where it left off: the next segment analyses
	// against the rebuilt window, without bootstrapping from scratch.
	if err := m2.IngestWith("web-1", IngestMeta{Key: "k-next"}, frames[len(frames)-1]); err != nil {
		t.Fatal(err)
	}
	if got := m2.Tenants()[0].Analyses; got != 1 {
		t.Fatalf("analyses after restart = %d, want 1", got)
	}
}

// TestGracefulDrainNoLoss: Close with a live worker pool lets every
// queued round finish and persists store + cursors, so a restart finds
// zero accepted segments to replay — the SIGTERM drain contract.
func TestGracefulDrainNoLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Workers = 2
	cfg.Now = nil // real clock: concurrent workers + fake tick counter would race
	p, frames := oracleRun(t, "web-1", 6)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	// No Wait: Close itself must drain the queue before persisting.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Store().Len() == 0 {
		t.Fatal("drain persisted no races")
	}
	want := occurrences(m.Store())

	cfg2 := durableConfig(dir)
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st := m2.Tenants()[0]; st.Replayed != 0 {
		t.Fatalf("drain lost segments: %d replayed at restart", st.Replayed)
	}
	sameOccurrences(t, occurrences(m2.Store()), want)
}

// TestRecoveryTornTail: a journal whose last record was torn by a crash
// boots with the tail truncated and the damage recorded as tenant
// degradation — never a failed start. The torn segment was never
// acknowledged, so losing it is correct.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	p, frames := oracleRun(t, "web-1", 4)
	w, err := OpenWAL(cfg.WALDir, FsyncPolicy{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SaveProgram(p.Name, prog.EncodeImage(p))
	for _, f := range frames {
		if _, err := w.Append("web-1", "", "", f); err != nil {
			t.Fatal(err)
		}
	}
	j, _ := w.journalFor("web-1")
	// Model the crash mid-append: chop the final record in half.
	tear := int64(walRecordLen(walVersion, "", "", frames[len(frames)-1]) / 2)
	if err := j.f.Truncate(j.size - tear); err != nil {
		t.Fatal(err)
	}
	w.Close()

	m, err := New(cfg)
	if err != nil {
		t.Fatalf("torn journal failed the boot: %v", err)
	}
	defer m.Close()
	st := m.Tenants()[0]
	if st.Replayed != uint64(len(frames)-1) {
		t.Fatalf("replayed = %d, want %d (the torn record is gone)", st.Replayed, len(frames)-1)
	}
	if st.Salvage == "" {
		t.Fatal("journal salvage left no degradation record")
	}
	snap := cfg.Telemetry.Snapshot().Counters
	if snap["proraced_wal_salvaged_bytes_total"] == 0 {
		t.Fatalf("salvage telemetry missing: %v", snap)
	}
}

// TestIdempotentResend: the same key twice is acknowledged twice but
// ingested once — the producer-retry contract.
func TestIdempotentResend(t *testing.T) {
	m, err := New(syncConfig("", telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "t", 2)
	m.RegisterProgram(p)
	if err := m.IngestWith("t", IngestMeta{Key: "abc"}, frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.IngestWith("t", IngestMeta{Key: "abc"}, frames[0]); err != nil {
		t.Fatal(err)
	}
	st := m.Tenants()[0]
	if st.Segments != 1 || st.Duplicates != 1 {
		t.Fatalf("segments=%d duplicates=%d, want 1/1", st.Segments, st.Duplicates)
	}
	// A different key for the same bytes is a deliberate re-send: ingested.
	if err := m.IngestWith("t", IngestMeta{Key: "def"}, frames[0]); err != nil {
		t.Fatal(err)
	}
	if st := m.Tenants()[0]; st.Segments != 2 {
		t.Fatalf("distinct-key resend not ingested: %+v", st)
	}
}

// TestWindowRetirement: segments age out of the rolling window by wall
// clock — actively at round start, and via Sweep for idle tenants.
func TestWindowRetirement(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := base
	reg := telemetry.New()
	m, err := New(Config{
		Window:       8,
		WindowMaxAge: time.Minute,
		Telemetry:    reg,
		Now:          func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "t", 2)
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("t", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	if st := m.Tenants()[0]; st.WindowSegments != 2 {
		t.Fatalf("window = %d segments, want 2", st.WindowSegments)
	}
	// Nothing old enough yet: Sweep is a no-op.
	if dropped := m.Sweep(); dropped != 0 {
		t.Fatalf("premature Sweep dropped %d", dropped)
	}
	now = now.Add(2 * time.Minute)
	if dropped := m.Sweep(); dropped != 2 {
		t.Fatalf("Sweep dropped %d, want 2", dropped)
	}
	st := m.Tenants()[0]
	if st.WindowSegments != 0 || st.Retired != 2 {
		t.Fatalf("after sweep: %+v", st)
	}
	snap := reg.Snapshot().Counters
	if snap["proraced_window_segments_expired_total"] != 2 || snap["proraced_windows_retired_total"] != 1 {
		t.Fatalf("retirement counters = %v", snap)
	}
	// An aged window also retires at the next round: a fresh segment
	// analyses alone instead of against stale history.
	if err := m.IngestWith("t", IngestMeta{}, frames[0]); err != nil {
		t.Fatal(err)
	}
	if st := m.Tenants()[0]; st.WindowSegments != 1 {
		t.Fatalf("window after retirement + ingest = %d segments, want 1", st.WindowSegments)
	}
}

// TestHTTPDurabilitySurface covers the hardened HTTP edges: body size cap
// (413), Retry-After on overload responses, and the key query parameter.
func TestHTTPDurabilitySurface(t *testing.T) {
	reg := telemetry.New()
	cfg := syncConfig("", reg)
	cfg.MaxBodyBytes = 1024
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	m.Attach(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p, frames := oracleRun(t, "web-1", 2)

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("/ingest?tenant=t", make([]byte, 4096)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	cfg.MaxBodyBytes = 256 << 20
	m.cfg.MaxBodyBytes = 256 << 20 // frames are larger than the tiny test cap
	if resp := post("/program", prog.EncodeImage(p)); resp.StatusCode != http.StatusOK {
		t.Fatalf("program upload status = %d", resp.StatusCode)
	}
	// Keyed ingest: both sends are acknowledged, one segment lands.
	if resp := post("/ingest?tenant=t&key=x1", frames[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed ingest status = %d", resp.StatusCode)
	}
	if resp := post("/ingest?tenant=t&key=x1", frames[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed resend status = %d", resp.StatusCode)
	}
	if st := m.Tenants()[0]; st.Segments != 1 || st.Duplicates != 1 {
		t.Fatalf("keyed resend landed twice: %+v", st)
	}
	// A draining daemon answers 503 with Retry-After so the producer
	// backs off instead of failing the stream.
	m.Close()
	resp := post("/ingest?tenant=t&key=x2", frames[1])
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drained ingest = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
