package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prorace/internal/telemetry"
)

// alertSink is an httptest webhook receiver: it records every payload and
// can fail the first N requests with a chosen status.
type alertSink struct {
	mu       sync.Mutex
	failures int
	status   int
	requests int
	events   []AlertEvent
}

func (s *alertSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if s.requests <= s.failures {
		http.Error(w, "induced failure", s.status)
		return
	}
	body, _ := io.ReadAll(r.Body)
	var ev AlertEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.events = append(s.events, ev)
	w.WriteHeader(http.StatusOK)
}

func (s *alertSink) snapshot() (int, []AlertEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests, append([]AlertEvent(nil), s.events...)
}

// testAlerter builds an alerter with fast retries and a deterministic
// clock (constant time — the token bucket never refills).
func testAlerter(url string, rate int, reg *telemetry.Registry) *alerter {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return newAlerter(AlertConfig{
		URL:           url,
		RatePerMinute: rate,
		MaxAttempts:   4,
		Backoff:       time.Millisecond,
	}, reg, discardLogger(), func() time.Time { return at })
}

// TestAlertFirstSeenOnly: the store is the dedup — one webhook call per
// distinct fingerprint, however many rounds re-observe the race, and a
// restarted daemon stays silent about races its store already holds.
func TestAlertFirstSeenOnly(t *testing.T) {
	sink := &alertSink{}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	dir := t.TempDir()
	p, frames := oracleRun(t, "web-1", 4)

	mkMonitor := func() *Monitor {
		cfg := syncConfig(filepath.Join(dir, "reports.json"), telemetry.New())
		cfg.Logger = discardLogger()
		cfg.Alert = AlertConfig{URL: srv.URL, Backoff: time.Millisecond}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RegisterProgram(p)
		return m
	}
	m := mkMonitor()
	for _, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	distinct := m.Store().Len()
	if distinct == 0 {
		t.Fatal("run produced no races")
	}
	if err := m.Close(); err != nil { // close drains the delivery queue
		t.Fatal(err)
	}
	_, events := sink.snapshot()
	if len(events) != distinct {
		t.Fatalf("delivered %d alerts, want %d (one per distinct race)", len(events), distinct)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if seen[ev.Fingerprint] {
			t.Fatalf("fingerprint %s alerted twice", ev.Fingerprint)
		}
		seen[ev.Fingerprint] = true
		if ev.Tenant != "web-1" || ev.Program != p.Name || ev.Fingerprint == "" {
			t.Fatalf("alert attribution = %+v", ev)
		}
		if !strings.HasPrefix(ev.FirstPC, "0x") || !strings.HasPrefix(ev.SecondPC, "0x") {
			t.Fatalf("alert PCs = %q, %q", ev.FirstPC, ev.SecondPC)
		}
		if ev.Lineage == nil || !TerminalStage(ev.Lineage.Stage) {
			t.Fatalf("alert lineage = %+v", ev.Lineage)
		}
	}

	// Restart on the same store: re-ingesting the same run re-observes
	// every race but first-seen fires nothing.
	m2 := mkMonitor()
	for _, f := range frames {
		if err := m2.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, events := sink.snapshot(); len(events) != distinct {
		t.Fatalf("restart re-alerted: %d events, want %d", len(events), distinct)
	}
}

// TestAlertRetriesOn5xx: transient webhook failures retry with backoff
// until delivery; the counters record the journey.
func TestAlertRetriesOn5xx(t *testing.T) {
	sink := &alertSink{failures: 2, status: http.StatusInternalServerError}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	reg := telemetry.New()
	a := testAlerter(srv.URL, 30, reg)
	a.fire(AlertEvent{Tenant: "t", Fingerprint: "fp-1"})
	a.close()
	requests, events := sink.snapshot()
	if requests != 3 || len(events) != 1 {
		t.Fatalf("delivery = %d requests, %d events; want 3, 1", requests, len(events))
	}
	snap := reg.Snapshot()
	if snap.Counters["proraced_alerts_sent_total"] != 1 || snap.Counters["proraced_alerts_retried_total"] != 2 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestAlertPermanentRejection: a non-429 4xx is final — no retry, counted
// as failed.
func TestAlertPermanentRejection(t *testing.T) {
	sink := &alertSink{failures: 99, status: http.StatusBadRequest}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	reg := telemetry.New()
	a := testAlerter(srv.URL, 30, reg)
	a.fire(AlertEvent{Fingerprint: "fp-1"})
	a.close()
	if requests, _ := sink.snapshot(); requests != 1 {
		t.Fatalf("4xx retried: %d requests", requests)
	}
	snap := reg.Snapshot()
	if snap.Counters["proraced_alerts_failed_total"] != 1 || snap.Counters["proraced_alerts_sent_total"] != 0 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestAlertGivesUpAfterMaxAttempts: a webhook that never recovers burns
// MaxAttempts and is dropped, not queued forever.
func TestAlertGivesUpAfterMaxAttempts(t *testing.T) {
	sink := &alertSink{failures: 99, status: http.StatusServiceUnavailable}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	reg := telemetry.New()
	a := testAlerter(srv.URL, 30, reg)
	a.fire(AlertEvent{Fingerprint: "fp-1"})
	a.close()
	if requests, _ := sink.snapshot(); requests != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts (4)", requests)
	}
	if got := reg.Snapshot().Counters["proraced_alerts_failed_total"]; got != 1 {
		t.Fatalf("proraced_alerts_failed_total = %d", got)
	}
}

// TestAlertRateLimit: with a frozen clock the bucket never refills, so a
// burst beyond RatePerMinute delivers exactly the budget and counts the
// rest as rate-limited.
func TestAlertRateLimit(t *testing.T) {
	sink := &alertSink{}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	reg := telemetry.New()
	a := testAlerter(srv.URL, 2, reg)
	for i := 0; i < 5; i++ {
		a.fire(AlertEvent{Fingerprint: fmt.Sprintf("fp-%d", i)})
	}
	a.close()
	_, events := sink.snapshot()
	if len(events) != 2 {
		t.Fatalf("delivered %d alerts under a budget of 2", len(events))
	}
	snap := reg.Snapshot()
	if snap.Counters["proraced_alerts_ratelimited_total"] != 3 || snap.Counters["proraced_alerts_sent_total"] != 2 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestAlertTokenRefill: advancing the clock refills the bucket at
// RatePerMinute, capped at the burst.
func TestAlertTokenRefill(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := &alerter{
		cfg:    AlertConfig{RatePerMinute: 2},
		now:    func() time.Time { return at },
		tokens: 0,
		refill: at,
	}
	if a.takeToken() {
		t.Fatal("empty bucket granted a token")
	}
	at = at.Add(30 * time.Second) // +1 token
	if !a.takeToken() || a.takeToken() {
		t.Fatal("half-minute refill should grant exactly one token")
	}
	at = at.Add(time.Hour) // cap at burst (2), not 120
	if !a.takeToken() || !a.takeToken() || a.takeToken() {
		t.Fatal("refill not capped at the burst size")
	}
}
