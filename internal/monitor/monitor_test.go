package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/race"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// oracleRun traces a small oracle-generated concurrent program and frames
// it as n PRSG segments from the given tenant — a complete producer-side
// run, ready to stream at a Monitor.
func oracleRun(t *testing.T, tenant string, n int) (*prog.Program, [][]byte) {
	t.Helper()
	p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(7)))
	tr, err := core.TraceProgram(p, core.TraceOptions{Kind: driver.ProRace, Period: 2, Seed: 7, EnablePT: true})
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Trace.Split(n)
	frames := make([][]byte, len(segs))
	for i, seg := range segs {
		frames[i] = tracefmt.EncodeSegment(tracefmt.SegmentHeader{
			Seq:    uint64(i),
			Tenant: tenant,
			Final:  i == len(segs)-1,
		}, seg)
	}
	return p, frames
}

// syncConfig is the deterministic test configuration: no worker pool
// (rounds run inline in Ingest) and a ticking fake clock. The tick counter
// is package-global so a "restarted" monitor's clock continues where the
// previous one stopped, as a real wall clock would.
var fakeTicks = 0

func syncConfig(storePath string, reg *telemetry.Registry) Config {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return Config{
		Window:    8,
		StorePath: storePath,
		Telemetry: reg,
		Now: func() time.Time {
			fakeTicks++
			return base.Add(time.Duration(fakeTicks) * time.Second)
		},
	}
}

// TestDaemonLifecycle is the ISSUE's lifecycle contract: ingest a run,
// snapshot the store, restart the daemon on the same store path, re-ingest
// the same run, and verify the races dedup into the same rows with bumped
// occurrence counts — not duplicate rows.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "reports.json")
	p, frames := oracleRun(t, "web-1", 4)

	m, err := New(syncConfig(store, telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	first := m.Store().Reports()
	if len(first) == 0 {
		t.Fatal("no races stored after first run")
	}
	for _, r := range first {
		if r.Occurrences < 1 {
			t.Fatalf("report %s has occurrences %d", r.Fingerprint, r.Occurrences)
		}
		if r.Tenant != "web-1" || r.Program != p.Name {
			t.Fatalf("report attribution = (%q, %q), want (web-1, %q)", r.Tenant, r.Program, p.Name)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh monitor on the same store path must reload every
	// stored race.
	m2, err := New(syncConfig(store, telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got, want := m2.Store().Len(), len(first); got != want {
		t.Fatalf("store reload: %d reports, want %d", got, want)
	}
	m2.RegisterProgram(p)
	for _, f := range frames {
		if err := m2.IngestWith("web-1", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	second := m2.Store().Reports()
	if len(second) != len(first) {
		t.Fatalf("re-ingest created rows: %d reports, want %d", len(second), len(first))
	}
	for i, r := range second {
		if r.Fingerprint != first[i].Fingerprint {
			t.Fatalf("report %d fingerprint changed across restart: %s vs %s", i, r.Fingerprint, first[i].Fingerprint)
		}
		if r.Occurrences <= first[i].Occurrences {
			t.Fatalf("report %s occurrences did not increase: %d -> %d", r.Fingerprint, first[i].Occurrences, r.Occurrences)
		}
		if !r.FirstSeen.Equal(first[i].FirstSeen) {
			t.Fatalf("report %s first-seen changed across restart", r.Fingerprint)
		}
		if !r.LastSeen.After(first[i].LastSeen) {
			t.Fatalf("report %s last-seen did not advance", r.Fingerprint)
		}
	}
}

// TestCorruptSegmentIsolation: a corrupt frame degrades its own tenant's
// record and nothing else — the other tenant's stream analyses normally
// and the daemon stays up.
func TestCorruptSegmentIsolation(t *testing.T) {
	reg := telemetry.New()
	m, err := New(syncConfig("", reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "good", 2)
	m.RegisterProgram(p)

	corrupt := append([]byte(nil), frames[0]...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := m.IngestWith("bad", IngestMeta{}, corrupt); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("corrupt ingest error = %v, want ErrCorruptSegment", err)
	}
	for _, f := range frames {
		if err := m.IngestWith("good", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	if m.Store().Len() == 0 {
		t.Fatal("healthy tenant produced no reports after another tenant's corrupt segment")
	}
	var bad, good TenantStatus
	for _, st := range m.Tenants() {
		switch st.Tenant {
		case "bad":
			bad = st
		case "good":
			good = st
		}
	}
	if bad.Corrupt != 1 || bad.LastError == "" {
		t.Fatalf("bad tenant degradation not recorded: %+v", bad)
	}
	if good.Corrupt != 0 || good.Analyses == 0 || good.LastError != "" {
		t.Fatalf("good tenant affected by bad tenant: %+v", good)
	}
	if got := reg.Snapshot().Counters["proraced_segments_corrupt_total"]; got != 1 {
		t.Fatalf("proraced_segments_corrupt_total = %d, want 1", got)
	}
}

// TestQueueAdmission: with the worker pool wedged behind a slow round, a
// tenant's pending queue fills and further ingests are rejected with
// ErrQueueFull instead of buffering without bound.
func TestQueueAdmission(t *testing.T) {
	m, err := New(Config{Window: 4, QueueDepth: 2, Workers: 0, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, frames := oracleRun(t, "t", 2)
	m.RegisterProgram(p)
	// Bypass the synchronous drain by stuffing pending directly: decode
	// the frame once and enqueue copies up to the depth.
	_, seg, err := tracefmt.DecodeSegment(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	ten := m.tenantFor("t")
	ten.pending = append(ten.pending, ingestSeg{seg: seg}, ingestSeg{seg: seg})
	if err := m.IngestWith("t", IngestMeta{}, frames[1]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("ingest into full queue = %v, want ErrQueueFull", err)
	}
	st := m.Tenants()[0]
	if st.QueueDrops != 1 {
		t.Fatalf("queue drops = %d, want 1", st.QueueDrops)
	}
}

// TestUnknownProgram: a segment naming an unresolvable program is rejected
// against its tenant.
func TestUnknownProgram(t *testing.T) {
	m, err := New(syncConfig("", telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := tracefmt.NewTrace("no-such-program", 2, 7)
	frame := tracefmt.EncodeSegment(tracefmt.SegmentHeader{}, tr)
	if err := m.IngestWith("t", IngestMeta{}, frame); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("unknown-program ingest = %v, want ErrUnknownProgram", err)
	}
}

// TestWorkerPool streams two tenants' runs through an asynchronous pool
// in a burst (every segment queued before one Wait) and verifies
// quiescence and the store contents that hold under any batching. How the
// workers group pending segments into rounds decides which prefixes of the
// run get analysed, and a round over a prefix can report races the whole
// run does not contain (DESIGN.md §13), so the per-tenant sets may differ.
// What every schedule shares is the last round per tenant, which covers
// the whole run: each tenant's store must contain that round's set.
func TestWorkerPool(t *testing.T) {
	reg := telemetry.New()
	m, err := New(Config{Window: 8, QueueDepth: 32, Workers: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, frames := oracleRun(t, "a", 4)
	m.RegisterProgram(p)
	for _, f := range frames {
		if err := m.IngestWith("a", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
		if err := m.IngestWith("b", IngestMeta{}, f); err != nil {
			t.Fatal(err)
		}
	}
	m.Wait()
	for _, st := range m.Tenants() {
		if st.PendingSegments != 0 {
			t.Fatalf("tenant %s has %d pending segments after Wait", st.Tenant, st.PendingSegments)
		}
	}
	if m.Store().Len() == 0 {
		t.Fatal("no reports after pooled ingestion")
	}
	// The whole-run round, as a synchronous daemon runs it when the run
	// arrives as one segment.
	whole, err := New(syncConfig("", telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	wp, wframes := oracleRun(t, "a", 1)
	whole.RegisterProgram(wp)
	for _, tenant := range []string{"a", "b"} {
		if err := whole.IngestWith(tenant, IngestMeta{}, wframes[0]); err != nil {
			t.Fatal(err)
		}
	}
	want := storedFingerprints(whole.Store())
	if len(want) == 0 {
		t.Fatal("whole-run round reports no races")
	}
	got := storedFingerprints(m.Store())
	for _, fp := range want {
		if !slices.Contains(got, fp) {
			t.Fatalf("pooled store %v misses whole-run race %s", got, fp)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.IngestWith("a", IngestMeta{}, frames[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close = %v, want ErrClosed", err)
	}
}

// TestWorkerPoolPerSegment waits for the pool after each segment, so
// every round covers exactly one new segment, as a synchronous Ingest
// does; the pooled store must then equal the synchronous daemon's, and
// both tenants, having seen the same run, hold the same number of races
// (fingerprints are tenant-scoped).
func TestWorkerPoolPerSegment(t *testing.T) {
	m, err := New(Config{Window: 8, QueueDepth: 32, Workers: 2, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inline, err := New(syncConfig("", telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer inline.Close()
	p, frames := oracleRun(t, "a", 4)
	m.RegisterProgram(p)
	inline.RegisterProgram(p)
	for _, f := range frames {
		for _, tenant := range []string{"a", "b"} {
			if err := m.IngestWith(tenant, IngestMeta{}, f); err != nil {
				t.Fatal(err)
			}
			if err := inline.IngestWith(tenant, IngestMeta{}, f); err != nil {
				t.Fatal(err)
			}
		}
		m.Wait()
	}
	byTenant := map[string]int{}
	for _, r := range m.Store().Reports() {
		byTenant[r.Tenant]++
	}
	if byTenant["a"] == 0 || byTenant["a"] != byTenant["b"] {
		t.Fatalf("per-tenant report counts diverge: %v", byTenant)
	}
	if got, want := storedFingerprints(m.Store()), storedFingerprints(inline.Store()); !slices.Equal(got, want) {
		t.Fatalf("pooled store %v, synchronous store %v", got, want)
	}
}

// TestStoreObserveDedup exercises the store in isolation: same race twice
// is one row with two occurrences; an unattributed observation (empty
// tenant and program) is a row of its own.
func TestStoreObserveDedup(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	r := race.Report{
		Addr:   0x1000,
		First:  race.AccessInfo{TID: 1, PC: 0x40, Write: true, TSC: 10},
		Second: race.AccessInfo{TID: 2, PC: 0x80, Write: false, TSC: 20},
	}
	fresh, repeated, err := s.ObserveNewAt("t", "p", []race.Report{r}, 0)
	if err != nil || len(fresh) != 1 || repeated != 0 {
		t.Fatalf("first observe = (%d, %d, %v), want (1, 0, nil)", len(fresh), repeated, err)
	}
	// A later occurrence of the same PC pair at a different address and
	// time still dedups (heap addresses shift between runs).
	r2 := r
	r2.Addr = 0x2000
	r2.First.TSC, r2.Second.TSC = 100, 200
	r2.First, r2.Second = r2.Second, r2.First // unordered pair
	fresh, repeated, err = s.ObserveNewAt("t", "p", []race.Report{r2}, 0)
	if err != nil || len(fresh) != 0 || repeated != 1 {
		t.Fatalf("second observe = (%d, %d, %v), want (0, 1, nil)", len(fresh), repeated, err)
	}
	if got := s.Reports()[0].Occurrences; got != 2 {
		t.Fatalf("occurrences = %d, want 2", got)
	}
	// Different tenant: separate row.
	if fresh, _, _ := s.ObserveNewAt("other", "p", []race.Report{r}, 0); len(fresh) != 1 {
		t.Fatal("tenant should scope fingerprints")
	}
	if _, _, err := s.ObserveNewAt("", "", []race.Report{r}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("store rows = %d, want 3 (unattributed publish adds one)", s.Len())
	}
}

// TestStoreCorruptFile: a damaged store file is salvaged — the daemon
// starts fresh with the damaged original preserved next to the store and a
// warning recorded — rather than refusing to boot and leaving the fleet
// unmonitored.
func TestStoreCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reports.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatalf("corrupt store was not salvaged: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("salvaged store has %d reports, want 0", s.Len())
	}
	if s.LoadWarning() == "" {
		t.Fatal("salvage left no load warning")
	}
	backup, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("damaged original not preserved: %v", err)
	}
	if string(backup) != "{not json" {
		t.Fatalf("preserved backup altered: %q", backup)
	}
	// The fresh store persists over the old path.
	if _, _, err := s.ObserveNewAt("t", "p", []race.Report{{
		First:  race.AccessInfo{TID: 1, PC: 0x40, Write: true},
		Second: race.AccessInfo{TID: 2, PC: 0x80},
	}}, 0); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil || s2.Len() != 1 || s2.LoadWarning() != "" {
		t.Fatalf("reopen after salvage = (%v, %d reports, warning %q)", err, s2.Len(), s2.LoadWarning())
	}
}

// TestHTTPSurface drives the daemon end to end over HTTP: program upload,
// segment ingest (including a corrupt frame and a missing tenant), report
// and tenant listing, and the co-hosted /metrics families.
func TestHTTPSurface(t *testing.T) {
	reg := telemetry.New()
	m, err := New(syncConfig("", reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mux := telemetry.NewMux(reg)
	m.Attach(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p, frames := oracleRun(t, "web-1", 3)

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// The program is not resolvable until uploaded.
	if resp := post("/ingest?tenant=web-1", frames[0]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-upload ingest status = %d, want 400", resp.StatusCode)
	}
	if resp := post("/program", prog.EncodeImage(p)); resp.StatusCode != http.StatusOK {
		t.Fatalf("program upload status = %d", resp.StatusCode)
	}
	for _, f := range frames {
		if resp := post("/ingest?tenant=web-1", f); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
		}
	}
	if resp := post("/ingest", frames[0]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tenantless ingest status = %d, want 400", resp.StatusCode)
	}
	corrupt := append([]byte(nil), frames[0]...)
	corrupt[10] ^= 0xFF
	if resp := post("/ingest?tenant=web-1", corrupt); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt ingest status = %d, want 400", resp.StatusCode)
	}

	var stored []*StoredReport
	getJSON(t, srv.URL+"/reports", &stored)
	if len(stored) == 0 {
		t.Fatal("GET /reports returned no races")
	}
	var tenants []TenantStatus
	getJSON(t, srv.URL+"/tenants", &tenants)
	if len(tenants) != 1 || tenants[0].Tenant != "web-1" || tenants[0].Corrupt != 1 {
		t.Fatalf("GET /tenants = %+v", tenants)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	families := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "proraced_") && !strings.HasSuffix(line, " 0") {
			families++
		}
	}
	if families < 5 {
		t.Fatalf("only %d non-zero proraced_* series on /metrics:\n%s", families, raw)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v\n%s", url, err, raw)
	}
}
