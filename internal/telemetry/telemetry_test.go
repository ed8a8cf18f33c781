package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every method on nil handles — the disabled-
// telemetry configuration every hot path runs with.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", DepthBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	c.AddInt(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if err := h.Merge(h); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || c.Name() != "" {
		t.Fatal("nil metrics must read as zero")
	}
	s := r.Snapshot()
	if s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
	if s.Counter("x") != 0 {
		t.Fatal("nil snapshot Counter must be 0")
	}
	// A span from a nil registry still times its stage, allocation-free.
	sp := r.StartSpan("x")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("nil-registry span measured %v, want at least 1ms", d)
	}
	if n := testing.AllocsPerRun(100, func() { r.StartSpan("x").End() }); n != 0 {
		t.Fatalf("nil-registry span allocated %v times, want 0", n)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WritePrometheus = %q, %v", buf.String(), err)
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil || strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil WriteJSON = %q, %v", buf.String(), err)
	}
}

// TestHistogramBuckets pins the le bucket semantics: an observation lands
// in the first bucket whose upper bound is >= the value, boundary values
// inclusive, and overflow in the +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// 0.5 and 1 → le=1; 1.5 and 2 → le=2; 4 → le=4; 5 and 100 → +Inf.
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0.5+1+1.5+2+4+5+100 {
		t.Errorf("sum = %g", s.Sum)
	}
	if len(s.Bounds) != 3 || len(s.Counts) != 4 {
		t.Errorf("snapshot shape: %d bounds, %d counts", len(s.Bounds), len(s.Counts))
	}
}

// TestHistogramUnsortedBounds: bounds are sorted at creation, so callers
// may pass them in any order.
func TestHistogramUnsortedBounds(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{4, 1, 2})
	h.Observe(1.5)
	s := r.Snapshot().Histograms["h"]
	if s.Bounds[0] != 1 || s.Bounds[1] != 2 || s.Bounds[2] != 4 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("1.5 should land in le=2, counts %v", s.Counts)
	}
}

func TestHistogramMerge(t *testing.T) {
	r := New()
	a := r.Histogram("a", "", []float64{1, 10})
	b := r.Histogram("b", "", []float64{1, 10})
	a.Observe(0.5)
	a.Observe(5)
	b.Observe(5)
	b.Observe(50)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	s := r.Snapshot().Histograms["a"]
	if got := s.Counts; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("merged counts = %v, want [1 2 1]", got)
	}
	if s.Count != 4 || s.Sum != 60.5 {
		t.Errorf("merged count/sum = %d/%g, want 4/60.5", s.Count, s.Sum)
	}

	// Mismatched bucket layouts must refuse to merge, not corrupt.
	short := r.Histogram("short", "", []float64{1})
	if err := a.Merge(short); err == nil {
		t.Error("merging mismatched bucket counts must error")
	}
	shifted := r.Histogram("shifted", "", []float64{2, 10})
	if err := a.Merge(shifted); err == nil {
		t.Error("merging mismatched bucket bounds must error")
	}
	if got := r.Snapshot().Histograms["a"].Count; got != 4 {
		t.Errorf("failed merges must leave the target untouched, count = %d", got)
	}
}

// TestConcurrentCounters hammers one registry from many goroutines; run
// under -race this also proves the handles are safe to share.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve handles inside the goroutine: create-on-first-use
			// must also be concurrency-safe.
			c := r.Counter("c", "")
			h := r.Histogram("h", "", DepthBuckets)
			ga := r.Gauge("g", "")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(i % 16))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["c"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["g"]; got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := s.Histograms["h"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestPrometheusGolden pins the text exposition format: sorted families,
// one HELP/TYPE per family, labelled series merged under their family,
// cumulative histogram buckets with +Inf, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("prorace_b_total", "Counts b.").Add(3)
	r.Counter(Label("prorace_shard_total", "shard", 0), "Per-shard events.").Add(10)
	r.Counter(Label("prorace_shard_total", "shard", 1), "Per-shard events.").Add(20)
	r.Gauge("prorace_a_gauge", "Gauges a.").Set(-7)
	h := r.Histogram("prorace_lat_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP prorace_a_gauge Gauges a.
# TYPE prorace_a_gauge gauge
prorace_a_gauge -7
# HELP prorace_b_total Counts b.
# TYPE prorace_b_total counter
prorace_b_total 3
# HELP prorace_lat_seconds Latency.
# TYPE prorace_lat_seconds histogram
prorace_lat_seconds_bucket{le="1"} 1
prorace_lat_seconds_bucket{le="2"} 2
prorace_lat_seconds_bucket{le="+Inf"} 3
prorace_lat_seconds_sum 101
prorace_lat_seconds_count 3
# HELP prorace_shard_total Per-shard events.
# TYPE prorace_shard_total counter
prorace_shard_total{shard="0"} 10
prorace_shard_total{shard="1"} 20
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total", "shard", 3); got != `x_total{shard="3"}` {
		t.Errorf("Label = %s", got)
	}
	if got := withLabel(`x{shard="3"}`, "le", "1"); got != `x{shard="3",le="1"}` {
		t.Errorf("withLabel = %s", got)
	}
	if got := familyOf(`x_total{shard="3"}`); got != "x_total" {
		t.Errorf("familyOf = %s", got)
	}
}

// TestTimelineStructure validates the chrome://tracing artifact: complete
// trace-event objects with the X phase, microsecond timestamps, and span
// tracks mapped to tids.
func TestTimelineStructure(t *testing.T) {
	r := New()
	outer := r.StartSpan("analyze")
	inner := r.StartSpanTrack("reconstruct t3", 4)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	var buf strings.Builder
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Dur <= 0 && e.Name == "reconstruct t3" {
			t.Errorf("event %q dur = %v, want > 0", e.Name, e.Dur)
		}
	}
	an, ok := byName["analyze"]
	rec, ok2 := byName["reconstruct t3"]
	if !ok || !ok2 {
		t.Fatalf("missing events: %v", byName)
	}
	if doc.TraceEvents[an].Tid != 0 || doc.TraceEvents[rec].Tid != 4 {
		t.Errorf("tracks: analyze tid %d (want 0), reconstruct tid %d (want 4)",
			doc.TraceEvents[an].Tid, doc.TraceEvents[rec].Tid)
	}
	if doc.TraceEvents[an].Dur < doc.TraceEvents[rec].Dur {
		t.Error("outer span should not be shorter than the inner one")
	}
}

// TestCounterReuse: the registry hands back the same handle for a name, so
// independently resolved handles accumulate into one series.
func TestCounterReuse(t *testing.T) {
	r := New()
	r.Counter("c", "").Add(2)
	r.Counter("c", "ignored later help").Add(3)
	if got := r.Snapshot().Counter("c"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c", "").Name() != "c" {
		t.Fatal("Name mismatch")
	}
}

// TestAddInt ignores non-positive deltas (result-struct ints).
func TestAddInt(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	c.AddInt(-5)
	c.AddInt(0)
	c.AddInt(7)
	if c.Value() != 7 {
		t.Fatalf("value = %d, want 7", c.Value())
	}
}

// TestDefaultRegistry covers the process-wide fallback the cmds install.
func TestDefaultRegistry(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("expected no default registry")
	}
	r1 := EnableDefault()
	if r1 == nil || Default() != r1 {
		t.Fatal("EnableDefault must install a registry")
	}
	if r2 := EnableDefault(); r2 != r1 {
		t.Fatal("EnableDefault must reuse the installed registry")
	}
}
