// Package telemetry is the pipeline's zero-dependency metrics layer:
// atomic counters, gauges and bucketed histograms collected in a named
// Registry, plus lightweight stage spans (span.go) that render as a
// chrome://tracing timeline. The Registry is exposed three ways — the
// Snapshot API merged into core.AnalysisResult.Telemetry, the Prometheus
// text / expvar-style JSON endpoints of Serve (expose.go), and the
// -timeline trace-event artifact.
//
// # Design rules
//
// Every method on every metric type and on the Registry itself is nil-safe:
// calling Add, Observe... on a nil receiver is a no-op, and a span started
// on a nil registry only times its stage (spans are values). Hot
// paths therefore resolve their metric handles once (at engine or detector
// construction) and call through possibly-nil pointers unconditionally —
// with telemetry disabled the handles are nil and the instrumented paths
// allocate nothing and branch on a single nil check (guarded by the
// AllocsPerRun tests in internal/replay and internal/race).
//
// Counter values derived from the pipeline are deterministic wherever the
// pipeline is: for a given (program, seed) the prorace_driver_*,
// prorace_ptdecode_*, prorace_synthesis_*, prorace_replay_* and
// prorace_detect_*_total series are reproducible bit-for-bit across
// Workers/path-cache configurations. Span durations and the stage-latency
// histograms measure wall clock and are inherently non-deterministic.
//
// # Mapping from the scattered result counters
//
// The pre-telemetry result structs remain the source of truth and are not
// deprecated; the registry folds them into one scrapeable namespace:
//
//   - replay.Stats{Sampled, Forward, Backward, BasicBlock, PathSteps,
//     MemSteps, InvalidHits} → prorace_replay_accesses_sampled_total,
//     _forward_total, _backward_total, _bb_total, prorace_replay_path_steps_total,
//     _mem_steps_total, _invalid_hits_total.
//   - core.AnalysisResult.DecodeCacheHit → prorace_synthesis_cache_hits_total /
//     prorace_synthesis_cache_misses_total (one increment per analysis).
//   - tracefmt.SalvageInfo{Truncated, TornBytes, DroppedPEBS, DroppedSync,
//     DroppedPTBytes} → prorace_trace_salvage_truncated_total,
//     _torn_bytes_total, _dropped_pebs_total, _dropped_sync_total,
//     _dropped_pt_bytes_total, plus prorace_trace_salvage_runs_total per
//     degraded decode (published by cmd/prorace, which owns container
//     decoding).
//   - core.Degradation{ThreadErrors, DroppedThreads, CorruptPTPackets,
//     DecodeGaps, PTBytesSkipped, UnpinnedSamples, SyncAnomalies,
//     GapAdjacentRaces, InvalidTIDDrops} → prorace_analysis_thread_errors_total,
//     _dropped_threads_total, prorace_ptdecode_corrupt_packets_total,
//     _psb_resyncs_total, _gap_bytes_total, prorace_synthesis_samples_unpinned_total,
//     prorace_analysis_sync_anomalies_total, _gap_adjacent_reports_total,
//     _invalid_tid_drops_total.
//
// The full metric-name catalogue lives in DESIGN.md §12.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// unusable; obtain counters from a Registry. All methods are no-ops on a
// nil receiver.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// AddInt adds n if it is positive (result-struct fields are ints).
func (c *Counter) AddInt(n int) {
	if c != nil && n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered metric name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an atomic instantaneous value. All methods are no-ops on a nil
// receiver.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-boundary bucketed distribution: observation i lands
// in the first bucket whose upper bound satisfies v <= bound (Prometheus
// "le" semantics), with an implicit +Inf overflow bucket. All methods are
// no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	name    string
	help    string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge adds o's per-bucket counts, total count and sum into h. The two
// histograms must share identical bucket boundaries.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("telemetry: merging histograms with %d vs %d buckets", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("telemetry: merging histograms with mismatched bucket %d (%g vs %g)", i, b, o.bounds[i])
		}
	}
	var sum float64
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	sum = math.Float64frombits(o.sumBits.Load())
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Default bucket sets. Deliberately small: histograms here summarise whole
// analyses, not per-request latencies.
var (
	// DurationBuckets covers stage latencies from 100µs to ~100s.
	DurationBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 30, 100}
	// SizeBuckets covers byte sizes from 1KiB to 1GiB, ×8 per step.
	SizeBuckets = []float64{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 30}
	// DepthBuckets covers small queue depths.
	DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}
)

// Registry is a named collection of metrics plus a span log. The zero
// value is not usable; call New. A nil *Registry is a valid "telemetry
// disabled" handle: every method returns a zero value or nil metric whose
// own methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	epoch  time.Time
	spanMu sync.Mutex
	spans  []SpanEvent
}

// New returns an empty registry whose span clock starts now.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		epoch:    time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; +Inf is implicit) on first use. Later calls
// return the existing histogram regardless of bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1), name: name, help: help}
	r.hists[name] = h
	return h
}

// Label renders a single-label metric name, e.g.
// Label("prorace_example_events_total", "thread", 3) →
// `prorace_example_events_total{thread="3"}`. The registry keys
// labelled series by the rendered name, so each label value is its own
// metric handle.
func Label(name, key string, value int) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, fmt.Sprint(value))
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds; Counts has one extra
	// trailing entry for the +Inf bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of a registry: every counter, gauge and
// histogram value plus the completed stage spans. It is plain data — safe
// to retain, compare and serialise after the analysis that produced it.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      []SpanEvent                  `json:"spans,omitempty"`
}

// Snapshot freezes the registry's current state. Returns nil on a nil
// registry (the disabled-telemetry AnalysisResult carries a nil snapshot).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	r.mu.Unlock()
	r.spanMu.Lock()
	s.Spans = append([]SpanEvent(nil), r.spans...)
	r.spanMu.Unlock()
	return s
}

// Counter returns the snapshotted value of a counter (0 if absent or nil).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// process-wide default registry, installed by the cmds' -metrics-addr /
// -timeline flags (or EnableDefault). core falls back to it when the
// per-call options carry no registry, so telemetry reaches pipeline runs
// made by code that predates the option (the experiments harness, the
// oracle). Default() is one atomic load; when nothing installed it, the
// whole pipeline sees nil handles and pays nothing.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when none has been
// installed.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs r as the process-wide registry (nil uninstalls).
func SetDefault(r *Registry) { defaultReg.Store(r) }

// EnableDefault installs and returns a process-wide registry, reusing the
// current one if already installed.
func EnableDefault() *Registry {
	for {
		if r := defaultReg.Load(); r != nil {
			return r
		}
		r := New()
		if defaultReg.CompareAndSwap(nil, r) {
			return r
		}
	}
}
