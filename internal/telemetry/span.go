package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// SpanEvent is one completed stage span: a named interval on a track.
// Start is relative to the registry's epoch, so a snapshot's spans are
// directly comparable and render on a shared timeline. Track groups spans
// into lanes (0 = the pipeline's top-level stages; per-thread work uses
// 1+TID).
type SpanEvent struct {
	Name  string        `json:"name"`
	Track int           `json:"track"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// Span is an in-flight stage span; End completes it, appends it to the
// registry's span log and returns its duration. A Span from a nil registry
// still times its stage but records nothing, so callers read one clock
// whether telemetry is on or off. The zero Span records nothing either.
type Span struct {
	r     *Registry
	name  string
	track int
	t0    time.Time
}

// StartSpan opens a span on track 0. On a nil registry it only reads the
// clock: spans are values, so no registry means no allocation.
func (r *Registry) StartSpan(name string) Span { return r.StartSpanTrack(name, 0) }

// StartSpanTrack opens a span on an explicit track lane.
func (r *Registry) StartSpanTrack(name string, track int) Span {
	return Span{r: r, name: name, track: track, t0: time.Now()}
}

// End completes the span and returns its duration.
func (s Span) End() time.Duration {
	d := time.Since(s.t0)
	if s.r == nil {
		return d
	}
	ev := SpanEvent{
		Name:  s.name,
		Track: s.track,
		Start: s.t0.Sub(s.r.epoch),
		Dur:   d,
	}
	s.r.spanMu.Lock()
	s.r.spans = append(s.r.spans, ev)
	s.r.spanMu.Unlock()
	return d
}

// traceEvent is one chrome://tracing "complete" event (ph="X"); ts and dur
// are microseconds.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// timelineFile is the trace-event container format chrome://tracing and
// https://ui.perfetto.dev load directly.
type timelineFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTimeline renders the completed spans as a chrome://tracing
// trace-event JSON document. Tracks map to tids, so top-level stages and
// per-thread work appear as separate lanes.
func (r *Registry) WriteTimeline(w io.Writer) error {
	var spans []SpanEvent
	if r != nil {
		r.spanMu.Lock()
		spans = append(spans, r.spans...)
		r.spanMu.Unlock()
	}
	tf := timelineFile{TraceEvents: make([]traceEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, ev := range spans {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: ev.Name,
			Cat:  "pipeline",
			Ph:   "X",
			PID:  1,
			TID:  ev.Track,
			TS:   float64(ev.Start) / float64(time.Microsecond),
			Dur:  float64(ev.Dur) / float64(time.Microsecond),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// WriteTimelineFile writes the timeline artifact to path.
func (r *Registry) WriteTimelineFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTimeline(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
