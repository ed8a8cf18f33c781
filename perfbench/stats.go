package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1e6

// span is one traced layer call: its name, interval relative to the
// recorder's epoch, and the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the traced run's spans in memory; they are written out
// once the run ends, so recording costs one slice append per span.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent (-1 for none) and returns its id.
func (r *recorder) start(name string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(r.epoch)})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.epoch) }

// timed records fn as one span.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.start(name, parent)
	fn()
	r.end(id)
	return r.spans[id].dur()
}

// durations returns the milliseconds of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
