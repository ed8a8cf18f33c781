package report

import (
	"fmt"
	"io"
	"sync"

	"prorace/internal/prog"
	"prorace/internal/race"
)

// Sink is the one interface every consumer of finished race reports
// implements: the detector (race.Detector absorbs published reports into
// its deduplicated set), the daemon's persistent
// store (monitor.Store folds them into first-seen/last-seen/occurrence
// records), and the CLI's Printer below. Before this interface the three
// spoke different shapes — an event-level ReportSink, an ad-hoc store
// method, and a bare formatting call; see DESIGN.md §13 for the migration.
//
// Publish hands over a batch of finalized reports. Implementations must
// tolerate repeated publication of the same race (dedup is the sink's job,
// not the caller's) and must not retain the slice.
type Sink interface {
	Publish(rs []race.Report)
}

// The detector satisfies Sink structurally (race cannot import report
// without a cycle); keep it honest here.
var (
	_ Sink = (*race.Detector)(nil)
	_ Sink = (*Printer)(nil)
	_ Sink = (*Collector)(nil)
)

// Printer is the CLI sink: it renders each batch with symbol names as it
// arrives, deduplicating by report key so a re-published race (a daemon
// window re-analysis, a §5.1 feedback round) prints once.
type Printer struct {
	mu   sync.Mutex
	p    *prog.Program
	w    io.Writer
	seen map[[2]uint64]bool
	n    int
}

// NewPrinter returns a Printer symbolising against p and writing to w.
func NewPrinter(p *prog.Program, w io.Writer) *Printer {
	return &Printer{p: p, w: w, seen: map[[2]uint64]bool{}}
}

// Publish renders the batch's unseen reports.
func (pr *Printer) Publish(rs []race.Report) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, r := range rs {
		if pr.seen[r.Key()] {
			continue
		}
		pr.seen[r.Key()] = true
		pr.n++
		fmt.Fprintf(pr.w, "[%d] %s\n", pr.n, FormatRace(pr.p, r))
	}
}

// Printed reports how many distinct races the printer has rendered.
func (pr *Printer) Printed() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.n
}

// Collector is the trivial Sink: it accumulates distinct reports in
// arrival order (tests, and callers that want a slice back).
type Collector struct {
	mu      sync.Mutex
	seen    map[[2]uint64]int
	reports []race.Report
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{seen: map[[2]uint64]int{}}
}

// Publish folds the batch into the collected set. A re-published race is
// dropped, except that a republication carrying a witness upgrades a
// witness-less collected report — reproduction recipes survive dedup.
func (c *Collector) Publish(rs []race.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rs {
		if i, ok := c.seen[r.Key()]; ok {
			if c.reports[i].Witness == "" && r.Witness != "" {
				c.reports[i].Witness = r.Witness
			}
			continue
		}
		c.seen[r.Key()] = len(c.reports)
		c.reports = append(c.reports, r)
	}
}

// Reports returns the distinct reports collected so far.
func (c *Collector) Reports() []race.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]race.Report(nil), c.reports...)
}
