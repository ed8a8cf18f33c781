// Package report renders analysis results for humans: symbolised race
// reports and aligned text tables for the experiment harness (the rows the
// paper's tables and figures print).
package report

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"prorace/internal/prog"
	"prorace/internal/race"
)

// FormatRace renders one race report with symbol names from the program.
func FormatRace(p *prog.Program, r race.Report) string {
	return fmt.Sprintf("data race on %s (%#x):\n  %s at %s (T%d, tsc %d)\n  %s at %s (T%d, tsc %d)",
		p.SymbolizeData(r.Addr), r.Addr,
		rw(r.First.Write), p.SymbolizeAddr(r.First.PC), r.First.TID, r.First.TSC,
		rw(r.Second.Write), p.SymbolizeAddr(r.Second.PC), r.Second.TID, r.Second.TSC)
}

func rw(w bool) string {
	if w {
		return "write"
	}
	return "read "
}

// FormatRaces renders a full report list.
func FormatRaces(p *prog.Program, rs []race.Report) string {
	if len(rs) == 0 {
		return "no data races detected\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d data race(s) detected:\n", len(rs))
	for i, r := range rs {
		fmt.Fprintf(&b, "[%d] %s\n", i+1, FormatRace(p, r))
	}
	return b.String()
}

// Printer is the CLI's report writer: it renders each batch with symbol
// names as it arrives, deduplicating by report key so a re-published race
// (a daemon window re-analysis, a §5.1 feedback round) prints once.
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

// Table builds an aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < ncols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncols-1)) + "\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
