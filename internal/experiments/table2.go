package experiments

import (
	"fmt"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/racez"
	"prorace/internal/report"
)

// Table2Row is one bug's detection counts.
type Table2Row struct {
	Bug bugs.Bug
	// RaceZ and ProRace map sampling period -> detections (out of Trials).
	RaceZ   map[uint64]int
	ProRace map[uint64]int
}

// Table2Result reproduces the paper's Table 2: per-bug detection
// probability under RaceZ and ProRace at periods 100/1K/10K, estimated
// over Trials traces per cell with uncontrolled (seed-varied) schedules.
type Table2Result struct {
	Periods []uint64
	Trials  int
	Rows    []Table2Row
}

// Average returns the arithmetic-mean detection probability per period for
// one system ("racez" or "prorace") — the paper's bottom row.
func (t *Table2Result) Average(system string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, period := range t.Periods {
		sum := 0.0
		for _, r := range t.Rows {
			m := r.ProRace
			if system == "racez" {
				m = r.RaceZ
			}
			sum += float64(m[period]) / float64(t.Trials)
		}
		out[period] = sum / float64(len(t.Rows))
	}
	return out
}

// Render produces the text table in the paper's layout.
func (t *Table2Result) Render() string {
	header := []string{"bug", "manifestation", "access type"}
	for _, p := range t.Periods {
		header = append(header, fmt.Sprintf("RaceZ@%d", p))
	}
	for _, p := range t.Periods {
		header = append(header, fmt.Sprintf("ProRace@%d", p))
	}
	tab := report.NewTable(fmt.Sprintf("Table 2: data race detection (%d traces per cell)", t.Trials), header...)
	for _, r := range t.Rows {
		row := []any{r.Bug.ID, r.Bug.Manifestation, r.Bug.Type.String()}
		for _, p := range t.Periods {
			row = append(row, r.RaceZ[p])
		}
		for _, p := range t.Periods {
			row = append(row, r.ProRace[p])
		}
		tab.AddRow(row...)
	}
	avgZ, avgP := t.Average("racez"), t.Average("prorace")
	row := []any{"(average)", "", ""}
	for _, p := range t.Periods {
		row = append(row, fmt.Sprintf("%.1f%%", avgZ[p]*100))
	}
	for _, p := range t.Periods {
		row = append(row, fmt.Sprintf("%.1f%%", avgP[p]*100))
	}
	tab.AddRow(row...)
	return tab.String()
}

// Table2 runs the detection experiment. Each trial uses a distinct
// scheduler seed — the "we did not control the thread schedules" of §7.4 —
// and both systems see the same seeds.
func (h *Harness) Table2() (*Table2Result, error) {
	res := &Table2Result{Periods: h.cfg.Table2Periods, Trials: h.cfg.Table2Trials}
	for _, bug := range h.bugList() {
		built := bug.Build(h.cfg.Scale)
		row := Table2Row{Bug: bug, RaceZ: map[uint64]int{}, ProRace: map[uint64]int{}}
		for _, period := range res.Periods {
			for trial := 0; trial < res.Trials; trial++ {
				seed := h.cfg.Seed + int64(trial)*7919
				ok, err := detectOnce(built, period, seed, true)
				if err != nil {
					return nil, fmt.Errorf("table2 %s prorace @%d: %w", bug.ID, period, err)
				}
				if ok {
					row.ProRace[period]++
				}
				ok, err = detectOnce(built, period, seed, false)
				if err != nil {
					return nil, fmt.Errorf("table2 %s racez @%d: %w", bug.ID, period, err)
				}
				if ok {
					row.RaceZ[period]++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// bugList applies the BugSubset filter to Table 2's bugs.
func (h *Harness) bugList() []bugs.Bug {
	all := bugs.All()
	if len(h.cfg.BugSubset) == 0 {
		return all
	}
	keep := map[string]bool{}
	for _, id := range h.cfg.BugSubset {
		keep[id] = true
	}
	var out []bugs.Bug
	for _, b := range all {
		if keep[b.ID] {
			out = append(out, b)
		}
	}
	return out
}

// detectOnce runs one trace + analysis and checks the planted race.
func detectOnce(built *bugs.Built, period uint64, seed int64, prorace bool) (bool, error) {
	topts := racez.TraceOptions(period, seed, built.Workload.Machine)
	aopts := racez.AnalysisOptions()
	if prorace {
		topts = core.TraceOptions{Kind: driver.ProRace, Period: period, Seed: seed,
			EnablePT: true, Machine: built.Workload.Machine}
		aopts = core.AnalysisOptions{}
	}
	res, err := core.Run(built.Workload.Program, topts, aopts)
	if err != nil {
		return false, err
	}
	return built.Detected(res.AnalysisResult.Reports), nil
}
