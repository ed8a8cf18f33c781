package experiments

import (
	"fmt"

	"prorace/internal/core"
	"prorace/internal/faultinject"
	"prorace/internal/pmu/driver"
	"prorace/internal/report"
)

// FaultCell is one (fault kind, rate) point of the robustness sweep.
type FaultCell struct {
	Kind faultinject.Kind
	Rate float64
	// Detected counts trials (across all bugs) where the planted race
	// survived the injected corruption.
	Detected int
	// CoverageLossPct is the mean PT coverage loss the decoder reported.
	CoverageLossPct float64
	// SyncAnomalies is the mean sync-log anomaly count per trial.
	SyncAnomalies float64
}

// FaultSweepResult measures detection recall under injected trace
// corruption: every Table 2 bug is traced cleanly, then analysed leniently
// with each fault kind at each rate. The clean row is the same lenient
// analysis with no faults — the recall ceiling the degraded cells are
// compared against.
type FaultSweepResult struct {
	Rates  []float64
	Trials int
	// Total is bugs x trials, the denominator for every recall figure.
	Total int
	// CleanDetected is the no-fault lenient baseline.
	CleanDetected int
	Cells         []FaultCell
}

// Recall returns a cell's detection fraction.
func (f *FaultSweepResult) Recall(kind faultinject.Kind, rate float64) float64 {
	for _, c := range f.Cells {
		if c.Kind == kind && c.Rate == rate {
			return float64(c.Detected) / float64(f.Total)
		}
	}
	return 0
}

// Render produces the recall-vs-loss table.
func (f *FaultSweepResult) Render() string {
	header := []string{"fault"}
	for _, r := range f.Rates {
		header = append(header, fmt.Sprintf("recall@%g%%", r*100))
	}
	header = append(header, "mean PT loss", "mean sync anomalies")
	tab := report.NewTable(fmt.Sprintf("Fault tolerance: detection recall under injected corruption (%d bug-trials per cell, clean baseline %.0f%%)",
		f.Total, 100*float64(f.CleanDetected)/float64(f.Total)), header...)
	for _, kind := range faultinject.Kinds {
		row := []any{string(kind)}
		var loss, anom float64
		for _, rate := range f.Rates {
			row = append(row, fmt.Sprintf("%.0f%%", 100*f.Recall(kind, rate)))
			for _, c := range f.Cells {
				if c.Kind == kind && c.Rate == rate {
					loss += c.CoverageLossPct
					anom += c.SyncAnomalies
				}
			}
		}
		row = append(row, fmt.Sprintf("%.1f%%", loss/float64(len(f.Rates))),
			fmt.Sprintf("%.1f", anom/float64(len(f.Rates))))
		tab.AddRow(row...)
	}
	return tab.String()
}

// FaultSweep runs the robustness experiment: how much trace corruption can
// the lenient offline analysis absorb before the planted Table 2 races stop
// being found? Each bug is traced once per trial (clean, period 100 — the
// paper's best-detection period) and the same trace is re-analysed under
// every fault kind and rate, so the only variable per cell is the injected
// damage.
func (h *Harness) FaultSweep() (*FaultSweepResult, error) {
	res := &FaultSweepResult{Rates: h.cfg.FaultRates, Trials: h.cfg.FaultTrials}
	type cellKey struct {
		kind faultinject.Kind
		rate float64
	}
	detected := map[cellKey]int{}
	loss := map[cellKey]float64{}
	anom := map[cellKey]float64{}

	const period = 100
	bugList := h.bugList()
	for _, bug := range bugList {
		built := bug.Build(h.cfg.Scale)
		for trial := 0; trial < res.Trials; trial++ {
			seed := h.cfg.Seed + int64(trial)*7919
			topts := core.TraceOptions{
				Kind: driver.ProRace, EnablePT: true,
				Period: period, Seed: seed, Machine: built.Workload.Machine,
			}
			tres, err := core.TraceProgram(built.Workload.Program, topts)
			if err != nil {
				return nil, fmt.Errorf("faults %s trace: %w", bug.ID, err)
			}
			analyze := func(spec *faultinject.Spec) (*core.AnalysisResult, error) {
				// The decode budget keeps resynced walks over heavily
				// corrupted streams from wandering for minutes; the bugs'
				// clean paths are far below it, so the baseline is unaffected.
				aopts := core.AnalysisOptions{
					FaultSpec:      spec,
					DecodeMaxSteps: 1_000_000,
				}
				return core.Analyze(built.Workload.Program, tres.Trace, aopts)
			}
			ar, err := analyze(nil)
			if err != nil {
				return nil, fmt.Errorf("faults %s clean analyze: %w", bug.ID, err)
			}
			if built.Detected(ar.Reports) {
				res.CleanDetected++
			}
			for _, kind := range faultinject.Kinds {
				for _, rate := range res.Rates {
					spec := &faultinject.Spec{Seed: seed, Faults: []faultinject.Fault{{Kind: kind, Rate: rate}}}
					ar, err := analyze(spec)
					if err != nil {
						return nil, fmt.Errorf("faults %s %s@%g: %w", bug.ID, kind, rate, err)
					}
					k := cellKey{kind, rate}
					if built.Detected(ar.Reports) {
						detected[k]++
					}
					loss[k] += ar.Degradation.CoverageLossPct()
					anom[k] += float64(ar.Degradation.SyncAnomalies)
				}
			}
		}
	}

	res.Total = len(bugList) * res.Trials
	for _, kind := range faultinject.Kinds {
		for _, rate := range res.Rates {
			k := cellKey{kind, rate}
			res.Cells = append(res.Cells, FaultCell{
				Kind: kind, Rate: rate, Detected: detected[k],
				CoverageLossPct: loss[k] / float64(res.Total),
				SyncAnomalies:   anom[k] / float64(res.Total),
			})
		}
	}
	return res, nil
}
