package experiments

import (
	"fmt"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/report"
)

// OfflineCostRow is one application's offline-analysis cost.
type OfflineCostRow struct {
	App string
	// ExecSeconds is the traced run's duration in simulated seconds.
	ExecSeconds float64
	// Decode/Reconstruct/Detect are real analysis-machine times.
	Decode, Reconstruct, Detect time.Duration
	// PerExecSecond is total analysis seconds per second of execution —
	// the paper's Figure 12 metric.
	PerExecSecond float64
}

// Figure12Result reproduces "Offline analysis overhead" (§7.6): analysis
// time per second of traced execution, and the phase breakdown.
// Paper anchors: apache 54.5 s/s, mysql 35.3 s/s, pfscan worst; breakdown
// PT decoding 33.7%, trace reconstruction 64.7%, race detection 1.6%.
type Figure12Result struct {
	Rows []OfflineCostRow
	// Breakdown fractions over all rows.
	DecodeFrac, ReconstructFrac, DetectFrac float64
}

// Render produces the text table.
func (f *Figure12Result) Render() string {
	t := report.NewTable("Figure 12: offline analysis cost (period 10K)",
		"application", "exec (s)", "decode", "reconstruct", "detect", "s per exec-s")
	for _, r := range f.Rows {
		t.AddRow(r.App,
			fmt.Sprintf("%.4f", r.ExecSeconds),
			r.Decode.Round(time.Microsecond),
			r.Reconstruct.Round(time.Microsecond),
			r.Detect.Round(time.Microsecond),
			fmt.Sprintf("%.1f", r.PerExecSecond))
	}
	t.AddNote("breakdown: decode %.1f%%, reconstruction %.1f%%, detection %.1f%% (paper: 33.7 / 64.7 / 1.6)",
		f.DecodeFrac*100, f.ReconstructFrac*100, f.DetectFrac*100)
	return t.String()
}

// Figure12 measures offline analysis cost on the buggy applications at
// period 10K. Execution time is simulated (4 GHz virtual clock); analysis
// time is real time on the analysis machine, as in the paper's setup where
// dedicated analysis machines process traces (§3).
func (h *Harness) Figure12() (*Figure12Result, error) {
	res := &Figure12Result{}
	var dec, rec, det time.Duration
	for _, id := range h.figure11List() {
		bug, err := bugs.ByID(id)
		if err != nil {
			return nil, err
		}
		built := bug.Build(h.cfg.Scale)
		tr, err := core.TraceProgram(built.Workload.Program, core.TraceOptions{
			Kind: driver.ProRace, Period: 10000, Seed: h.cfg.Seed,
			EnablePT: true, Machine: built.Workload.Machine,
		})
		if err != nil {
			return nil, fmt.Errorf("figure12 %s: %w", id, err)
		}
		ar, err := core.Analyze(built.Workload.Program, tr.Trace, core.AnalysisOptions{})
		if err != nil {
			return nil, fmt.Errorf("figure12 %s: %w", id, err)
		}
		execSec := tr.TracedStats.Seconds()
		row := OfflineCostRow{
			App:         bug.App,
			ExecSeconds: execSec,
			Decode:      ar.DecodeTime,
			Reconstruct: ar.ReconstructTime,
			Detect:      ar.DetectTime,
		}
		if execSec > 0 {
			row.PerExecSecond = ar.TotalTime().Seconds() / execSec
		}
		res.Rows = append(res.Rows, row)
		dec += ar.DecodeTime
		rec += ar.ReconstructTime
		det += ar.DetectTime
	}
	total := dec + rec + det
	if total > 0 {
		res.DecodeFrac = float64(dec) / float64(total)
		res.ReconstructFrac = float64(rec) / float64(total)
		res.DetectFrac = float64(det) / float64(total)
	}
	return res, nil
}
