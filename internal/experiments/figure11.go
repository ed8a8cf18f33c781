package experiments

import (
	"fmt"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/replay"
	"prorace/internal/report"
	"prorace/internal/stats"
	"prorace/internal/synthesis"
)

// figure11Apps picks one buggy workload per application, as §7.5 evaluates
// "the six buggy applications".
var figure11Apps = []string{
	"apache-25520", "mysql-3596", "cherokee-0.9.2",
	"pbzip2-0.9.4", "pfscan", "aget-bug2",
}

// figure11List applies the BugSubset filter to the per-app bug list.
func (h *Harness) figure11List() []string {
	if len(h.cfg.BugSubset) == 0 {
		return figure11Apps
	}
	keep := map[string]bool{}
	for _, id := range h.cfg.BugSubset {
		keep[id] = true
	}
	var out []string
	for _, id := range figure11Apps {
		if keep[id] {
			out = append(out, id)
		}
	}
	return out
}

// RecoveryRow is one application's memory-recovery ratios.
type RecoveryRow struct {
	App string
	// Ratios: recovered+sampled accesses normalised to sampled accesses,
	// per reconstruction mode.
	BasicBlock      float64
	Forward         float64
	ForwardBackward float64
}

// Figure11Result reproduces "Memory Recovery Ratio" (§7.5): basic-block
// (RaceZ) vs forward vs forward+backward reconstruction at period 10K.
// Paper anchors: basic-block averages ~5.4x (apache 9.53x, mysql 1.6x);
// forward ~34x; forward+backward ~64x.
type Figure11Result struct {
	Rows []RecoveryRow
	// Averages (arithmetic mean, as the paper reports).
	AvgBB, AvgFwd, AvgFB float64
}

// Render produces the text table.
func (f *Figure11Result) Render() string {
	t := report.NewTable("Figure 11: memory recovery ratio (period 10K)",
		"application", "basic-block", "forward", "forward+backward")
	for _, r := range f.Rows {
		t.AddRow(r.App, ratio(r.BasicBlock), ratio(r.Forward), ratio(r.ForwardBackward))
	}
	t.AddRow("(average)", ratio(f.AvgBB), ratio(f.AvgFwd), ratio(f.AvgFB))
	return t.String()
}

func ratio(x float64) string { return fmt.Sprintf("%.1fx", x) }

// Figure11 traces each buggy application once at period 10K and
// reconstructs the trace under all three modes.
func (h *Harness) Figure11() (*Figure11Result, error) {
	res := &Figure11Result{}
	var bbs, fwds, fbs []float64
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
			return nil, fmt.Errorf("figure11 %s: %w", id, err)
		}
		row := RecoveryRow{App: bug.App}
		// The three modes share one decode of the trace.
		cache := synthesis.NewCache(1)
		for _, mode := range []replay.Mode{replay.ModeBasicBlock, replay.ModeForward, replay.ModeForwardBackward} {
			ar, err := core.Analyze(built.Workload.Program, tr.Trace, core.AnalysisOptions{
				Mode: mode, DisableRaceFeedback: true, PathCache: cache,
			})
			if err != nil {
				return nil, fmt.Errorf("figure11 %s %v: %w", id, mode, err)
			}
			r := ar.ReplayStats.RecoveryRatio()
			switch mode {
			case replay.ModeBasicBlock:
				row.BasicBlock = r
			case replay.ModeForward:
				row.Forward = r
			case replay.ModeForwardBackward:
				row.ForwardBackward = r
			}
		}
		res.Rows = append(res.Rows, row)
		bbs = append(bbs, row.BasicBlock)
		fwds = append(fwds, row.Forward)
		fbs = append(fbs, row.ForwardBackward)
	}
	res.AvgBB = stats.Mean(bbs)
	res.AvgFwd = stats.Mean(fwds)
	res.AvgFB = stats.Mean(fbs)
	return res, nil
}
