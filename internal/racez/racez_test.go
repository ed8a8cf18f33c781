package racez

import (
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/replay"
	"prorace/internal/workload"
)

func TestOptionsMatchRaceZDesign(t *testing.T) {
	topts := TraceOptions(1000, 7, workload.Apache(1).Machine)
	if topts.Kind != driver.Vanilla {
		t.Error("RaceZ must use the stock driver")
	}
	if topts.EnablePT {
		t.Error("RaceZ collects no PT trace")
	}
	if topts.Period != 1000 || topts.Seed != 7 {
		t.Error("period/seed not threaded through")
	}
	aopts := AnalysisOptions()
	if aopts.Mode != replay.ModeBasicBlock {
		t.Error("RaceZ reconstruction is basic-block only")
	}
}

func TestRunProducesBasicBlockReconstruction(t *testing.T) {
	w := workload.Apache(1)
	res, err := core.Run(w.Program, TraceOptions(200, 3, w.Machine), AnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := res.AnalysisResult.ReplayStats
	if st.Sampled == 0 {
		t.Fatal("no samples")
	}
	if st.Forward != 0 || st.Backward != 0 {
		t.Errorf("RaceZ must not use path-guided replay: %+v", st)
	}
	// RaceZ's recovery is limited to roughly the paper's 1.3x-9.5x band.
	if r := st.RecoveryRatio(); r < 1 || r > 20 {
		t.Errorf("RaceZ recovery ratio = %.1fx, outside the plausible band", r)
	}
	if len(res.TraceResult.Trace.PT) != 0 {
		t.Error("RaceZ trace contains PT streams")
	}
}

func TestRaceZStillDetectsWithLuckySamples(t *testing.T) {
	// At a very small period RaceZ samples densely enough to catch even a
	// PC-relative bug occasionally — it is a weaker detector, not a
	// broken one.
	bug, err := bugs.ByID("pfscan")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	hits := 0
	for seed := int64(1); seed <= 6; seed++ {
		res, err := core.Run(built.Workload.Program, TraceOptions(10, seed, built.Workload.Machine), AnalysisOptions())
		if err != nil {
			t.Fatal(err)
		}
		if built.Detected(res.AnalysisResult.Reports) {
			hits++
		}
	}
	t.Logf("RaceZ at period 10: %d/6 detections", hits)
	if hits == 0 {
		t.Log("note: zero detections at period 10 is possible but unusual")
	}
}
