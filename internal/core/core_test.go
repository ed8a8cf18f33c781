package core

import (
	"testing"

	"prorace/internal/pmu/driver"
	"prorace/internal/replay"
	"prorace/internal/workload"
)

func TestTraceProgramMeasuresOverhead(t *testing.T) {
	w := workload.PARSEC(1)[0]
	res, err := TraceProgram(w.Program, TraceOptions{
		Kind: driver.ProRace, Period: 1000, Seed: 3, EnablePT: true,
		MeasureOverhead: true, Machine: w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseStats.Cycles == 0 || res.TracedStats.Cycles <= res.BaseStats.Cycles {
		t.Errorf("cycles: base %d traced %d", res.BaseStats.Cycles, res.TracedStats.Cycles)
	}
	if res.Overhead <= 0 {
		t.Errorf("overhead = %v", res.Overhead)
	}
	if res.Trace.SampleCount() == 0 || len(res.Trace.PT) == 0 || len(res.Trace.Sync) == 0 {
		t.Error("trace incomplete")
	}
}

func TestTraceProgramWithoutOverhead(t *testing.T) {
	_, res := apacheTrace(t)
	if res.BaseStats.Cycles != 0 || res.Overhead != 0 {
		t.Error("baseline must be skipped when MeasureOverhead is false")
	}
}

func TestDefaultPeriodApplied(t *testing.T) {
	w := workload.Apache(1)
	res, err := TraceProgram(w.Program, TraceOptions{
		Kind: driver.ProRace, Seed: 3, EnablePT: true, Machine: w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Period != 10000 {
		t.Errorf("default period = %d", res.Trace.Period)
	}
}

func TestAnalyzeTimingsPopulated(t *testing.T) {
	w, tr := apacheTrace(t)
	ar, err := Analyze(w.Program, tr.Trace, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ar.DecodeTime <= 0 || ar.ReconstructTime <= 0 || ar.DetectTime <= 0 {
		t.Errorf("timings: %v %v %v", ar.DecodeTime, ar.ReconstructTime, ar.DetectTime)
	}
	if ar.TotalTime() != ar.DecodeTime+ar.ReconstructTime+ar.DetectTime {
		t.Error("TotalTime mismatch")
	}
	if ar.ReplayStats.Total() == 0 || len(ar.Accesses) == 0 {
		t.Error("no reconstruction output")
	}
	// Race-free workload: no reports, no regeneration.
	if len(ar.Reports) != 0 {
		t.Errorf("race-free workload reported %d races", len(ar.Reports))
	}
	if ar.Regenerated {
		t.Error("regeneration must not trigger without races")
	}
}

func TestRaceFeedbackRegeneration(t *testing.T) {
	// A racy workload whose reconstruction uses memory emulation: after
	// detection the §5.1 feedback loop must regenerate with the racy
	// locations invalidated — and still detect the race.
	found := false
	for seed := int64(1); seed <= 4; seed++ {
		built, tr := bugTrace(t, "pfscan", 1000, seed)
		ar, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if built.Detected(ar.Reports) {
			found = true
		}
	}
	if !found {
		t.Error("pcrel bug not detected with feedback enabled")
	}
}

func TestRaceFeedbackCanBeDisabled(t *testing.T) {
	built, tr := bugTrace(t, "pfscan", 1000, 2)
	ar, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{
		DisableRaceFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Regenerated {
		t.Error("regeneration ran despite being disabled")
	}
}

func TestRunPipelineEndToEnd(t *testing.T) {
	w := workload.Pbzip2(1)
	res, err := Run(w.Program,
		TraceOptions{Kind: driver.ProRace, Period: 500, Seed: 9, EnablePT: true,
			MeasureOverhead: true, Machine: w.Machine},
		AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceResult == nil || res.AnalysisResult == nil {
		t.Fatal("incomplete result")
	}
	if res.AnalysisResult.ReplayStats.RecoveryRatio() <= 1 {
		t.Errorf("recovery ratio = %v", res.AnalysisResult.ReplayStats.RecoveryRatio())
	}
}

func TestBasicBlockModeSkipsFeedback(t *testing.T) {
	w := workload.Apache(1)
	tr, err := TraceProgram(w.Program, TraceOptions{
		Kind: driver.Vanilla, Period: 100, Seed: 3, Machine: w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Analyze(w.Program, tr.Trace, AnalysisOptions{Mode: replay.ModeBasicBlock})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Regenerated {
		t.Error("BB mode must never regenerate")
	}
	if ar.ReplayStats.BasicBlock == 0 && ar.ReplayStats.Sampled == 0 {
		t.Error("BB mode reconstructed nothing")
	}
}
