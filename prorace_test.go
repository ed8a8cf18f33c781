package prorace

import (
	"reflect"
	"strings"
	"testing"

	"prorace/internal/racez"
)

// TestPublicAPIQuickstart exercises the facade the way the README's
// quickstart does: built-in workload, trace, analyze, format.
func TestPublicAPIQuickstart(t *testing.T) {
	w := MustWorkload("apache", 1)
	tr, err := Trace(w.Program, WithMachine(w.Machine), WithPeriod(1000), WithSeed(42), WithOverheadMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Trace.SampleCount() == 0 {
		t.Fatal("no samples")
	}
	ar, err := Analyze(w.Program, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ar.ReplayStats.RecoveryRatio() <= 1 {
		t.Errorf("recovery ratio %v", ar.ReplayStats.RecoveryRatio())
	}
	if out := FormatRaces(w.Program, ar.Reports); out == "" {
		t.Error("empty format")
	}
}

func TestPublicAPICustomProgram(t *testing.T) {
	// Build a custom racy program purely through the facade.
	b := NewProgram("custom")
	b.Global("x", 8)
	b.Global("tids", 16)
	m := b.Func("main")
	for i := int64(0); i < 2; i++ {
		m.MovI(R4, i)
		m.SpawnThread("w", R4)
		m.Store(MemGlobal("tids", i*8), R0)
	}
	for i := int64(0); i < 2; i++ {
		m.Load(R0, MemGlobal("tids", i*8))
		m.Join(R0)
	}
	m.Exit(0)
	f := b.Func("w")
	f.MovI(R3, 150)
	f.Label("l")
	f.Load(R1, MemGlobal("x", 0))
	f.AddI(R1, 1)
	f.Store(MemGlobal("x", 0), R1)
	f.SubI(R3, 1)
	f.CmpI(R3, 0)
	f.Jgt("l")
	f.Exit(0)
	p := mustBuild(b)

	res, err := Run(p, WithMachine(MachineConfig{Cores: 4}), WithPeriod(500), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AnalysisResult.Reports) == 0 {
		t.Fatal("unlocked shared counter must race")
	}
	out := FormatRace(p, res.AnalysisResult.Reports[0])
	if !strings.Contains(out, "x") {
		t.Errorf("report not symbolised: %s", out)
	}
}

func TestPublicAPIWorkloadCatalog(t *testing.T) {
	if len(Workloads(1)) != 21 || len(PARSEC(1)) != 13 || len(RealApps(1)) != 8 {
		t.Error("catalog sizes wrong")
	}
	if len(WorkloadNames()) != 21 {
		t.Error("names wrong")
	}
	if _, err := WorkloadByName("nosuch", 1); err == nil {
		t.Error("unknown workload must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorkload must panic on unknown name")
		}
	}()
	MustWorkload("nosuch", 1)
}

func TestPublicAPIBugCatalog(t *testing.T) {
	if len(Bugs()) != 12 {
		t.Error("bug catalog wrong")
	}
	bug, err := BugByID("aget-bug2")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	if len(built.RacyPCs) != 2 {
		t.Error("ground truth missing")
	}
	res, err := Run(built.Workload.Program, WithMachine(built.Workload.Machine), WithPeriod(1000), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !built.Detected(res.AnalysisResult.Reports) {
		t.Error("pc-relative bug not detected")
	}
}

// TestPublicAPIRaceZPreset: the three options that turn ProRace into the
// RaceZ baseline resolve to exactly internal/racez's configuration.
func TestPublicAPIRaceZPreset(t *testing.T) {
	w := MustWorkload("apache", 1)
	opts := []Option{WithMachine(w.Machine), WithPeriod(500), WithSeed(3),
		WithDriver(VanillaDriver), WithoutPT(), WithReplayMode(ReplayBasicBlock)}
	c := newOptions(opts...)
	if !reflect.DeepEqual(c.trace, racez.TraceOptions(500, 3, w.Machine)) {
		t.Errorf("trace options %+v, want racez's", c.trace)
	}
	if !reflect.DeepEqual(c.analysis, racez.AnalysisOptions()) {
		t.Errorf("analysis options %+v, want racez's", c.analysis)
	}
	res, err := Run(w.Program, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalysisResult.ReplayStats.Forward != 0 {
		t.Error("RaceZ preset ran path-guided replay")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	cfg := QuickExperiments()
	cfg.Workloads = []string{"apache"}
	cfg.Periods = []uint64{10000}
	h := NewExperiments(cfg)
	fig, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.PerWorkload) != 1 {
		t.Error("experiment subset failed")
	}
	if FullExperiments().Table2Trials != 100 {
		t.Error("full config wrong")
	}
}

// TestPublicAPIFunctionalOptions exercises the options.go surface: the
// defaults, every constructor's field mapping, and the Run pipeline with
// parallel analysis enabled.
func TestPublicAPIFunctionalOptions(t *testing.T) {
	c := newOptions()
	topts, aopts := c.trace, c.analysis
	if topts.Kind != ProRaceDriver || !topts.EnablePT || topts.Period != 10000 || topts.Seed != 1 {
		t.Errorf("trace defaults wrong: %+v", topts)
	}
	if aopts.Mode != ReplayForwardBackward || aopts.Workers != 0 {
		t.Errorf("analysis defaults wrong: %+v", aopts)
	}

	costs := DriverCosts{}
	c = newOptions(
		WithMachine(MachineConfig{Cores: 6}),
		WithPeriod(500),
		WithSeed(9),
		WithDriver(VanillaDriver),
		WithDriverCosts(costs),
		WithoutPT(),
		WithOverheadMeasurement(),
		WithoutRandomFirstPeriod(),
		WithReplayMode(ReplayForward),
		WithWorkers(4),
		WithMaxReports(17),
		WithoutMemoryEmulation(),
		WithoutRaceFeedback(),
		WithoutAllocationTracking(),
	)
	topts, aopts = c.trace, c.analysis
	if topts.Machine.Cores != 6 || topts.Period != 500 || topts.Seed != 9 ||
		topts.Kind != VanillaDriver || topts.Costs == nil || topts.EnablePT ||
		!topts.MeasureOverhead || !topts.DisableRandomFirstPeriod {
		t.Errorf("trace options wrong: %+v", topts)
	}
	if aopts.Mode != ReplayForward || aopts.Workers != 4 ||
		aopts.MaxReports != 17 || !aopts.DisableMemoryEmulation ||
		!aopts.DisableRaceFeedback || !aopts.DisableAllocationTracking {
		t.Errorf("analysis options wrong: %+v", aopts)
	}

	w := MustWorkload("apache", 1)
	res, err := Run(w.Program,
		WithMachine(w.Machine),
		WithPeriod(1000),
		WithSeed(42),
		WithWorkers(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalysisResult.ReplayStats.Total() == 0 {
		t.Fatal("parallel Run produced nothing")
	}
	if res.AnalysisResult.Workers < 1 {
		t.Errorf("resolved parallelism not recorded: %+v", res.AnalysisResult)
	}

	// Trace + Analyze compose to the same pipeline.
	tr, err := Trace(w.Program, WithMachine(w.Machine), WithPeriod(1000), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Analyze(w.Program, tr, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Reports) != len(res.AnalysisResult.Reports) {
		t.Errorf("composed pipeline diverged: %d vs %d reports", len(ar.Reports), len(res.AnalysisResult.Reports))
	}
}

// mustBuild finalises a test program; the inputs are static, so a build
// error means the test itself is broken.
func mustBuild(b *Builder) *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
