package experiments

import (
	"strings"
	"testing"

	"prorace/internal/faultinject"
)

// tinyConfig keeps experiment tests fast: two workloads, two periods.
func tinyConfig() Config {
	return Config{
		Scale:         1,
		Periods:       []uint64{1000, 10000},
		Seed:          1,
		Table2Trials:  3,
		Table2Periods: []uint64{100, 1000},
		Workloads:     []string{"blackscholes", "apache"},
		BugSubset:     []string{"pfscan", "apache-21287"},
	}
}

func TestQuickAndFullConfigs(t *testing.T) {
	q := Quick()
	if q.Table2Trials != 10 || len(q.Periods) != 5 {
		t.Errorf("quick config: %+v", q)
	}
	f := Full()
	if f.Table2Trials != 100 || f.Scale <= q.Scale {
		t.Errorf("full config: %+v", f)
	}
}

func TestFigure6And8ShareRuns(t *testing.T) {
	h := NewHarness(tinyConfig())
	f6, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	// Only blackscholes matched the PARSEC subset.
	if len(f6.PerWorkload) != 1 || len(f8.PerWorkload) != 1 {
		t.Fatalf("subset filter failed: %v %v", f6.PerWorkload, f8.PerWorkload)
	}
	// Both figures come from the same cached sweep: identical Points.
	if len(f6.Points) != len(f8.Points) {
		t.Error("figures 6 and 8 did not share the sweep")
	}
	// Overhead grows as the period shrinks.
	bs := f6.PerWorkload["blackscholes"]
	if bs[0] < bs[1] {
		t.Errorf("overhead at P=1000 (%v) below P=10000 (%v)", bs[0], bs[1])
	}
	// Renders include the geomean row.
	if !strings.Contains(f6.Render(), "geomean") || !strings.Contains(f8.Render(), "PT share") {
		t.Error("render incomplete")
	}
}

func TestFigure7And9RealApps(t *testing.T) {
	h := NewHarness(tinyConfig())
	f7, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	f9, err := h.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f7.PerWorkload["apache"]; !ok {
		t.Fatal("apache missing")
	}
	// apache is network-bound: tiny overhead at both periods.
	for _, o := range f7.PerWorkload["apache"] {
		if o > 0.05 {
			t.Errorf("apache overhead %.2f%% too high for a net-bound app", o*100)
		}
	}
	// Trace rate grows with sampling density.
	mb := f9.PerWorkload["apache"]
	if mb[0] < mb[1] {
		t.Errorf("trace rate at P=1000 (%v) below P=10000 (%v)", mb[0], mb[1])
	}
}

func TestFigure10VanillaDominatesProRace(t *testing.T) {
	h := NewHarness(tinyConfig())
	f10, err := h.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f10.Periods {
		if f10.ParsecVanilla[i] <= f10.ParsecProRace[i] {
			t.Errorf("P=%d: vanilla %.3f <= prorace %.3f",
				f10.Periods[i], f10.ParsecVanilla[i], f10.ParsecProRace[i])
		}
	}
	if !strings.Contains(f10.Render(), "vanilla") {
		t.Error("render incomplete")
	}
}

func TestTable2SubsetAndAverages(t *testing.T) {
	h := NewHarness(tinyConfig())
	res, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (subset)", len(res.Rows))
	}
	// The pcrel bug must be detected by ProRace in every trial.
	for _, row := range res.Rows {
		if row.Bug.ID != "pfscan" {
			continue
		}
		for _, p := range res.Periods {
			if row.ProRace[p] != res.Trials {
				t.Errorf("pfscan @%d: %d/%d", p, row.ProRace[p], res.Trials)
			}
		}
	}
	avgP := res.Average("prorace")
	avgZ := res.Average("racez")
	for _, p := range res.Periods {
		if avgP[p] < avgZ[p] {
			t.Errorf("P=%d: prorace average %.2f below racez %.2f", p, avgP[p], avgZ[p])
		}
		if avgP[p] < 0 || avgP[p] > 1 {
			t.Errorf("average out of range: %v", avgP[p])
		}
	}
	out := res.Render()
	if !strings.Contains(out, "(average)") || !strings.Contains(out, "pfscan") {
		t.Error("render incomplete")
	}
}

func TestFigure11Ordering(t *testing.T) {
	cfg := tinyConfig()
	cfg.BugSubset = []string{"pfscan", "mysql-3596"}
	h := NewHarness(cfg)
	res, err := h.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's ordering: basic-block < forward <= forward+backward.
	if !(res.AvgBB < res.AvgFwd) {
		t.Errorf("bb %.1f not below forward %.1f", res.AvgBB, res.AvgFwd)
	}
	if res.AvgFB < res.AvgFwd {
		t.Errorf("fwd+bwd %.1f below forward %.1f", res.AvgFB, res.AvgFwd)
	}
	if !strings.Contains(res.Render(), "(average)") {
		t.Error("render incomplete")
	}
}

func TestFigure12Breakdown(t *testing.T) {
	cfg := tinyConfig()
	cfg.BugSubset = []string{"pfscan"}
	h := NewHarness(cfg)
	res, err := h.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	total := res.DecodeFrac + res.ReconstructFrac + res.DetectFrac
	if total < 0.999 || total > 1.001 {
		t.Errorf("breakdown fractions sum to %v", total)
	}
	// Reconstruction dominates, detection is small (paper: 64.7% / 1.6%).
	if res.ReconstructFrac < res.DetectFrac {
		t.Errorf("reconstruction (%.2f) below detection (%.2f)", res.ReconstructFrac, res.DetectFrac)
	}
	if res.Rows[0].PerExecSecond <= 0 {
		t.Error("per-exec-second cost missing")
	}
	if !strings.Contains(res.Render(), "breakdown") {
		t.Error("render incomplete")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(1)
	for _, app := range []string{"apache", "cherokee", "mysql", "memcached",
		"transmission", "pfscan", "pbzip2", "aget"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table 1 missing %s", app)
		}
	}
	if !strings.Contains(out, "38") {
		t.Error("cherokee's 38 threads missing")
	}
}

func TestRelatedWorkComparison(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workloads = []string{"streamcluster"}
	cfg.Table2Trials = 4
	h := NewHarness(cfg)
	res, err := h.RelatedWork()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 systems", len(res.Rows))
	}
	byName := map[string]RelatedWorkRow{}
	for _, r := range res.Rows {
		byName[r.System] = r
	}
	// The §2 story: ProRace's CPU overhead is far below the
	// instrumentation-based samplers'.
	if byName["prorace"].CPUOverhead >= byName["literace"].CPUOverhead {
		t.Errorf("prorace %.2f not below literace %.2f",
			byName["prorace"].CPUOverhead, byName["literace"].CPUOverhead)
	}
	if byName["prorace"].CPUOverhead >= byName["pacer"].CPUOverhead {
		t.Errorf("prorace %.2f not below pacer %.2f",
			byName["prorace"].CPUOverhead, byName["pacer"].CPUOverhead)
	}
	// And its detection beats the equally-cheap samplers.
	if byName["prorace"].Detection <= byName["datacollider"].Detection &&
		byName["prorace"].Detection <= byName["racez"].Detection {
		t.Errorf("prorace detection %.2f shows no advantage", byName["prorace"].Detection)
	}
	// LiteRace on the network-bound server stays at a few percent
	// (paper: 2-4%).
	if byName["literace"].ServerOverhead > 0.10 {
		t.Errorf("literace apache overhead %.1f%%", byName["literace"].ServerOverhead*100)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFaultSweepQuick(t *testing.T) {
	cfg := Quick()
	cfg.BugSubset = []string{"apache-25520"}
	cfg.FaultTrials = 1
	cfg.FaultRates = []float64{0.1}
	h := NewHarness(cfg)
	f, err := h.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if f.Total != 1 {
		t.Fatalf("total = %d, want 1", f.Total)
	}
	if f.CleanDetected != 1 {
		t.Fatalf("clean baseline missed the planted race")
	}
	if len(f.Cells) != len(faultinject.Kinds) {
		t.Fatalf("cells = %d, want %d", len(f.Cells), len(faultinject.Kinds))
	}
	out := f.Render()
	if !strings.Contains(out, "ptflip") || !strings.Contains(out, "recall@10%") {
		t.Fatalf("render missing expected columns:\n%s", out)
	}
}

// TestMemScaleSmall runs the shadow-memory experiment at a small scale: the
// two representations each report the workload's variables, the flat
// table accounts its own shadow bytes, and a budget below the measured
// bytes per variable fails the run.
func TestMemScaleSmall(t *testing.T) {
	h := NewHarness(tinyConfig())
	cfg := MemScaleConfig{Vars: 4096, Threads: 8}
	res, err := h.MemScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want reference and flat", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Variables != cfg.Vars {
			t.Errorf("%s: %d variables, want %d", row.Detector, row.Variables, cfg.Vars)
		}
	}
	flat := res.Rows[1]
	if flat.ShadowBytesPerVar <= 0 || flat.InternedVCs == 0 {
		t.Errorf("flat row lacks its shadow accounting: %+v", flat)
	}
	if out := res.Render(); !strings.Contains(out, "flat slab table") {
		t.Errorf("render misses the flat row:\n%s", out)
	}
	cfg.BudgetBytesPerVar = flat.ShadowBytesPerVar / 2
	if _, err := h.MemScale(cfg); err == nil {
		t.Error("a budget below the measured bytes per variable passed")
	}
}
