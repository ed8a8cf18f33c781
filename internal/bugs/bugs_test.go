// External test package: these tests drive the full pipeline through
// internal/core, which (via the witness layer) imports this package —
// an in-package test file would form an import cycle.
package bugs_test

import (
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/racez"
)

func TestAllBugsBuildAndValidate(t *testing.T) {
	bs := bugs.All()
	if len(bs) != 12 {
		t.Fatalf("bugs = %d, want 12 (Table 2)", len(bs))
	}
	types := map[bugs.AccessType]int{}
	for _, b := range bs {
		types[b.Type]++
		built := build(b)
		if err := built.Workload.Program.Validate(); err != nil {
			t.Errorf("%s: %v", b.ID, err)
		}
		if len(built.RacyPCs) != 2 {
			t.Errorf("%s: %d racy PCs, want 2", b.ID, len(built.RacyPCs))
		}
	}
	// Table 2's composition: 6 memory-indirect, 3 register-indirect... the
	// paper has 5 mem, 4 reg, 3 pcrel.
	if types[bugs.PCRel] != 3 {
		t.Errorf("pcrel bugs = %d, want 3", types[bugs.PCRel])
	}
	if types[bugs.MemIndirect]+types[bugs.RegIndirect] != 9 {
		t.Errorf("indirect bugs = %d, want 9", types[bugs.MemIndirect]+types[bugs.RegIndirect])
	}
}

func TestByID(t *testing.T) {
	if _, err := bugs.ByID("pfscan"); err != nil {
		t.Error(err)
	}
	if _, err := bugs.ByID("nosuch"); err == nil {
		t.Error("unknown id must fail")
	}
	for _, ty := range []bugs.AccessType{bugs.MemIndirect, bugs.RegIndirect, bugs.PCRel} {
		if ty.String() == "?" {
			t.Error("access type unnamed")
		}
	}
	if bugs.AccessType(9).String() != "?" {
		t.Error("unknown access type must render ?")
	}
}

// runOnce traces and analyzes one bug run, returning whether the planted
// race was detected. Runs are shared across the package's tests.
func runOnce(t *testing.T, built *bugs.Built, period uint64, seed int64, prorace bool) bool {
	t.Helper()
	topts := racez.TraceOptions(period, seed, built.Workload.Machine)
	aopts := racez.AnalysisOptions()
	if prorace {
		topts = core.TraceOptions{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true}
		aopts = core.AnalysisOptions{}
	}
	return traceRun(t, built, topts).detect(t, built, aopts)
}

func TestPCRelBugsAlwaysDetected(t *testing.T) {
	// The paper's Table 2: PC-relative bugs are detected in every trace at
	// every period — the path alone reconstructs the racy accesses.
	for _, id := range []string{"pfscan", "aget-bug2", "pbzip2-0.9.1"} {
		b, err := bugs.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		built := build(b)
		hits := 0
		const trials = 6
		for seed := int64(1); seed <= trials; seed++ {
			if runOnce(t, built, 10000, seed, true) {
				hits++
			}
		}
		if hits < trials-1 {
			t.Errorf("%s: detected %d/%d at period 10K, want ~all", id, hits, trials)
		}
	}
}

func TestIndirectBugsDetectableAtSmallPeriod(t *testing.T) {
	// At period 100 the paper detects 11/12 bugs in nearly every trace.
	for _, id := range []string{"apache-21287", "mysql-3596"} {
		b, err := bugs.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		built := build(b)
		hits := 0
		const trials = 6
		for seed := int64(1); seed <= trials; seed++ {
			if runOnce(t, built, 100, seed, true) {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("%s: never detected at period 100 over %d seeds", id, trials)
		}
		t.Logf("%s @100: %d/%d", id, hits, trials)
	}
}

func TestProRaceBeatsRaceZ(t *testing.T) {
	// Aggregate detection over a few bugs and seeds: ProRace must strictly
	// dominate the RaceZ baseline (Table 2's headline).
	ids := []string{"pfscan", "apache-21287", "mysql-3596", "cherokee-0.9.2"}
	proHits, rzHits := 0, 0
	const trials = 5
	for _, id := range ids {
		b, err := bugs.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		built := build(b)
		for seed := int64(1); seed <= trials; seed++ {
			if runOnce(t, built, 1000, seed, true) {
				proHits++
			}
			if runOnce(t, built, 1000, seed, false) {
				rzHits++
			}
		}
	}
	if proHits <= rzHits {
		t.Errorf("ProRace %d/%d vs RaceZ %d/%d: no advantage", proHits, len(ids)*trials, rzHits, len(ids)*trials)
	}
	t.Logf("ProRace %d/%d, RaceZ %d/%d at period 1K", proHits, len(ids)*trials, rzHits, len(ids)*trials)
}

func TestDetectionImprovesWithSmallerPeriod(t *testing.T) {
	b, err := bugs.ByID("apache-21287")
	if err != nil {
		t.Fatal(err)
	}
	built := build(b)
	count := func(period uint64) int {
		hits := 0
		for seed := int64(1); seed <= 8; seed++ {
			if runOnce(t, built, period, seed, true) {
				hits++
			}
		}
		return hits
	}
	h100, h10000 := count(100), count(10000)
	if h100 < h10000 {
		t.Errorf("detection at period 100 (%d/8) below period 10K (%d/8)", h100, h10000)
	}
	t.Logf("apache-21287: @100 %d/8, @10K %d/8", h100, h10000)
}
