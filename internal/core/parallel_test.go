package core

import (
	"sort"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/pmu/driver"
)

func TestParallelAnalysisMatchesSequential(t *testing.T) {
	bug, err := bugs.ByID("mysql-3596") // 20 threads: real fan-out
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	tr, err := TraceProgram(built.Workload.Program, TraceOptions{
		Kind: driver.ProRace, Period: 500, Seed: 4, EnablePT: true,
		Machine: built.Workload.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}

	opts := AnalysisOptions{}
	seq, err := Analyze(built.Workload.Program, tr.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.Workers = 8
	par, err := Analyze(built.Workload.Program, tr.Trace, popts)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruction must be identical: same per-thread access streams.
	if seq.ReplayStats != par.ReplayStats {
		t.Fatalf("replay stats differ:\n seq %+v\n par %+v", seq.ReplayStats, par.ReplayStats)
	}
	if len(seq.Accesses) != len(par.Accesses) {
		t.Fatalf("thread counts differ: %d vs %d", len(seq.Accesses), len(par.Accesses))
	}
	for tid, sa := range seq.Accesses {
		pa := par.Accesses[tid]
		if len(sa) != len(pa) {
			t.Fatalf("tid %d: %d vs %d accesses", tid, len(sa), len(pa))
		}
		for i := range sa {
			if sa[i] != pa[i] {
				t.Fatalf("tid %d access %d differs: %+v vs %+v", tid, i, sa[i], pa[i])
			}
		}
	}

	// Reports identical up to order.
	sk := make([][2]uint64, 0, len(seq.Reports))
	for _, r := range seq.Reports {
		sk = append(sk, r.Key())
	}
	pk := make([][2]uint64, 0, len(par.Reports))
	for _, r := range par.Reports {
		pk = append(pk, r.Key())
	}
	sortKeys := func(ks [][2]uint64) {
		sort.Slice(ks, func(i, j int) bool {
			if ks[i][0] != ks[j][0] {
				return ks[i][0] < ks[j][0]
			}
			return ks[i][1] < ks[j][1]
		})
	}
	sortKeys(sk)
	sortKeys(pk)
	if len(sk) != len(pk) {
		t.Fatalf("report counts differ: %d vs %d", len(sk), len(pk))
	}
	for i := range sk {
		if sk[i] != pk[i] {
			t.Fatalf("report %d differs", i)
		}
	}
	if seq.Regenerated != par.Regenerated {
		t.Error("regeneration behaviour differs")
	}
}

func TestAnalyzeWorkersMatchSequential(t *testing.T) {
	bug, err := bugs.ByID("apache-21287")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	tr, err := TraceProgram(built.Workload.Program, TraceOptions{
		Kind: driver.ProRace, Period: 500, Seed: 9, EnablePT: true,
		Machine: built.Workload.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		got, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.ReplayStats != seq.ReplayStats {
			t.Fatalf("workers=%d: replay stats differ:\n got %+v\nwant %+v", workers, got.ReplayStats, seq.ReplayStats)
		}
		if len(got.Reports) != len(seq.Reports) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got.Reports), len(seq.Reports))
		}
		for i := range got.Reports {
			if got.Reports[i] != seq.Reports[i] {
				t.Fatalf("workers=%d: report %d = %+v, want %+v", workers, i, got.Reports[i], seq.Reports[i])
			}
		}
		if got.Regenerated != seq.Regenerated {
			t.Errorf("workers=%d: regeneration behaviour differs", workers)
		}
	}
}

func TestWorkerCountResolution(t *testing.T) {
	if workerCount(0) != 1 {
		t.Error("0 must mean sequential")
	}
	if workerCount(-1) < 1 {
		t.Error("negative must resolve to GOMAXPROCS")
	}
	if workerCount(6) != 6 {
		t.Error("positive counts must pass through")
	}
}

func TestParallelAnalysisDefaultWorkers(t *testing.T) {
	w, tr := apacheTrace(t)
	ar, err := Analyze(w.Program, tr.Trace, AnalysisOptions{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ar.ReplayStats.Total() == 0 {
		t.Error("parallel analysis with default workers produced nothing")
	}
}
