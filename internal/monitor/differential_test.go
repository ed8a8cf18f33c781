package monitor

import (
	"slices"
	"sort"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// TestDaemonMatchesOfflineAnalysis sends traced Table-2 runs through a
// daemon configured as `proraced serve` configures it (analysis options at
// their zero value) and compares the stored race fingerprints with an
// offline core.Analyze of the same trace. A run sent as one segment is one
// round over the whole run, so the stored set must equal the offline one.
// A run sent as four segments into a larger window is analysed once per
// prefix, so the store must contain the offline set; it may hold more,
// because a prefix can cut a thread's stream before the sync record that
// orders one of its accesses (DESIGN.md §13).
func TestDaemonMatchesOfflineAnalysis(t *testing.T) {
	for _, tc := range []struct {
		bug     string
		period  uint64
		planted bool
	}{
		{"mysql-3596", 1000, true},
		{"cherokee-0.9.2", 10000, false},
	} {
		t.Run(tc.bug, func(t *testing.T) {
			bug, err := bugs.ByID(tc.bug)
			if err != nil {
				t.Fatal(err)
			}
			built := bug.Build(1)
			p := built.Workload.Program
			tr, err := core.TraceProgram(p, core.TraceOptions{
				Kind: driver.ProRace, Period: tc.period, Seed: 1, EnablePT: true,
				Machine: built.Workload.Machine,
			})
			if err != nil {
				t.Fatal(err)
			}
			offline, err := core.Analyze(p, tr.Trace, core.AnalysisOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.planted && !built.Detected(offline.Reports) {
				t.Fatalf("offline analysis missed the planted %s race", tc.bug)
			}
			ref, err := OpenStore("")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ref.ObserveNewAt("t", tr.Trace.Program, offline.Reports, 1); err != nil {
				t.Fatal(err)
			}
			want := storedFingerprints(ref)

			one := daemonFingerprints(t, p, tr.Trace, 1)
			if !slices.Equal(one, want) {
				t.Errorf("one segment: daemon stored %v, offline %v", one, want)
			}
			if testing.Short() {
				return
			}
			four := daemonFingerprints(t, p, tr.Trace, 4)
			for _, fp := range want {
				if !slices.Contains(four, fp) {
					t.Errorf("four segments: daemon stored %v, missing offline %s", four, fp)
				}
			}
			t.Logf("offline %d races; daemon stored %d from one segment, %d from four", len(want), len(one), len(four))
		})
	}
}

// daemonFingerprints streams trace as n segments of one run into a fresh
// synchronous daemon with an 8-segment window and returns the stored
// fingerprints.
func daemonFingerprints(t *testing.T, p *prog.Program, trace *tracefmt.Trace, n int) []string {
	t.Helper()
	m, err := New(syncConfig("", telemetry.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.RegisterProgram(p)
	segs := trace.Split(n)
	for i, seg := range segs {
		frame := tracefmt.EncodeSegment(tracefmt.SegmentHeader{Seq: uint64(i), Tenant: "t", Final: i == len(segs)-1}, seg)
		if err := m.IngestWith("t", IngestMeta{}, frame); err != nil {
			t.Fatal(err)
		}
	}
	return storedFingerprints(m.Store())
}

func storedFingerprints(s *Store) []string {
	var fps []string
	for _, r := range s.Reports() {
		fps = append(fps, r.Fingerprint)
	}
	sort.Strings(fps)
	return fps
}
