package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/faultinject"
	"prorace/internal/pmu/driver"
	"prorace/internal/tracefmt"
)

func TestGuardThreadSuccess(t *testing.T) {
	calls := 0
	if te := guardThread(1, "synthesis", func() error { calls++; return nil }); te != nil {
		t.Fatalf("unexpected error: %v", te)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	// An error is attributed to its thread and stage, after one call.
	calls = 0
	te := guardThread(2, "synthesis", func() error { calls++; return errors.New("fatal") })
	if te == nil || calls != 1 || te.TID != 2 || te.Stage != "synthesis" || te.Err.Error() != "fatal" {
		t.Fatalf("calls=%d te=%+v, want one call and the error attributed to tid 2", calls, te)
	}
}

func TestGuardThreadPanicBecomesError(t *testing.T) {
	te := guardThread(3, "reconstruct", func() error { panic("boom") })
	if te == nil {
		t.Fatal("panic swallowed")
	}
	if te.TID != 3 || te.Stage != "reconstruct" {
		t.Fatalf("wrong attribution: %+v", te)
	}
	if !strings.Contains(te.Error(), "boom") {
		t.Fatalf("panic value lost: %v", te)
	}
}

func TestDegradationRecordDedup(t *testing.T) {
	var d Degradation
	d.recordThreadError(&ThreadError{TID: 5, Stage: "synthesis", Err: errors.New("x")})
	d.recordThreadError(&ThreadError{TID: 2, Stage: "reconstruct", Err: errors.New("y")})
	d.recordThreadError(&ThreadError{TID: 5, Stage: "reconstruct", Err: errors.New("z")})
	if len(d.ThreadErrors) != 3 {
		t.Fatalf("thread errors = %d", len(d.ThreadErrors))
	}
	if len(d.DroppedThreads) != 2 || d.DroppedThreads[0] != 2 || d.DroppedThreads[1] != 5 {
		t.Fatalf("dropped = %v, want [2 5]", d.DroppedThreads)
	}
	if !d.Degraded() {
		t.Error("thread errors must mark the run degraded")
	}
	if s := d.Summary(); !strings.Contains(s, "tid 5") || !strings.Contains(s, "dropped threads") {
		t.Errorf("summary incomplete:\n%s", s)
	}
}

func TestSanitizeTraceDropsImpossibleTIDs(t *testing.T) {
	tr := &tracefmt.Trace{
		PEBS: map[int32][]tracefmt.PEBSRecord{
			1:  {{TID: 1, IP: 0x10}},
			-7: {{TID: -7, IP: 0x10}},
		},
		PT: map[int32][]byte{1: {0}, 1 << 30: {0}},
		Sync: []tracefmt.SyncRecord{
			{TID: 1, Kind: tracefmt.SyncLock, Addr: 0x100},
			{TID: 2_000_000_000, Kind: tracefmt.SyncUnlock, Addr: 0x100},
			// Peer TID in Addr: a huge "child" would grow a vector clock
			// to that index.
			{TID: 1, Kind: tracefmt.SyncThreadCreate, Addr: 1 << 40},
			{TID: 1, Kind: tracefmt.SyncThreadJoin, Addr: 2},
			// An exabyte-sized allocation would spin the generation walk.
			{TID: 1, Kind: tracefmt.SyncMalloc, Addr: 0x1000, Aux: 1 << 60},
		},
	}
	var deg Degradation
	if _, err := sanitizeTrace(tr, true, &deg); err == nil {
		t.Fatal("strict mode accepted impossible thread ids")
	}
	out, err := sanitizeTrace(tr, false, &deg)
	if err != nil {
		t.Fatal(err)
	}
	if deg.InvalidTIDDrops != 5 || !deg.Degraded() {
		t.Fatalf("drops = %d, want 5", deg.InvalidTIDDrops)
	}
	if len(out.PEBS) != 1 || len(out.PT) != 1 || len(out.Sync) != 2 {
		t.Fatalf("sanitized trace kept %d/%d/%d, want 1/1/2",
			len(out.PEBS), len(out.PT), len(out.Sync))
	}
	if len(tr.PEBS) != 2 || len(tr.PT) != 2 || len(tr.Sync) != 5 {
		t.Fatal("sanitizeTrace mutated the input trace")
	}

	// A clean trace passes through untouched, same pointer.
	var cleanDeg Degradation
	clean, err := sanitizeTrace(out, true, &cleanDeg)
	if err != nil || clean != out || cleanDeg.Degraded() {
		t.Fatalf("clean trace did not pass through: %v", err)
	}
}

// reportKeys extracts sorted report keys for order-insensitive comparison.
func reportKeys(res *AnalysisResult) [][2]uint64 {
	ks := make([][2]uint64, 0, len(res.Reports))
	for _, r := range res.Reports {
		ks = append(ks, r.Key())
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i][0] != ks[j][0] {
			return ks[i][0] < ks[j][0]
		}
		return ks[i][1] < ks[j][1]
	})
	return ks
}

func TestStrictLenientIdenticalOnCleanTrace(t *testing.T) {
	built, tr := bugTrace(t, "apache-21287", 500, 2)

	for _, workers := range []int{0, -1} {
		opts := AnalysisOptions{Workers: workers}
		strictOpts := opts
		strictOpts.Strict = true
		lenient, err := Analyze(built.Workload.Program, tr.Trace, opts)
		if err != nil {
			t.Fatalf("w=%d lenient: %v", workers, err)
		}
		strict, err := Analyze(built.Workload.Program, tr.Trace, strictOpts)
		if err != nil {
			t.Fatalf("w=%d strict: %v", workers, err)
		}
		if lenient.Degradation.Degraded() {
			t.Fatalf("w=%d: clean trace marked degraded: %s", workers, lenient.Degradation.Summary())
		}
		if lenient.ReplayStats != strict.ReplayStats {
			t.Fatalf("w=%d: replay stats differ", workers)
		}
		lk, sk := reportKeys(lenient), reportKeys(strict)
		if len(lk) != len(sk) {
			t.Fatalf("w=%d: %d lenient vs %d strict reports", workers, len(lk), len(sk))
		}
		for i := range lk {
			if lk[i] != sk[i] {
				t.Fatalf("w=%d: report %d differs", workers, i)
			}
		}
		for _, r := range lenient.Reports {
			if r.GapAdjacent {
				t.Fatalf("clean-trace report flagged gap-adjacent")
			}
		}
	}
}

func TestStrictAbortsOnCorruptPT(t *testing.T) {
	built, tr := bugTrace(t, "apache-21287", 500, 2)
	spec := &faultinject.Spec{Seed: 11, Faults: []faultinject.Fault{{Kind: faultinject.PTFlip, Rate: 0.2}}}

	strict := AnalysisOptions{Strict: true, FaultSpec: spec}
	if _, err := Analyze(built.Workload.Program, tr.Trace, strict); err == nil {
		t.Fatal("strict analysis of heavily corrupted PT succeeded")
	}

	lenient := AnalysisOptions{FaultSpec: spec, DecodeMaxSteps: 1 << 20}
	res, err := Analyze(built.Workload.Program, tr.Trace, lenient)
	if err != nil {
		t.Fatalf("lenient analysis failed outright: %v", err)
	}
	deg := &res.Degradation
	if !deg.Degraded() || deg.Injected == "" {
		t.Fatalf("degradation not recorded: %+v", deg)
	}
	if deg.CorruptPTPackets == 0 && deg.DecodeGaps == 0 {
		t.Error("20% bit flips produced no recorded decode damage")
	}
}

// TestFaultMatrix drives every injector over every Table 2 bug at 1%, 10%
// and 50%: the lenient analysis must survive all of it (no panic, no hard
// error) with the damage accounted.
func TestFaultMatrix(t *testing.T) {
	bugList := bugs.All()
	if testing.Short() {
		bugList = bugList[:3]
	}
	rates := []float64{0.01, 0.1, 0.5}
	for _, bug := range bugList {
		built := bug.Build(1)
		tr, err := TraceProgram(built.Workload.Program, TraceOptions{
			Kind: driver.ProRace, Period: 100, Seed: 5, EnablePT: true,
			Machine: built.Workload.Machine,
		})
		if err != nil {
			t.Fatalf("%s: trace: %v", bug.ID, err)
		}
		for _, kind := range faultinject.Kinds {
			for _, rate := range rates {
				name := fmt.Sprintf("%s/%s@%g", bug.ID, kind, rate)
				spec := &faultinject.Spec{Seed: 5, Faults: []faultinject.Fault{{Kind: kind, Rate: rate}}}
				// The tight decode budget keeps the 12×6×3 matrix fast; the
				// matrix checks survival and accounting, not recall (the
				// faults experiment measures recall with a full budget).
				res, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{
					FaultSpec: spec, DecodeMaxSteps: 1 << 15,
				})
				if err != nil {
					t.Fatalf("%s: lenient analysis errored: %v", name, err)
				}
				if !res.Degradation.Degraded() {
					t.Fatalf("%s: injected faults but Degradation empty", name)
				}
				if res.Degradation.Injected != spec.String() {
					t.Fatalf("%s: Injected = %q", name, res.Degradation.Injected)
				}
			}
		}
	}
}
