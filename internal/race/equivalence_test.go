// Cross-detector equivalence suite: FastTrack, DJIT+, and the map-based
// reference detector must agree on the set of reported races for every
// input — hand-built synchronization scenarios, every built-in workload,
// and all of the paper's Table 2 planted bugs. FastTrack's claim is
// precision identical to the vector-clock baseline, so any divergence
// here is a detector bug.
//
// This file is an external test package so it can drive the full
// pipeline through internal/core, which itself imports internal/race.
package race_test

import (
	"fmt"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

func eacc(tid int32, pc, addr uint64, store bool, tsc uint64) replay.Access {
	return replay.Access{TID: tid, PC: pc, Addr: addr, Store: store, TSC: tsc, Step: -1}
}

func esync(tid int32, kind tracefmt.SyncKind, tsc, addr, aux uint64) tracefmt.SyncRecord {
	return tracefmt.SyncRecord{TID: tid, Kind: kind, TSC: tsc, Addr: addr, Aux: aux}
}

func raceKeys(rs []race.Report) map[[2]uint64]bool {
	keys := make(map[[2]uint64]bool, len(rs))
	for _, r := range rs {
		keys[r.Key()] = true
	}
	return keys
}

func sameKeySet(a, b map[[2]uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkEquivalence feeds one (sync log, access map) input to every
// detector and requires identical deduplicated race-key sets. For the
// reference detector the bar is higher: its report list must match
// FastTrack's exactly, in order.
func checkEquivalence(t *testing.T, sync []tracefmt.SyncRecord, accs map[int32][]replay.Access) {
	t.Helper()
	opts := race.Options{TrackAllocations: true}

	ft := race.Detect(sync, accs, opts)
	want := raceKeys(ft.Reports())

	dj := race.DetectDjit(sync, accs, opts)
	if got := raceKeys(dj.Reports()); !sameKeySet(got, want) {
		t.Errorf("DJIT+ race set differs from FastTrack: %d keys vs %d", len(got), len(want))
	}

	// The map-based reference detector must match the flat-table detector
	// report-for-report — same keys, same order, same provenance.
	ref := race.NewReferenceDetector(opts)
	race.Feed(ref, sync, accs)
	if len(ref.Reports()) != len(ft.Reports()) {
		t.Fatalf("reference detector: %d reports, flat table has %d", len(ref.Reports()), len(ft.Reports()))
	}
	for i, r := range ref.Reports() {
		if r != ft.Reports()[i] {
			t.Fatalf("reference report %d differs from flat table:\n  ref:  %+v\n  flat: %+v", i, r, ft.Reports()[i])
		}
	}
}

// scenario is one hand-built synchronization pattern.
type scenario struct {
	name string
	sync []tracefmt.SyncRecord
	accs map[int32][]replay.Access
}

func scenarios() []scenario {
	lock := uint64(0x700000)
	return []scenario{
		{
			name: "unsynchronized write-write",
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, true, 100)},
				2: {eacc(2, 0x400200, 0x600000, true, 200)},
			},
		},
		{
			name: "write-read and read-write",
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, true, 100)},
				2: {eacc(2, 0x400200, 0x600000, false, 200)},
				3: {eacc(3, 0x400300, 0x600000, true, 300)},
			},
		},
		{
			name: "lock ordering suppresses",
			sync: []tracefmt.SyncRecord{
				esync(1, tracefmt.SyncLock, 90, lock, 0),
				esync(1, tracefmt.SyncUnlock, 110, lock, 0),
				esync(2, tracefmt.SyncLock, 190, lock, 0),
				esync(2, tracefmt.SyncUnlock, 210, lock, 0),
			},
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, true, 100)},
				2: {eacc(2, 0x400200, 0x600000, true, 200)},
			},
		},
		{
			name: "distinct locks do not order",
			sync: []tracefmt.SyncRecord{
				esync(1, tracefmt.SyncLock, 90, lock, 0),
				esync(1, tracefmt.SyncUnlock, 110, lock, 0),
				esync(2, tracefmt.SyncLock, 190, lock+64, 0),
				esync(2, tracefmt.SyncUnlock, 210, lock+64, 0),
			},
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, true, 100)},
				2: {eacc(2, 0x400200, 0x600000, true, 200)},
			},
		},
		{
			name: "fork-join ordering",
			sync: []tracefmt.SyncRecord{
				esync(1, tracefmt.SyncThreadCreate, 50, 0, 2),
				esync(2, tracefmt.SyncThreadBegin, 60, 0, 0),
				esync(2, tracefmt.SyncThreadExit, 250, 0, 0),
				esync(1, tracefmt.SyncThreadJoin, 260, 0, 2),
			},
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, true, 40), eacc(1, 0x400110, 0x600000, true, 300)},
				2: {eacc(2, 0x400200, 0x600000, true, 200)},
			},
		},
		{
			name: "read shared then unordered write",
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x600000, false, 100)},
				2: {eacc(2, 0x400200, 0x600000, false, 150)},
				3: {eacc(3, 0x400300, 0x600000, false, 200)},
				4: {eacc(4, 0x400400, 0x600000, true, 400)},
			},
		},
		{
			name: "malloc generation reuse",
			sync: []tracefmt.SyncRecord{
				esync(1, tracefmt.SyncMalloc, 50, 0x800000, 64),
				esync(1, tracefmt.SyncFree, 150, 0x800000, 0),
				esync(2, tracefmt.SyncMalloc, 160, 0x800000, 64),
			},
			accs: map[int32][]replay.Access{
				1: {eacc(1, 0x400100, 0x800010, true, 100)},
				2: {eacc(2, 0x400200, 0x800010, true, 200)},
			},
		},
		{
			name: "many addresses one pc pair",
			accs: func() map[int32][]replay.Access {
				m := map[int32][]replay.Access{}
				for i := uint64(0); i < 64; i++ {
					m[1] = append(m[1], eacc(1, 0x400100, 0x600000+8*i, true, 100+i))
					m[2] = append(m[2], eacc(2, 0x400200, 0x600000+8*i, true, 1000+i))
				}
				return m
			}(),
		},
	}
}

func TestDetectorEquivalenceScenarios(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			checkEquivalence(t, sc.sync, sc.accs)
		})
	}
}

// tracedInput runs the pipeline's online phase plus reconstruction and
// returns the detector input it produces.
func tracedInput(t *testing.T, w workload.Workload, period uint64, seed int64) ([]tracefmt.SyncRecord, map[int32][]replay.Access) {
	t.Helper()
	tr, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true, Machine: w.Machine,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := core.Analyze(w.Program, tr.Trace, core.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Trace.Sync, ar.Accesses
}

func TestDetectorEquivalenceWorkloads(t *testing.T) {
	for _, w := range workload.All(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			sync, accs := tracedInput(t, w, 5000, 11)
			checkEquivalence(t, sync, accs)
		})
	}
}

func TestDetectorEquivalenceTable2Bugs(t *testing.T) {
	for _, bug := range bugs.All() {
		bug := bug
		t.Run(bug.ID, func(t *testing.T) {
			built := bug.Build(1)
			sync, accs := tracedInput(t, built.Workload, 1000, 3)
			checkEquivalence(t, sync, accs)
		})
	}
}

// TestDetectorEquivalenceSeeds varies the schedule on one racy workload so
// the detectors see several distinct interleavings of the same program.
func TestDetectorEquivalenceSeeds(t *testing.T) {
	bug, err := bugs.ByID("apache-21287")
	if err != nil {
		t.Fatal(err)
	}
	built := bug.Build(1)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sync, accs := tracedInput(t, built.Workload, 500, seed)
			checkEquivalence(t, sync, accs)
		})
	}
}
