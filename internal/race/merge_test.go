package race

import (
	"math/rand"
	"sort"
	"testing"

	"prorace/internal/replay"
	"prorace/internal/tracefmt"
)

// mergedEvent identifies one delivered event: accesses carry a unique PC,
// sync records a unique Aux.
type mergedEvent struct {
	sync bool
	tid  int32
	tsc  uint64
	id   uint64
}

// recordSink logs the merged event order.
type recordSink struct{ got []mergedEvent }

func (r *recordSink) HandleSync(rec *tracefmt.SyncRecord) {
	r.got = append(r.got, mergedEvent{true, rec.TID, rec.TSC, rec.Aux})
}

func (r *recordSink) HandleAccess(a *replay.Access) {
	r.got = append(r.got, mergedEvent{false, a.TID, a.TSC, a.PC})
}

// mergeTrace builds a random trace of 1–64 threads, some with empty or
// single-event streams, over a narrow TSC range so that releases, acquires
// and plain events of different threads collide on the same timestamp.
func mergeTrace(rng *rand.Rand) ([]tracefmt.SyncRecord, map[int32][]replay.Access) {
	kinds := []tracefmt.SyncKind{
		tracefmt.SyncUnlock, tracefmt.SyncBarrier, tracefmt.SyncThreadExit, // release
		tracefmt.SyncLock, tracefmt.SyncBarrierWake, tracefmt.SyncThreadJoin, // acquire
		tracefmt.SyncMalloc, tracefmt.SyncFree, // neutral
	}
	nThreads := 1 + rng.Intn(64)
	maxTSC := 1 + rng.Intn(40)
	id := uint64(1)
	var sync []tracefmt.SyncRecord
	accesses := map[int32][]replay.Access{}
	for t := 0; t < nThreads; t++ {
		tid := int32(1 + t)
		n := 0
		switch rng.Intn(4) {
		case 0: // empty stream: present in the access map only
		case 1:
			n = 1
		default:
			n = rng.Intn(60)
		}
		var recs []tracefmt.SyncRecord
		accs := []replay.Access{}
		for i := 0; i < n; i++ {
			tsc := uint64(rng.Intn(maxTSC))
			if rng.Intn(3) == 0 {
				recs = append(recs, syncRec(tid, kinds[rng.Intn(len(kinds))], tsc, 0x700000, id))
			} else {
				a := acc(tid, id, 0x600000, rng.Intn(2) == 0, tsc)
				a.Step = rng.Intn(4) - 1
				accs = append(accs, a)
			}
			id++
		}
		// Sync records arrive in machine (TSC) order.
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TSC < recs[j].TSC })
		sync = append(sync, recs...)
		accesses[tid] = accs
	}
	return sync, accesses
}

// referenceMerge runs the linear-scan merge over the trace's per-thread
// streams, in ascending thread order as Feed builds them.
func referenceMerge(sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access) []mergedEvent {
	byTID := syncByTID(sync)
	tids := make([]int32, 0, len(accesses))
	for tid := range accesses {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	cursors := make([]*streamCursor, len(tids))
	for i, tid := range tids {
		cursors[i] = newStreamCursor(byTID[tid], accesses[tid])
	}
	var rec recordSink
	linearMergeCursors(&rec, cursors)
	return rec.got
}

// TestHeapMergeMatchesLinearScan holds the heap-ordered merge behind Feed
// to the linear-scan reference: it must deliver the identical event
// sequence.
func TestHeapMergeMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sync, accesses := mergeTrace(rng)
		want := referenceMerge(sync, accesses)

		var fed recordSink
		Feed(&fed, sync, accesses)
		if len(fed.got) != len(want) {
			t.Fatalf("seed %d: %d events, want %d", seed, len(fed.got), len(want))
		}
		for i := range want {
			if fed.got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, want %+v", seed, i, fed.got[i], want[i])
			}
		}
	}
}
