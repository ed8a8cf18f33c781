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

// referenceMerge runs the linear-scan merge over the trace's materialised
// per-thread streams, in ascending thread order as Feed builds them.
func referenceMerge(sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access) []mergedEvent {
	syncByTID := SyncByTID(sync)
	tids := make([]int32, 0, len(accesses))
	for tid := range accesses {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	cursors := make([]*streamCursor, len(tids))
	for i, tid := range tids {
		cursors[i] = &streamCursor{buf: ThreadStream(syncByTID[tid], accesses[tid])}
	}
	var rec recordSink
	linearMergeCursors(&rec, cursors)
	return rec.got
}

// chunkedStreams delivers each thread's stream over a channel in random
// chunk sizes, including empty chunks.
func chunkedStreams(rng *rand.Rand, sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access) map[int32]<-chan []Event {
	syncByTID := SyncByTID(sync)
	streams := map[int32]<-chan []Event{}
	for tid := range accesses {
		evs := ThreadStream(syncByTID[tid], accesses[tid])
		var sizes []int
		for rest := len(evs); rest > 0; {
			n := rng.Intn(9)
			if n > rest {
				n = rest
			}
			sizes = append(sizes, n)
			rest -= n
		}
		ch := make(chan []Event, 1)
		go func() {
			for _, n := range sizes {
				ch <- evs[:n:n]
				evs = evs[n:]
			}
			close(ch)
		}()
		streams[tid] = ch
	}
	return streams
}

// TestHeapMergeMatchesLinearScan holds the heap-ordered merge behind Feed,
// FeedStreams and FeedStreamsPooled to the linear-scan reference: every
// path must deliver the identical event sequence.
func TestHeapMergeMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sync, accesses := mergeTrace(rng)
		want := referenceMerge(sync, accesses)

		var fed recordSink
		Feed(&fed, sync, accesses)

		var streamed recordSink
		FeedStreams(&streamed, chunkedStreams(rng, sync, accesses))

		syncByTID := SyncByTID(sync)
		pooledIn := map[int32]<-chan []Event{}
		for tid, accs := range accesses {
			ch := make(chan []Event, 1)
			go StreamThread(ch, syncByTID[tid], accs)
			pooledIn[tid] = ch
		}
		var pooled recordSink
		FeedStreamsPooled(&pooled, pooledIn)

		for _, got := range []struct {
			name string
			evs  []mergedEvent
		}{{"Feed", fed.got}, {"FeedStreams", streamed.got}, {"FeedStreamsPooled", pooled.got}} {
			if len(got.evs) != len(want) {
				t.Fatalf("seed %d %s: %d events, want %d", seed, got.name, len(got.evs), len(want))
			}
			for i := range want {
				if got.evs[i] != want[i] {
					t.Fatalf("seed %d %s: event %d = %+v, want %+v", seed, got.name, i, got.evs[i], want[i])
				}
			}
		}
	}
}
