package core

import (
	"strconv"
	"sync"
	"time"

	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// synthesizeParallel decodes and pins each thread concurrently, with the
// same per-thread error isolation as the sequential pass: a failing or
// panicking thread is dropped in lenient mode (recorded in deg) and aborts
// in strict mode.
func synthesizeParallel(p *prog.Program, tr *tracefmt.Trace, workers int, sopts synthesis.Options, strict bool, retries int, deg *Degradation) (map[int32]*synthesis.ThreadTrace, error) {
	tids := tr.TIDs()
	type result struct {
		tid  int32
		tt   *synthesis.ThreadTrace
		terr *ThreadError
	}
	work := make(chan int32, len(tids))
	results := make(chan result, len(tids))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tid := range work {
				var tt *synthesis.ThreadTrace
				te := runWithRetry(tid, "synthesis", retries, func() error {
					var err error
					tt, err = synthesis.SynthesizeThreadWith(p, tr, tid, sopts)
					return err
				})
				results <- result{tid: tid, tt: tt, terr: te}
			}
		}()
	}
	for _, tid := range tids {
		work <- tid
	}
	close(work)
	wg.Wait()
	close(results)

	out := map[int32]*synthesis.ThreadTrace{}
	var terrs []*ThreadError
	for r := range results {
		if r.terr != nil {
			terrs = append(terrs, r.terr)
			continue
		}
		out[r.tid] = r.tt
	}
	if err := absorbThreadErrors(terrs, strict, deg); err != nil {
		return nil, err
	}
	return out, nil
}

// streamPass runs pass 1 of reconstruct-and-detect with the replay work
// fanned out across a worker pool and each thread's events streamed into
// the detector as the thread completes, instead of materialising the full
// access map before detection starts. Events travel in fixed-size pooled
// batches (race.EventChunkSize) that the merger recycles as it consumes
// them, so the streaming layer's allocation cost is a handful of chunks
// rather than one event slice per thread. The merged event order — and
// therefore the race report list — is identical to the sequential pass.
//
// Returned timings: the reconstruction stage's wall clock, and the
// detection tail that ran on after the last thread was reconstructed (the
// two stages overlap; their sum is the pass's elapsed time).
func streamPass(engine *replay.Engine, tts map[int32]*synthesis.ThreadTrace, syncRecs []tracefmt.SyncRecord, workers, shards int, ropts race.Options, retries int) (map[int32]threadRecon, race.ReportSink, time.Duration, time.Duration, []*ThreadError) {
	start := time.Now()
	syncByTID := race.SyncByTID(syncRecs)

	// One stream per thread seen in either the sync log or the PT/PEBS
	// synthesis — threads with sync records but no samples still carry
	// happens-before edges.
	tidSet := map[int32]bool{}
	for tid := range tts {
		tidSet[tid] = true
	}
	for tid := range syncByTID {
		tidSet[tid] = true
	}
	send := map[int32]chan []race.Event{}
	streams := map[int32]<-chan []race.Event{}
	for tid := range tidSet {
		ch := make(chan []race.Event, 4)
		send[tid] = ch
		streams[tid] = ch
	}

	// emit hands one thread's events to the merger in pooled fixed-size
	// batches. It runs on a dedicated goroutine per thread so a full
	// channel never stalls a reconstruction worker (the merger consumes
	// nothing until every live stream has produced its head).
	emit := func(tid int32, accs []replay.Access) {
		go race.StreamThread(send[tid], syncByTID[tid], accs)
	}

	// Detection: the merger pulls the k-way-merged event order from the
	// per-thread streams and drives the (possibly sharded) detector,
	// recycling each consumed chunk back into the pool.
	sink := newReportSink(shards, ropts)
	detDone := make(chan struct{})
	go func() {
		defer close(detDone)
		race.FeedStreamsPooled(sink, streams)
		sink.Finish()
	}()

	// Sync-only threads stream straight away.
	for tid := range tidSet {
		if _, ok := tts[tid]; !ok {
			emit(tid, nil)
		}
	}

	recon, terrs := reconstructThreads(engine, tts, sortedTIDs(tts), workers, retries, ropts.Telemetry, emit)
	reconTime := time.Since(start)
	<-detDone
	detectTail := time.Since(start) - reconTime
	return recon, sink, reconTime, detectTail, terrs
}

// reconstructThreads reconstructs the listed threads of tts on up to
// workers goroutines (inline at 1), each guarded: a panic or transient
// failure becomes a ThreadError, returned for the caller to absorb or abort
// on, instead of failing the pass. emit, when non-nil, is called as each
// thread finishes — with nil accesses for a failed thread, whose sync
// records still carry happens-before edges — and must not block.
func reconstructThreads(engine *replay.Engine, tts map[int32]*synthesis.ThreadTrace, tids []int32, workers, retries int, tel *telemetry.Registry, emit func(tid int32, acc []replay.Access)) (map[int32]threadRecon, []*ThreadError) {
	var (
		mu    sync.Mutex
		out   = make(map[int32]threadRecon, len(tids))
		terrs []*ThreadError
	)
	one := func(tid int32) {
		// Per-thread reconstruction lanes in the timeline (track 1+tid so
		// thread lanes never collide with the top-level stage track 0),
		// drawn only when threads run concurrently. The guard keeps the hot
		// loop allocation-free when telemetry is off: no name string is
		// built for a nil registry.
		var sp *telemetry.Span
		if tel != nil && workers > 1 {
			sp = tel.StartSpanTrack("reconstruct t"+strconv.Itoa(int(tid)), 1+int(tid))
		}
		var r threadRecon
		te := runWithRetry(tid, "reconstruct", retries, func() error {
			r.acc, r.st, r.log = engine.ReconstructThreadLogged(tts[tid])
			return nil
		})
		sp.End()
		mu.Lock()
		if te != nil {
			terrs = append(terrs, te)
		} else {
			out[tid] = r
		}
		mu.Unlock()
		if emit != nil {
			emit(tid, r.acc) // nil when the thread failed
		}
	}
	if workers <= 1 || len(tids) <= 1 {
		for _, tid := range tids {
			one(tid)
		}
		return out, terrs
	}
	work := make(chan int32, len(tids))
	for _, tid := range tids {
		work <- tid
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tid := range work {
				one(tid)
			}
		}()
	}
	wg.Wait()
	return out, terrs
}
