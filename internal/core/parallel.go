package core

import (
	"strconv"
	"sync"

	"prorace/internal/prog"
	"prorace/internal/ptdecode"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// fanOut calls one for every tid: inline, in order, at one worker (or for
// a single thread), otherwise on a pool of up to workers goroutines, in
// which case one must be safe for concurrent use.
func fanOut(tids []int32, workers int, one func(tid int32)) {
	if workers <= 1 || len(tids) <= 1 {
		for _, tid := range tids {
			one(tid)
		}
		return
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
}

// synthesizeThreads decodes and pins every thread of tr on up to workers
// goroutines, each guarded: a failing or panicking thread is dropped in
// lenient mode (recorded in deg) and aborts in strict mode.
func synthesizeThreads(p *prog.Program, tr *tracefmt.Trace, workers int, sopts synthesis.Options, strict bool, deg *Degradation) (map[int32]*synthesis.ThreadTrace, error) {
	var (
		mu    sync.Mutex
		out   = map[int32]*synthesis.ThreadTrace{}
		terrs []*ThreadError
	)
	// One scratch per analysis, so its run buffers warm once per call and
	// the call allocates the same on every run.
	sopts.Scratch = new(ptdecode.Scratch)
	fanOut(tr.TIDs(), workers, func(tid int32) {
		var tt *synthesis.ThreadTrace
		te := guardThread(tid, "synthesis", func() error {
			var err error
			tt, err = synthesis.SynthesizeThread(p, tr, tid, sopts)
			return err
		})
		mu.Lock()
		defer mu.Unlock()
		if te != nil {
			terrs = append(terrs, te)
			return
		}
		out[tid] = tt
	})
	if err := absorbThreadErrors(terrs, strict, deg); err != nil {
		return nil, err
	}
	return out, nil
}

// reconstructThreads reconstructs the listed threads of tts on up to
// workers goroutines, each guarded: a panic becomes a ThreadError,
// returned for the caller to absorb or abort on, instead of failing the
// pass.
func reconstructThreads(engine *replay.Engine, tts map[int32]*synthesis.ThreadTrace, tids []int32, workers int, tel *telemetry.Registry) (map[int32]threadRecon, []*ThreadError) {
	var (
		mu    sync.Mutex
		out   = make(map[int32]threadRecon, len(tids))
		terrs []*ThreadError
	)
	fanOut(tids, workers, func(tid int32) {
		// Per-thread reconstruction lanes in the timeline (track 1+tid so
		// thread lanes never collide with the top-level stage track 0),
		// drawn only when threads run concurrently. The guard keeps the hot
		// loop allocation-free when telemetry is off: no name string is
		// built for a nil registry.
		var sp telemetry.Span
		if tel != nil && workers > 1 {
			sp = tel.StartSpanTrack("reconstruct t"+strconv.Itoa(int(tid)), 1+int(tid))
		}
		var r threadRecon
		te := guardThread(tid, "reconstruct", func() error {
			r.acc, r.st, r.log = engine.ReconstructThreadLogged(tts[tid])
			return nil
		})
		sp.End()
		mu.Lock()
		defer mu.Unlock()
		if te != nil {
			terrs = append(terrs, te)
			return
		}
		out[tid] = r
	})
	return out, terrs
}
