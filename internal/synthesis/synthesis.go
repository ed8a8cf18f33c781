// Package synthesis implements the offline "Decode & Synthesis" stage of
// the paper's Figure 1: it combines the PEBS sample stream, the decoded PT
// path, and the synchronization log of each thread into one
// time-synchronised view, using the shared invariant TSC (paper §4.2-4.3).
//
// Concretely it:
//
//   - pins every PEBS sample to its exact step index on the decoded path,
//     using the PMI-synchronised TSC markers the driver injected;
//   - pins every synchronization record to its SYSCALL step on the path
//     (both are in program order, so they zip);
//   - builds a per-thread piecewise-linear TSC estimate over step indices,
//     anchored at samples, markers and sync records, so reconstructed
//     accesses can be given approximate timestamps for reporting.
package synthesis

import (
	"fmt"
	"sort"

	"prorace/internal/isa"
	"prorace/internal/prog"
	"prorace/internal/ptdecode"
	"prorace/internal/tracefmt"
)

// Sample is a PEBS record pinned onto the decoded path.
type Sample struct {
	Rec tracefmt.PEBSRecord
	// StepIndex is the position of the sampled instruction on the path.
	StepIndex int
}

// SyncStep is a synchronization record pinned onto the decoded path.
type SyncStep struct {
	Rec tracefmt.SyncRecord
	// StepIndex is the position of the SYSCALL instruction on the path;
	// -1 for records with no path step (thread begin/exit).
	StepIndex int
}

// ThreadTrace is one thread's synthesised view.
type ThreadTrace struct {
	TID  int32
	Path *ptdecode.Path
	// Samples are the pinned PEBS records, ascending by StepIndex.
	Samples []Sample
	// Sync are the thread's synchronization records, pinned where
	// possible, in TSC order. The pinned ones (StepIndex >= 0) ascend by
	// StepIndex: they zip with the path's syscall steps in order.
	Sync []SyncStep
	// UnpinnedSamples counts PEBS records that could not be located on the
	// path (decoder truncation, marker loss); they are still usable as
	// bare samples.
	UnpinnedSamples []tracefmt.PEBSRecord

	anchors []anchor // for TSC estimation, ascending StepIndex
}

// Anchors reports how many TSC anchors the synthesis built for this
// thread — the prorace_synthesis_anchors_total telemetry series.
func (tt *ThreadTrace) Anchors() int { return len(tt.anchors) }

type anchor struct {
	step int
	tsc  uint64
}

// syncKindOf maps a syscall on the path to the sync-record kind it logs,
// mirroring internal/synctrace. ok is false for untraced syscalls.
func syncKindOf(s isa.Sys) (tracefmt.SyncKind, bool) {
	switch s {
	case isa.SysLock:
		return tracefmt.SyncLock, true
	case isa.SysUnlock:
		return tracefmt.SyncUnlock, true
	case isa.SysCondWait:
		return tracefmt.SyncCondWait, true
	case isa.SysCondSignal:
		return tracefmt.SyncCondSignal, true
	case isa.SysCondBroadcast:
		return tracefmt.SyncCondBroadcast, true
	case isa.SysBarrier:
		return tracefmt.SyncBarrier, true
	case isa.SysThreadCreate:
		return tracefmt.SyncThreadCreate, true
	case isa.SysThreadJoin:
		return tracefmt.SyncThreadJoin, true
	case isa.SysMalloc:
		return tracefmt.SyncMalloc, true
	case isa.SysFree:
		return tracefmt.SyncFree, true
	}
	return 0, false
}

// Options configures synthesis.
type Options struct {
	// Lenient decodes PT streams with gap recovery (ptdecode.Options
	// Lenient) instead of failing the thread at the first corrupt packet.
	Lenient bool
	// MaxSteps bounds each thread's decode (0 means the decoder default).
	MaxSteps int
	// Scratch lends the decoder its run buffers (ptdecode.Options
	// Scratch); nil gives each decode buffers of its own. It never
	// changes results, so a CacheKey leaves it nil.
	Scratch *ptdecode.Scratch
}

// SynthesizeWith combines a trace's components per thread, the decodes
// sharing one Scratch when opts brings none.
func SynthesizeWith(p *prog.Program, tr *tracefmt.Trace, opts Options) (map[int32]*ThreadTrace, error) {
	if opts.Scratch == nil {
		opts.Scratch = new(ptdecode.Scratch)
	}
	out := map[int32]*ThreadTrace{}
	for _, tid := range tr.TIDs() {
		tt, err := SynthesizeThread(p, tr, tid, opts)
		if err != nil {
			return nil, err
		}
		out[tid] = tt
	}
	return out, nil
}

// SynthesizeThread synthesises one thread's view: decode its PT stream,
// pin its samples and sync records, build TSC anchors. Threads are
// independent, so callers may run this concurrently per thread — the
// parallelisation opportunity §7.6 describes — sharing one opts.Scratch.
func SynthesizeThread(p *prog.Program, tr *tracefmt.Trace, tid int32, opts Options) (*ThreadTrace, error) {
	tt := &ThreadTrace{TID: tid}
	if stream, ok := tr.PT[tid]; ok {
		path, err := ptdecode.DecodeWith(p, tid, stream, ptdecode.Options{
			MaxSteps: opts.MaxSteps, Lenient: opts.Lenient, Scratch: opts.Scratch,
		})
		if err != nil {
			return nil, fmt.Errorf("synthesis: tid %d: %w", tid, err)
		}
		tt.Path = path
	} else {
		tt.Path = &ptdecode.Path{TID: tid}
	}
	var syncRecs []tracefmt.SyncRecord
	for _, rec := range tr.Sync {
		if rec.TID == tid {
			syncRecs = append(syncRecs, rec)
		}
	}
	pinSamples(p, tt, tr.PEBS[tid])
	pinSync(p, tt, syncRecs)
	buildAnchors(tt)
	return tt, nil
}

// pinSamples locates each PEBS record on the path via its marker.
func pinSamples(p *prog.Program, tt *ThreadTrace, recs []tracefmt.PEBSRecord) {
	markers := tt.Path.Markers
	mi := 0
	for _, rec := range recs {
		// Markers and samples are both in TSC order; advance to the first
		// marker at this TSC.
		for mi < len(markers) && markers[mi].TSC < rec.TSC {
			mi++
		}
		pinned := false
		for j := mi; j < len(markers) && markers[j].TSC == rec.TSC; j++ {
			if idx, ok := scanBack(p, tt.Path, markers[j].StepIndex, rec.IP); ok {
				tt.Samples = append(tt.Samples, Sample{Rec: rec, StepIndex: idx})
				pinned = true
				break
			}
		}
		if !pinned {
			tt.UnpinnedSamples = append(tt.UnpinnedSamples, rec)
		}
	}
	sort.SliceStable(tt.Samples, func(i, j int) bool {
		return tt.Samples[i].StepIndex < tt.Samples[j].StepIndex
	})
}

// scanBack searches the straight-line stretch ending at stepIndex for the
// sampled IP: back from the step before stepIndex, stopping at the first
// earlier branch. Within such a stretch each PC occurs at most once, so the
// result is exact. The stretch is a matter of steps, not of the path's
// runs: a lenient re-anchor starts a new run after a step that is not a
// branch, and the search continues across it.
func scanBack(p *prog.Program, path *ptdecode.Path, stepIndex int, ip uint64) (int, bool) {
	hi := min(stepIndex-1, path.Len()-1)
	want, ok := isa.AddrToIndex(ip)
	if hi < 0 || !ok {
		return 0, false // no step, or an IP no step can hold
	}
	runs := path.Runs()
	ri, first := path.RunAt(hi) // runs[ri] holds steps [first, first+Len)
	for i := hi; i >= 0; i-- {
		if i < first {
			ri--
			first -= int(runs[ri].Len)
		}
		idx := int(runs[ri].Inst) + i - first
		if idx == want {
			return i, true
		}
		if i < hi && p.Insts[idx].IsBranch() {
			break
		}
	}
	return 0, false
}

// pinSync zips the thread's sync records with the path's traced syscall
// steps (both are in program order).
func pinSync(p *prog.Program, tt *ThreadTrace, recs []tracefmt.SyncRecord) {
	// Collect path indices of sync syscalls with their kinds.
	type pathSys struct {
		idx  int
		kind tracefmt.SyncKind
	}
	var steps []pathSys
	next := 0 // the first step of the next run
	for _, r := range tt.Path.Runs() {
		first := next
		next += int(r.Len)
		if p.SyscallsIn(int(r.Inst), int(r.Inst+r.Len)) == 0 {
			continue
		}
		for k, in := range p.Insts[r.Inst : r.Inst+r.Len] {
			if in.Op != isa.SYSCALL {
				continue
			}
			if kind, traced := syncKindOf(in.Sys); traced {
				steps = append(steps, pathSys{idx: first + k, kind: kind})
			}
		}
	}
	si := 0
	for _, rec := range recs {
		ss := SyncStep{Rec: rec, StepIndex: -1}
		switch rec.Kind {
		case tracefmt.SyncThreadBegin, tracefmt.SyncThreadExit:
			// No syscall step.
		default:
			if si < len(steps) && steps[si].kind == rec.Kind {
				ss.StepIndex = steps[si].idx
				si++
			}
		}
		tt.Sync = append(tt.Sync, ss)
	}
}

// buildAnchors collects (step, tsc) anchor points for TSC estimation.
//
// Pinned samples and sync records are exact: both the step and the TSC
// belong to the same retired instruction, so within a thread they are
// automatically monotone (path order is time order). PMI markers are not:
// a marker carries the TSC of the *sampled* instruction but sits at the
// *PMI delivery* step a few instructions later (skid), so when a sync
// syscall retires inside the skid window the marker claims an earlier TSC
// at a later step. Such an anchor would let EstimateTSC place an access
// before the thread's own preceding release and invert the merge order, so
// markers are admitted only when consistent with the exact anchors around
// them.
func buildAnchors(tt *ThreadTrace) {
	var exact []anchor
	for _, s := range tt.Samples {
		exact = append(exact, anchor{step: s.StepIndex, tsc: s.Rec.TSC})
	}
	for _, s := range tt.Sync {
		if s.StepIndex >= 0 {
			exact = append(exact, anchor{step: s.StepIndex, tsc: s.Rec.TSC})
		}
	}
	sort.Slice(exact, func(i, j int) bool {
		if exact[i].step != exact[j].step {
			return exact[i].step < exact[j].step
		}
		return exact[i].tsc < exact[j].tsc
	})
	tt.anchors = exact
	for _, m := range tt.Path.Markers {
		cand := anchor{step: m.StepIndex, tsc: m.TSC}
		if markerConsistent(exact, cand) {
			tt.anchors = append(tt.anchors, cand)
		}
	}
	sort.Slice(tt.anchors, func(i, j int) bool {
		if tt.anchors[i].step != tt.anchors[j].step {
			return tt.anchors[i].step < tt.anchors[j].step
		}
		return tt.anchors[i].tsc < tt.anchors[j].tsc
	})
}

// markerConsistent reports whether a marker anchor fits monotonically
// between the exact anchors bracketing its step.
func markerConsistent(exact []anchor, cand anchor) bool {
	i := sort.Search(len(exact), func(k int) bool { return exact[k].step >= cand.step })
	if i > 0 && exact[i-1].tsc > cand.tsc {
		return false
	}
	if i < len(exact) && cand.tsc > exact[i].tsc {
		return false
	}
	return true
}

// EstimateTSC returns an approximate TSC for a path step, interpolating
// between the nearest anchors. Reconstructed (unsampled) accesses get their
// report timestamps from this.
func (tt *ThreadTrace) EstimateTSC(step int) uint64 {
	a := tt.anchors
	if len(a) == 0 {
		return 0
	}
	i := sort.Search(len(a), func(k int) bool { return a[k].step >= step })
	switch {
	case i == 0:
		d := a[0].step - step
		if uint64(d) > a[0].tsc {
			return 0
		}
		return a[0].tsc - uint64(d)
	case i == len(a):
		return a[len(a)-1].tsc + uint64(step-a[len(a)-1].step)
	default:
		lo, hi := a[i-1], a[i]
		if hi.step == lo.step || hi.tsc <= lo.tsc {
			return lo.tsc
		}
		frac := float64(step-lo.step) / float64(hi.step-lo.step)
		return lo.tsc + uint64(frac*float64(hi.tsc-lo.tsc))
	}
}
