package replay

import (
	"cmp"
	"slices"

	"prorace/internal/isa"
	"prorace/internal/synthesis"
)

// ReconstructThreadRounds reconstructs tt with the round loop that the
// fixed pass schedule replaced: up to maxRounds rounds of a forward then a
// backward pass, ending after any round past the first that recovers no
// new access. It is the reference TestTwoPassScheduleMatchesFixedPoint
// holds the schedule to. Its backward passes walk every segment uncut:
// from the second round on they follow a forward pass that applied
// learned facts, where the cut's dominance argument does not hold.
func (e *Engine) ReconstructThreadRounds(tt *synthesis.ThreadTrace, maxRounds int) ([]Access, Stats) {
	acc, st, _ := e.reconstructPath(tt, false, func(e *Engine, ps *pathState, st *Stats) {
		for round := 0; round < maxRounds; round++ {
			before := ps.recovered
			e.forwardPass(ps, st)
			if e.cfg.Mode == ModeForward {
				return
			}
			e.backwardPass(ps, (*Engine).uncutSegment)
			mergeLearned(ps)
			if round > 0 && ps.recovered == before {
				return
			}
		}
	})
	return acc, st
}

// mergeLearned restores the one-entry-per-step ascending order of
// ps.learned after a later round appended its own ascending block. A later
// round learns only registers its forward pass lacked, so it never
// re-learns a register an earlier round learned at the same step.
func mergeLearned(ps *pathState) {
	slices.SortStableFunc(ps.learned, func(a, b stepFacts) int { return cmp.Compare(a.step, b.step) })
	out := ps.learned[:0]
	for _, f := range ps.learned {
		if n := len(out); n > 0 && out[n-1].step == f.step {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if f.facts.avail&(1<<r) != 0 {
					out[n-1].facts.set(r, f.facts.val[r])
				}
			}
			continue
		}
		out = append(out, f)
	}
	ps.learned = out
}

// ReconstructThreadUncut is ReconstructThreadLogged with every backward
// segment walked down to its lower end: the reference the cut in
// backwardSegment is held to.
func (e *Engine) ReconstructThreadUncut(tt *synthesis.ThreadTrace) ([]Access, Stats, *LoadLog) {
	acc, st, log := e.reconstructPath(tt, e.emulateMemory && len(e.cfg.InvalidAddrs) == 0, func(e *Engine, ps *pathState, st *Stats) {
		e.forwardPass(ps, st)
		if e.cfg.Mode == ModeForwardBackward {
			e.backwardPass(ps, (*Engine).uncutSegment)
			e.forwardPass(ps, st)
		}
	})
	return acc, st, log
}

// BackwardSteps reconstructs tt with the fixed schedule and returns how
// many steps its backward pass walked and how many the uncut walk would
// have walked over the same segments.
func (e *Engine) BackwardSteps(tt *synthesis.ThreadTrace) (walked, uncut int) {
	e.reconstructPath(tt, false, func(e *Engine, ps *pathState, st *Stats) {
		e.forwardPass(ps, st)
		e.backwardPass(ps, func(e *Engine, ps *pathState, lo, hi int, cur regFile) int {
			stop := e.backwardSegment(ps, lo, hi, cur)
			walked += hi + 1 - stop
			uncut += hi + 1 - lo
			return stop
		})
		e.forwardPass(ps, st)
	})
	return walked, uncut
}

// uncutSegment is backwardSegment as it was before the walk stopped early:
// every step of [lo, hi] is walked, and each step copies the whole
// register file to keep its post-state.
func (e *Engine) uncutSegment(ps *pathState, lo, hi int, cur regFile) int {
	runs := ps.tt.Path.Runs
	ri := ps.tt.Path.RunAt(hi)
	var regBuf [2]isa.Reg
	for i := hi; i >= lo; i-- {
		if i < int(runs[ri].Step) {
			ri--
		}
		idx := int(runs[ri].Inst) + i - int(runs[ri].Step)
		in := &e.p.Insts[idx]

		post := cur
		e.unexecute(in, &cur)
		for _, d := range in.AppendDefs(regBuf[:0]) {
			if post.has(d) && (!cur.has(d) || cur.get(d) != post.get(d)) {
				ps.learnFact(hi, i+1, d, post.get(d))
			}
		}

		if i < hi && in.IsMemAccess() && !ps.known[i] {
			if addr, ok := addrOf(in, &cur, isa.IndexToAddr(idx)); ok {
				ps.known[i] = true
				ps.origin[i] = OriginBackward
				ps.addrs[i] = addr
				ps.recovered++
			}
		}

		if i < hi && in.HasMemOperand() {
			for _, r := range in.AppendAddrRegs(regBuf[:0]) {
				if cur.has(r) && ps.fwdAvail[i]&(1<<r) == 0 {
					ps.learnedSlot(i).set(r, cur.get(r))
				}
			}
		}
	}
	return lo
}
