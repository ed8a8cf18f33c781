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
	acc, st, _ := e.reconstructPath(tt, false, func(e *Engine, ps *pathState) {
		for round := 0; round < maxRounds; round++ {
			before := len(ps.recs)
			e.forwardPass(ps, true)
			if e.cfg.Mode == ModeForward {
				return
			}
			e.backwardPass(ps, (*Engine).uncutSegment)
			mergeLearned(ps)
			if round > 0 && len(ps.recs) == before {
				return
			}
		}
	})
	return acc, st
}

// mergeLearned restores the ascending step order of ps.learned after a
// later round appended its own ascending block.
func mergeLearned(ps *pathState) {
	slices.SortStableFunc(ps.learned, func(a, b fact) int { return cmp.Compare(a.step, b.step) })
}

// ReconstructThreadUncut is ReconstructThreadLogged with every backward
// segment walked down to its lower end and the second forward pass walking
// every step: the reference both cuts are held to.
func (e *Engine) ReconstructThreadUncut(tt *synthesis.ThreadTrace) ([]Access, Stats, *LoadLog) {
	return e.reconstructFullF2(tt, (*Engine).uncutSegment)
}

// ReconstructThreadFullF2 is ReconstructThreadLogged with the second
// forward pass walking every step: the reference its skip is held to.
func (e *Engine) ReconstructThreadFullF2(tt *synthesis.ThreadTrace) ([]Access, Stats, *LoadLog) {
	return e.reconstructFullF2(tt, (*Engine).backwardSegment)
}

func (e *Engine) reconstructFullF2(tt *synthesis.ThreadTrace, walk segmentWalk) ([]Access, Stats, *LoadLog) {
	return e.reconstructPath(tt, e.emulateMemory && len(e.cfg.InvalidAddrs) == 0, func(e *Engine, ps *pathState) {
		e.forwardPass(ps, true)
		if e.cfg.Mode == ModeForwardBackward {
			e.backwardPass(ps, walk)
			e.forwardPass(ps, true)
		}
	})
}

// BackwardSteps reconstructs tt up to the backward pass of the fixed
// schedule and returns how many steps that pass walked and how many the
// uncut walk would have walked over the same segments.
func (e *Engine) BackwardSteps(tt *synthesis.ThreadTrace) (walked, uncut int) {
	e.reconstructPath(tt, false, func(e *Engine, ps *pathState) {
		e.forwardPass(ps, true)
		e.backwardPass(ps, func(e *Engine, ps *pathState, lo, hi int, cur regFile) int {
			stop := e.backwardSegment(ps, lo, hi, cur)
			walked += hi + 1 - stop
			uncut += hi + 1 - lo
			return stop
		})
	})
	return walked, uncut
}

// ForwardSteps reconstructs tt with the fixed schedule and returns how many
// steps its second forward pass walked, out of the path's steps.
func (e *Engine) ForwardSteps(tt *synthesis.ThreadTrace) (walked, steps int) {
	e.reconstructPath(tt, false, func(e *Engine, ps *pathState) {
		e.forwardPass(ps, true)
		e.backwardPass(ps, (*Engine).backwardSegment)
		walked = e.forwardPass(ps, false)
	})
	return walked, tt.Path.Len()
}

// uncutSegment is backwardSegment as it was before the walk stopped early:
// every step of [lo, hi] is walked, and each step copies the whole
// register file to keep its post-state.
func (e *Engine) uncutSegment(ps *pathState, lo, hi int, cur regFile) int {
	runs := ps.tt.Path.Runs()
	ri, first := ps.tt.Path.RunAt(hi)
	var regBuf [2]isa.Reg
	for i := hi; i >= lo; i-- {
		if i < first {
			ri--
			first -= int(runs[ri].Len)
		}
		idx := int(runs[ri].Inst) + i - first
		in := &e.p.Insts[idx]

		post := cur
		e.unexecute(in, &cur)
		for _, d := range in.AppendDefs(regBuf[:0]) {
			if post.has(d) && (!cur.has(d) || cur.get(d) != post.get(d)) {
				ps.learnFact(hi, i+1, d, post.get(d))
			}
		}

		if i < hi && in.IsMemAccess() && !ps.isKnown(i) {
			if addr, ok := addrOf(in, &cur, isa.IndexToAddr(idx)); ok {
				ps.recover(i, addr, OriginBackward)
			}
		}

		if i < hi && in.HasMemOperand() {
			for _, r := range in.AppendAddrRegs(regBuf[:0]) {
				if cur.has(r) && ps.fwdAvail[i]&(1<<r) == 0 {
					ps.learn(i, r, cur.get(r))
				}
			}
		}
	}
	return lo
}

// addrOf computes a memory operand's effective address under availability
// tracking from the isa methods alone; ok is false when a required
// register is unavailable. The uncut reference walk reads instructions
// through it instead of the op table, so it checks the table.
func addrOf(in *isa.Inst, rf *regFile, pc uint64) (uint64, bool) {
	if !addrKnown(in, rf.avail) {
		return 0, false
	}
	return in.EffectiveAddress(func(r isa.Reg) uint64 { return rf.get(r) }, pc), true
}

// addrKnown reports whether every address register of in is in avail.
func addrKnown(in *isa.Inst, avail uint16) bool {
	var regBuf [2]isa.Reg
	for _, r := range in.AppendAddrRegs(regBuf[:0]) {
		if avail&(1<<r) == 0 {
			return false
		}
	}
	return true
}
