package replay

import "prorace/internal/synthesis"

// ReconstructThreadRounds reconstructs tt with the round loop that the
// fixed pass schedule replaced: up to maxRounds rounds of a forward then a
// backward pass, ending after any round past the first that recovers no
// new access. It is the reference TestTwoPassScheduleMatchesFixedPoint
// holds the schedule to.
func (e *Engine) ReconstructThreadRounds(tt *synthesis.ThreadTrace, maxRounds int) ([]Access, Stats) {
	acc, st, _ := e.reconstructPath(tt, false, func(e *Engine, ps *pathState, st *Stats) {
		for round := 0; round < maxRounds; round++ {
			before := ps.recovered
			e.forwardPass(ps, st)
			if e.cfg.Mode == ModeForward {
				return
			}
			e.backwardPass(ps)
			if round > 0 && ps.recovered == before {
				return
			}
		}
	})
	return acc, st
}
