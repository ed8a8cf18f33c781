package witness

import (
	"fmt"

	"prorace/internal/machine"
	"prorace/internal/prog"
	"prorace/internal/race"
)

// replayBudget caps the number of replays (machine runs) one report's
// generation may spend, minimization included.
const replayBudget = 48

// seedSearch is how many nearby scheduler seeds the bare-replay rung
// probes when the recorded seed alone does not manifest the race.
const seedSearch = 6

// Outcome is the result of one witness generation attempt.
type Outcome struct {
	// Witness is the verified reproduction, nil if none was found within
	// budget (Err then says why).
	Witness *Witness
	// Rung names the generation strategy that succeeded: "seed" (bare
	// replay of a scheduler seed), "schedule" (bare replay plus a forced
	// decision prefix), or "traced" (replay with the PMU driver attached).
	Rung string
	// Replays is the number of machine runs spent.
	Replays int
	// Err describes the failure when Witness is nil.
	Err string
}

// Generate builds and verifies a witness for rep: a reproduction recipe
// that deterministically re-executes p to rep's racing PC pair.
//
// mcfg is the machine configuration of the run that produced the report
// (its Seed is the report's scheduler seed); tspec, when non-nil,
// describes the PMU driver attached during that run.
//
// Generation climbs a ladder of strategies, preferring small, driver-free
// witnesses, and verifies every candidate by actually replaying it:
//
//  1. "seed": replay bare (no driver) with the recorded seed. Driver
//     stalls perturb timing, but many races manifest regardless.
//  2. "schedule": record the decision log of the traced run, transplant
//     it into a bare replay as a forced prefix (tolerant of misses),
//     then minimize: trim every decision after the racing pair, then
//     greedy delta-debug the rest, re-verifying each step.
//  3. "seed" again, over a few nearby seeds.
//  4. "traced": fall back to replaying with the driver attached — the
//     recorded execution itself, guaranteed for any true report.
//
// The returned witness has been replay-verified end to end; its Check
// digests are those of its own verification replay.
func Generate(p *prog.Program, spec ProgSpec, mcfg machine.Config, tspec *TracerSpec, rep race.Report) *Outcome {
	out := &Outcome{}
	pc1, pc2 := rep.First.PC, rep.Second.PC

	// Normalise the machine spec: no hooks/tracer travel in a witness.
	mcfg.Tracer = nil
	mcfg.SchedObserver = nil
	mcfg.SchedDirector = nil

	try := func(cfg machine.Config, forced []Pick, ts *TracerSpec) (*ExecResult, race.Report, bool) {
		if out.Replays >= replayBudget {
			return nil, race.Report{}, false
		}
		out.Replays++
		res, err := Execute(p, ExecSpec{Machine: cfg, Tracer: ts, Forced: forced, KeepPCs: [2]uint64{pc1, pc2}})
		if err != nil {
			return nil, race.Report{}, false
		}
		if matched, ok := FindPairRace(res, pc1, pc2); ok {
			return res, matched, true
		}
		return nil, race.Report{}, false
	}

	finalize := func(rung string, cfg machine.Config, forced []Pick, ts *TracerSpec, res *ExecResult, matched race.Report) *Outcome {
		w := &Witness{
			Comment: fmt.Sprintf("%s: race on %#x between pc %#x and pc %#x (rung %s)",
				spec, matched.Addr, pc1, pc2, rung),
			Prog:    spec.WithFP(p),
			Machine: cfg,
			Tracer:  ts,
			Expect: Expectation{
				Addr:   matched.Addr,
				First:  Endpoint(matched.First),
				Second: Endpoint(matched.Second),
			},
			Check:  res.Check,
			Forced: forced,
		}
		out.Witness = w
		out.Rung = rung
		return out
	}

	// Rung 1: bare replay with the recorded seed.
	if res, matched, ok := try(mcfg, nil, nil); ok {
		return finalize("seed", mcfg, nil, nil, res, matched)
	}

	// Rung 2: transplant the traced run's decision log into a bare replay.
	var tracedRes *ExecResult
	var tracedMatch race.Report
	tracedOK := false
	if tspec != nil {
		tracedRes, tracedMatch, tracedOK = try(mcfg, nil, tspec)
		if tracedOK {
			forced := trimAfter(tracedRes.Decisions, tracedMatch.Second.TSC)
			if res, matched, ok := try(mcfg, forced, nil); ok {
				// bestRes always corresponds to the current picks: minimize
				// only keeps a candidate whose verification replay succeeded,
				// and that replay's result is captured here.
				bestRes, bestMatch := res, matched
				forced = minimize(forced, func(cand []Pick) bool {
					r, m, ok := try(mcfg, cand, nil)
					if ok {
						bestRes, bestMatch = r, m
					}
					return ok
				})
				return finalize("schedule", mcfg, forced, nil, bestRes, bestMatch)
			}
		}
	}

	// Rung 3: nearby scheduler seeds, bare.
	for k := 1; k <= seedSearch; k++ {
		cfg := mcfg
		cfg.Seed = mcfg.Seed + int64(k)*1000003
		if res, matched, ok := try(cfg, nil, nil); ok {
			return finalize("seed", cfg, nil, nil, res, matched)
		}
	}

	// Rung 4: traced replay — the recorded execution itself.
	if tracedOK {
		return finalize("traced", mcfg, nil, tspec, tracedRes, tracedMatch)
	}

	if out.Replays >= replayBudget {
		out.Err = fmt.Sprintf("replay budget (%d) exhausted without a verified reproduction", replayBudget)
	} else {
		out.Err = fmt.Sprintf("race on pair %#x/%#x did not manifest under any strategy (%d replays)", pc1, pc2, out.Replays)
	}
	return out
}

// trimAfter converts a decision log into forced picks, dropping every
// decision made after the second racing access: later decisions cannot
// affect the happens-before relation of accesses already executed.
func trimAfter(log []machine.SchedDecision, secondTSC uint64) []Pick {
	var out []Pick
	for _, d := range log {
		if secondTSC != 0 && d.TSC > secondTSC {
			break
		}
		out = append(out, Pick{Pos: d.Pos, TID: int32(d.TID)})
	}
	return out
}

// minimize greedily shrinks a forced prefix with chunked delta-debugging:
// repeatedly try dropping halving-sized chunks, keeping any drop after
// which ok (a verification replay) still reproduces the race. ok's own
// replay budget bounds the work; when the budget runs out ok returns
// false and minimization stops shrinking, which is safe — just larger.
func minimize(picks []Pick, ok func([]Pick) bool) []Pick {
	for chunk := len(picks) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(picks); {
			cand := make([]Pick, 0, len(picks)-chunk)
			cand = append(cand, picks[:i]...)
			cand = append(cand, picks[i+chunk:]...)
			if ok(cand) {
				picks = cand
			} else {
				i += chunk
			}
		}
	}
	return picks
}
