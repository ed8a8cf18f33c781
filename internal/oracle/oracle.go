// Package oracle is the ground-truth differential harness for the ProRace
// pipeline (the correctness backstop behind PAPER.md §6's recall claims).
//
// For each seed it generates a random concurrent program
// (progtest.ConcurrentProgram), runs it once per sampling period under the
// real PMU driver while a Recorder captures *every* memory access of that
// same execution, computes the exact happens-before race set with the
// pair-complete race.PairOracle, runs the production pipeline
// (core.Analyze) on the sampled trace, and scores the pipeline against the
// ground truth:
//
//   - precision at PC-pair granularity: every reported pair must be in the
//     oracle's pair set (zero false positives);
//   - recall at racy-address granularity: FastTrack guarantees at least
//     one report per racy variable, so at period=1 the pipeline must
//     recover every racy address, and recall must not improve as the
//     period grows.
//
// Each period gets its own ground truth because the driver's stall cycles
// perturb the deterministic scheduler: the executions at period 1 and
// period 1000 are different interleavings of the same program, and each is
// scored against the races of its own execution.
//
// Metamorphic invariants (CheckDeterminism) re-analyze one trace at 0 and 4
// workers, with the path cache on and off, and in strict vs lenient mode, requiring byte-identical reports every time.
package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"prorace/internal/core"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
	"prorace/internal/witness"
)

// Recorder is a machine.Tracer wrapper that captures every retired memory
// access while delegating all callbacks — stall cycles included — to the
// wrapped tracer (the PMU driver), so the recorded execution is exactly
// the one whose sampled trace the pipeline analyzes.
type Recorder struct {
	inner machine.Tracer
	// Accesses is the complete per-thread access trace, in program order.
	Accesses map[int32][]replay.Access
	steps    map[int32]int
}

// NewRecorder creates a Recorder; Wrap installs the delegate.
func NewRecorder() *Recorder {
	return &Recorder{Accesses: map[int32][]replay.Access{}, steps: map[int32]int{}}
}

// Wrap is the core.TraceOptions.WrapTracer hook.
func (r *Recorder) Wrap(inner machine.Tracer) machine.Tracer {
	r.inner = inner
	return r
}

// InstRetired implements machine.Tracer. Loads and stores retire exactly
// once (only blocked syscalls re-deliver), so no deduplication is needed.
func (r *Recorder) InstRetired(ev *machine.InstEvent) uint64 {
	tid := int32(ev.TID)
	step := r.steps[tid]
	r.steps[tid] = step + 1
	if ev.IsMem {
		r.Accesses[tid] = append(r.Accesses[tid], replay.Access{
			TID:   tid,
			PC:    ev.PC,
			Addr:  ev.MemAddr,
			Store: ev.IsStore,
			TSC:   ev.TSC,
			Step:  step,
		})
	}
	return r.inner.InstRetired(ev)
}

// SyscallRetired implements machine.Tracer.
func (r *Recorder) SyscallRetired(ev *machine.SyscallEvent) uint64 {
	return r.inner.SyscallRetired(ev)
}

// ThreadStarted implements machine.Tracer.
func (r *Recorder) ThreadStarted(tid machine.TID, tsc uint64) { r.inner.ThreadStarted(tid, tsc) }

// ThreadExited implements machine.Tracer.
func (r *Recorder) ThreadExited(tid machine.TID, tsc uint64) { r.inner.ThreadExited(tid, tsc) }

// GroundTruth computes the exact race set of a recorded execution: the
// complete access trace merged with the (unsampled, hence complete) sync
// log, through the pair-complete oracle detector.
func GroundTruth(sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access) *race.PairOracle {
	o := race.NewPairOracle(race.Options{TrackAllocations: true})
	race.Feed(o, sync, accesses)
	o.Finish()
	return o
}

// PeriodScore is the differential result for one (seed, period) run.
type PeriodScore struct {
	Period uint64
	// Ground-truth sizes for this period's execution.
	GTPairs int `json:"gt_pairs"`
	GTAddrs int `json:"gt_addrs"`
	// Pipeline results: detected pairs that are true/false vs the oracle,
	// and racy addresses found/invented.
	TruePairs  int `json:"true_pairs"`
	FalsePairs int `json:"false_pairs"`
	TrueAddrs  int `json:"true_addrs"`
	FalseAddrs int `json:"false_addrs"`
	// WitnessedPairs counts true-positive pairs for which witness
	// generation produced a replay-verified reproduction (only populated
	// when Options.Witness is set; the witnessability invariant requires
	// it to equal TruePairs).
	WitnessedPairs int `json:"witnessed_pairs"`
}

// WitnessRatio is witnessed / true positives (1.0 when there were none).
func (s PeriodScore) WitnessRatio() float64 {
	if s.TruePairs == 0 {
		return 1.0
	}
	return float64(s.WitnessedPairs) / float64(s.TruePairs)
}

// AddrRecall is the fraction of ground-truth racy addresses the pipeline
// found (1.0 when the execution had no races).
func (s PeriodScore) AddrRecall() float64 {
	if s.GTAddrs == 0 {
		return 1.0
	}
	return float64(s.TrueAddrs) / float64(s.GTAddrs)
}

// SeedResult is one seed's differential run across all periods.
type SeedResult struct {
	Seed   int64
	Info   progtest.ConcurrentInfo
	Scores []PeriodScore
	// Violations lists every invariant broken by this seed, each message
	// carrying the (seed, period) needed to reproduce it.
	Violations []string
}

// Options configures a differential run.
type Options struct {
	// Periods to score; must include 1 for the recall@1 invariant.
	// Sorted ascending before use. Default {1, 10, 100, 1000}.
	Periods []uint64
	// Determinism enables the metamorphic worker/cache/strict
	// matrix on this seed's period-1 trace (expensive; soak runs it on a
	// subset of seeds).
	Determinism bool
	// Witness enables the second differential axis: every true-positive
	// report must come with a replay-verified witness (internal/witness).
	// A true race the witness generator cannot reproduce is a violation —
	// either the race is not really there, or the replayer drifted from
	// the traced machine.
	Witness bool
}

// DefaultPeriods is the standard recall-vs-period sweep.
func DefaultPeriods() []uint64 { return []uint64{1, 10, 100, 1000} }

func (o *Options) setDefaults() {
	if len(o.Periods) == 0 {
		o.Periods = DefaultPeriods()
	}
	sort.Slice(o.Periods, func(i, j int) bool { return o.Periods[i] < o.Periods[j] })
}

// RunSeed generates the seed's program and scores the pipeline against the
// ground truth at every period.
func RunSeed(seed int64, opts Options) (*SeedResult, error) {
	opts.setDefaults()
	p, info := progtest.ConcurrentProgram(rand.New(rand.NewSource(seed)))
	res := &SeedResult{Seed: seed, Info: info}

	for _, period := range opts.Periods {
		score, tr, err := runPeriod(p, seed, period, opts.Witness)
		if err != nil {
			return nil, fmt.Errorf("oracle: seed %d period %d: %w", seed, period, err)
		}
		res.Scores = append(res.Scores, *score)

		if opts.Witness && score.WitnessedPairs != score.TruePairs {
			res.Violations = append(res.Violations,
				fmt.Sprintf("seed %d period %d: %d/%d true-positive pairs have no replay-verified witness",
					seed, period, score.TruePairs-score.WitnessedPairs, score.TruePairs))
		}
		if score.FalsePairs > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("seed %d period %d: %d reported pairs not in ground truth", seed, period, score.FalsePairs))
		}
		if score.FalseAddrs > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("seed %d period %d: %d racy addrs not in ground truth", seed, period, score.FalseAddrs))
		}
		if period == 1 && score.TrueAddrs != score.GTAddrs {
			res.Violations = append(res.Violations,
				fmt.Sprintf("seed %d: recall@period=1 is %d/%d racy addrs, want all", seed, score.TrueAddrs, score.GTAddrs))
		}
		if opts.Determinism && period == opts.Periods[0] {
			res.Violations = append(res.Violations, CheckDeterminism(p, tr, seed)...)
		}
	}
	return res, nil
}

// runPeriod performs one traced execution + ground truth + pipeline run;
// withWitness additionally requires a replay-verified witness per report.
func runPeriod(p *prog.Program, seed int64, period uint64, withWitness bool) (*PeriodScore, *tracefmt.Trace, error) {
	rec := NewRecorder()
	tr, err := core.TraceProgram(p, core.TraceOptions{
		Kind:       driver.ProRace,
		Period:     period,
		Seed:       seed,
		EnablePT:   true,
		WrapTracer: rec.Wrap,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}

	gt := GroundTruth(tr.Trace.Sync, rec.Accesses)
	gtPairs := pairSet(gt.Reports())

	aopts := core.AnalysisOptions{}
	if withWitness {
		// The generator seed doubles as the scheduler seed in this harness,
		// so the program is rebuildable from the witness file alone.
		aopts.Witnesses = &core.WitnessOptions{
			Spec:       witness.OracleSpec(seed),
			DriverKind: driver.ProRace,
			EnablePT:   true,
		}
	}
	ar, err := core.Analyze(p, tr.Trace, aopts)
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: %w", err)
	}

	score := &PeriodScore{
		Period:  period,
		GTPairs: len(gtPairs),
		GTAddrs: len(gt.RacyAddrSet()),
	}
	for i, r := range ar.Reports {
		if gtPairs[r.Key()] {
			score.TruePairs++
			if withWitness && i < len(ar.Witnesses) {
				if wo := ar.Witnesses[i]; wo != nil && wo.Witness != nil {
					score.WitnessedPairs++
				}
			}
		} else {
			score.FalsePairs++
		}
	}
	for addr := range ar.RacyAddrs {
		if gt.RacyAddrSet()[addr] {
			score.TrueAddrs++
		} else {
			score.FalseAddrs++
		}
	}
	return score, tr.Trace, nil
}

func pairSet(reports []race.Report) map[[2]uint64]bool {
	s := make(map[[2]uint64]bool, len(reports))
	for _, r := range reports {
		s[r.Key()] = true
	}
	return s
}

// FormatReports renders a report list into the canonical byte string the
// determinism invariants compare. Every field that detection computes is
// included, so any divergence — order, content, or count — shows up.
func FormatReports(reports []race.Report) string {
	var b strings.Builder
	for i, r := range reports {
		fmt.Fprintf(&b, "%d: addr=%#x first={tid=%d pc=%#x w=%v tsc=%d} second={tid=%d pc=%#x w=%v tsc=%d} gap=%v\n",
			i, r.Addr,
			r.First.TID, r.First.PC, r.First.Write, r.First.TSC,
			r.Second.TID, r.Second.PC, r.Second.Write, r.Second.TSC,
			r.GapAdjacent)
	}
	return b.String()
}

// determinismConfigs is the metamorphic matrix: every configuration must
// produce byte-identical reports on the same clean trace.
type determinismConfig struct {
	name string
	opts core.AnalysisOptions
}

func determinismConfigs() []determinismConfig {
	// The two worker configs share one decoded-path cache, so the second
	// is served from the first's decode; "path cache off" decodes afresh.
	cache := synthesis.NewCache(1)
	var out []determinismConfig
	for _, workers := range []int{0, 4} {
		out = append(out, determinismConfig{name: fmt.Sprintf("workers=%d", workers),
			opts: core.AnalysisOptions{Workers: workers, PathCache: cache}})
	}
	out = append(out, determinismConfig{name: "path cache off", opts: core.AnalysisOptions{}})
	out = append(out, determinismConfig{name: "strict", opts: core.AnalysisOptions{Strict: true}})
	return out
}

// CheckDeterminism re-analyzes one clean trace under the metamorphic
// matrix and returns a violation message per configuration whose reports
// differ from the sequential baseline.
func CheckDeterminism(p *prog.Program, tr *tracefmt.Trace, seed int64) []string {
	var violations []string
	var want string
	for i, cfg := range determinismConfigs() {
		ar, err := core.Analyze(p, tr, cfg.opts)
		if err != nil {
			violations = append(violations,
				fmt.Sprintf("seed %d determinism [%s]: analyze failed: %v", seed, cfg.name, err))
			continue
		}
		got := FormatReports(ar.Reports)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			violations = append(violations,
				fmt.Sprintf("seed %d determinism [%s]: reports differ from sequential baseline", seed, cfg.name))
		}
	}
	return violations
}
