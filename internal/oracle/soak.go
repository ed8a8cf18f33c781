package oracle

import (
	"fmt"
)

// SoakConfig configures a seed-range sweep.
type SoakConfig struct {
	// StartSeed is the first generator/scheduler seed; Seeds is how many
	// consecutive seeds to run.
	StartSeed int64
	Seeds     int
	// Periods is the sampling-period sweep per seed (default
	// DefaultPeriods; must include 1 for the recall@1 invariant).
	Periods []uint64
	// DeterminismEvery runs the metamorphic worker/cache/strict
	// matrix on every Nth seed (0 disables; 1 = every seed).
	DeterminismEvery int
	// Witness enables the witnessability axis on every seed: each
	// true-positive report must yield a replay-verified witness
	// (Options.Witness).
	Witness bool
}

// Aggregate is the per-period sum over all soaked seeds. Each seed's
// execution at a given period has its own ground truth (the driver's
// overhead perturbs the schedule), so recall is the ratio of summed counts.
type Aggregate struct {
	Period     uint64 `json:"period"`
	GTPairs    int    `json:"gt_pairs"`
	GTAddrs    int    `json:"gt_addrs"`
	TruePairs  int    `json:"true_pairs"`
	FalsePairs int    `json:"false_pairs"`
	TrueAddrs  int    `json:"true_addrs"`
	FalseAddrs int    `json:"false_addrs"`
	// WitnessedPairs counts true positives with a replay-verified witness
	// (only populated when SoakConfig.Witness is set).
	WitnessedPairs int `json:"witnessed_pairs"`
	// RacySeeds counts seeds whose execution had at least one true race.
	RacySeeds int `json:"racy_seeds"`
}

// WitnessRatio is aggregate witnessed / true positives (1.0 when none).
func (a Aggregate) WitnessRatio() float64 {
	if a.TruePairs == 0 {
		return 1.0
	}
	return float64(a.WitnessedPairs) / float64(a.TruePairs)
}

// AddrRecall is the aggregate per-variable recall at this period.
func (a Aggregate) AddrRecall() float64 {
	if a.GTAddrs == 0 {
		return 1.0
	}
	return float64(a.TrueAddrs) / float64(a.GTAddrs)
}

// PairRecall is the aggregate racy-PC-pair recall at this period. Unlike
// AddrRecall it is not expected to reach 1.0 even at period=1: FastTrack's
// epoch compression reports at least one pair per racy variable, not all
// of them.
func (a Aggregate) PairRecall() float64 {
	if a.GTPairs == 0 {
		return 1.0
	}
	return float64(a.TruePairs) / float64(a.GTPairs)
}

// SoakResult is the outcome of a seed-range sweep.
type SoakResult struct {
	StartSeed  int64
	Seeds      int
	Aggregates []Aggregate
	// Violations collects every broken invariant across all seeds plus
	// the aggregate monotonicity check; empty means the sweep passed.
	Violations []string
}

// Soak sweeps seeds [cfg.StartSeed, cfg.StartSeed+cfg.Seeds) through the
// differential harness and checks the cross-seed invariants:
//
//   - per seed/period: zero false positives (pairs and addresses) and
//     100% address recall at period=1 (reported by RunSeed);
//   - aggregate: address recall is monotone non-increasing as the
//     sampling period grows;
//   - on every DeterminismEvery-th seed: byte-identical reports across
//     the worker/cache/strict matrix.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	periods := cfg.Periods
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	res := &SoakResult{StartSeed: cfg.StartSeed, Seeds: cfg.Seeds}
	res.Aggregates = make([]Aggregate, len(periods))

	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.StartSeed + int64(i)
		opts := Options{Periods: periods, Witness: cfg.Witness}
		if cfg.DeterminismEvery > 0 && i%cfg.DeterminismEvery == 0 {
			opts.Determinism = true
		}
		sr, err := RunSeed(seed, opts)
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, sr.Violations...)
		for j, sc := range sr.Scores {
			a := &res.Aggregates[j]
			a.Period = sc.Period
			a.GTPairs += sc.GTPairs
			a.GTAddrs += sc.GTAddrs
			a.TruePairs += sc.TruePairs
			a.FalsePairs += sc.FalsePairs
			a.TrueAddrs += sc.TrueAddrs
			a.FalseAddrs += sc.FalseAddrs
			a.WitnessedPairs += sc.WitnessedPairs
			if sc.GTAddrs > 0 {
				a.RacySeeds++
			}
		}
	}

	// Aggregate monotonicity: shrinking the period can only help recall.
	for j := 1; j < len(res.Aggregates); j++ {
		prev, cur := res.Aggregates[j-1], res.Aggregates[j]
		if cur.AddrRecall() > prev.AddrRecall() {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"aggregate recall not monotone: period %d recall %.4f > period %d recall %.4f (seeds %d..%d)",
				cur.Period, cur.AddrRecall(), prev.Period, prev.AddrRecall(),
				cfg.StartSeed, cfg.StartSeed+int64(cfg.Seeds)-1))
		}
	}
	return res, nil
}
