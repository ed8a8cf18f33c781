// Package racez configures the pipeline as RaceZ (Sheng et al.), the
// PEBS-based race detector ProRace is evaluated against (paper §2, §7):
//
//   - the stock (vanilla) Linux PEBS driver, with its per-sample metadata
//     processing and kernel-to-user copying;
//   - no PT control-flow trace;
//   - reconstruction confined to each sample's static basic block, with
//     only trivial backward propagation;
//   - the same happens-before detection over the resulting trace.
package racez

import (
	"prorace/internal/core"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/replay"
)

// TraceOptions returns the online configuration RaceZ uses.
func TraceOptions(period uint64, seed int64, mcfg machine.Config) core.TraceOptions {
	return core.TraceOptions{
		Kind:     driver.Vanilla,
		Period:   period,
		Seed:     seed,
		EnablePT: false,
		Machine:  mcfg,
	}
}

// AnalysisOptions returns the offline configuration RaceZ uses.
func AnalysisOptions() core.AnalysisOptions {
	return core.AnalysisOptions{Mode: replay.ModeBasicBlock}
}
