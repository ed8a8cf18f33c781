package race_test

import (
	"testing"

	"prorace/internal/core"
	"prorace/internal/pmu/driver"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/workload"
)

// BenchmarkDetectorFastTrackVsDjit compares FastTrack's adaptive-epoch
// detector against the full-vector-clock DJIT+ it improves upon, over the
// same extended trace — the detector-level justification for the paper's
// choice of algorithm.
func BenchmarkDetectorFastTrackVsDjit(b *testing.B) {
	w := workload.PARSEC(1)[0]
	res, err := core.TraceProgram(w.Program, core.TraceOptions{
		Kind: driver.ProRace, Period: 500, Seed: 3, EnablePT: true, Machine: w.Machine})
	if err != nil {
		b.Fatal(err)
	}
	tts, err := synthesis.SynthesizeWith(w.Program, res.Trace, synthesis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	accesses, _ := replay.NewEngine(w.Program, replay.Config{}).ReconstructAll(tts)
	b.Run("fasttrack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			race.Detect(res.Trace.Sync, accesses, race.Options{TrackAllocations: true})
		}
	})
	b.Run("djit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			race.DetectDjit(res.Trace.Sync, accesses, race.Options{TrackAllocations: true})
		}
	})
}
