// Webserver: monitor the apache application model in production and catch
// a real-world bug pattern — apache bug #21287 ("corrupted log"), a race on
// a register-indirectly addressed log slot (paper Table 2).
//
// The example shows the production-monitoring story of the paper's §3:
// tracing overhead stays negligible on the network-bound server while
// repeated traces accumulate detection probability, and the same traces
// analysed with the RaceZ baseline miss the bug.
//
// Run with: go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"prorace"
)

func main() {
	bug, err := prorace.BugByID("apache-21287")
	if err != nil {
		log.Fatal(err)
	}
	built := bug.Build(1)
	p := built.Workload.Program
	fmt.Printf("workload: %s (%d threads), bug %s — %s via %s access\n\n",
		bug.App, built.Workload.Threads, bug.ID, bug.Manifestation, bug.Type)

	const period = 1000
	const traces = 10
	detectedPro, detectedRZ := 0, 0
	var overheadSum float64

	for seed := int64(1); seed <= traces; seed++ {
		// ProRace: redesigned driver + PT, forward/backward reconstruction.
		tr, err := prorace.Trace(p,
			prorace.WithMachine(built.Workload.Machine),
			prorace.WithPeriod(period),
			prorace.WithSeed(seed),
			prorace.WithOverheadMeasurement(),
		)
		if err != nil {
			log.Fatal(err)
		}
		overheadSum += tr.Overhead
		ar, err := prorace.Analyze(p, tr)
		if err != nil {
			log.Fatal(err)
		}
		hit := built.Detected(ar.Reports)
		if hit {
			detectedPro++
		}

		// RaceZ baseline on the same schedule seed: the stock driver, no
		// PT, and basic-block reconstruction.
		rz, err := prorace.Run(p,
			prorace.WithMachine(built.Workload.Machine),
			prorace.WithPeriod(period),
			prorace.WithSeed(seed),
			prorace.WithDriver(prorace.VanillaDriver),
			prorace.WithoutPT(),
			prorace.WithReplayMode(prorace.ReplayBasicBlock),
		)
		if err != nil {
			log.Fatal(err)
		}
		if built.Detected(rz.AnalysisResult.Reports) {
			detectedRZ++
		}

		status := "missed"
		if hit {
			status = "DETECTED"
		}
		fmt.Printf("trace %2d: overhead %5.2f%%, %4d samples, %s\n",
			seed, tr.Overhead*100, tr.Trace.SampleCount(), status)
	}

	fmt.Printf("\nover %d production traces at period %d:\n", traces, period)
	fmt.Printf("  mean online overhead: %.2f%%\n", overheadSum/traces*100)
	fmt.Printf("  ProRace detected the race in %d/%d traces\n", detectedPro, traces)
	fmt.Printf("  RaceZ   detected the race in %d/%d traces\n", detectedRZ, traces)
}
