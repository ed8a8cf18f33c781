// Database: sweep the sampling period on the mysql application model to
// choose a production configuration — the sensitivity analysis of the
// paper's §7.2 — then inspect what the offline phase recovers at the
// chosen period.
//
// Run with: go run ./examples/database
package main

import (
	"fmt"
	"log"

	"prorace"
)

func main() {
	w := prorace.MustWorkload("mysql", 1)
	fmt.Printf("workload: %s (%d worker threads, %s-bound)\n\n", w.Name, w.Threads, w.Class)

	// Online sensitivity analysis: find the smallest sampling period that
	// fits a production overhead budget.
	const budget = 0.10 // 10%
	fmt.Println("period    overhead   samples   trace MB/s   within 10% budget?")
	var chosen uint64
	for _, period := range []uint64{100000, 10000, 1000, 100, 10} {
		tr, err := prorace.Trace(w.Program,
			prorace.WithMachine(w.Machine),
			prorace.WithPeriod(period),
			prorace.WithSeed(7),
			prorace.WithOverheadMeasurement(),
		)
		if err != nil {
			log.Fatal(err)
		}
		ok := tr.Overhead <= budget
		if ok {
			chosen = period
		}
		fmt.Printf("%-9d %7.2f%%  %8d   %8.1f     %v\n",
			period, tr.Overhead*100, tr.Trace.SampleCount(), tr.Trace.MBPerSecond(), ok)
	}
	fmt.Printf("\nchosen production period: %d\n\n", chosen)

	// Offline: one full analysis at the chosen period, with the three
	// reconstruction modes compared (the paper's Figure 11 view). The
	// three analyses share one path cache, so the trace is decoded once.
	tr, err := prorace.Trace(w.Program,
		prorace.WithMachine(w.Machine),
		prorace.WithPeriod(chosen),
		prorace.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	cache := prorace.NewPathCache(1)
	for _, mode := range []prorace.ReplayMode{
		prorace.ReplayBasicBlock, prorace.ReplayForward, prorace.ReplayForwardBackward,
	} {
		ar, err := prorace.Analyze(w.Program, tr, prorace.WithReplayMode(mode), prorace.WithPathCache(cache))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %6d accesses (%5.1fx recovery)  analysis %8v  races %d\n",
			mode, ar.ReplayStats.Total(), ar.ReplayStats.RecoveryRatio(),
			ar.TotalTime().Round(1000), len(ar.Reports))
	}
	fmt.Println("\nmysql's base workload is race-free: zero reports expected.")
}
