// Drivers: reproduce the paper's Figure 10 in miniature — the same
// workload traced through the stock Linux PEBS driver path and through
// ProRace's redesigned driver, across sampling periods. The gap is the
// paper's first contribution: eliminating per-sample metadata processing
// and kernel-to-user copying buys roughly an order of magnitude.
//
// Run with: go run ./examples/drivers
package main

import (
	"fmt"
	"log"

	"prorace"
)

func main() {
	w := prorace.MustWorkload("streamcluster", 1)
	fmt.Printf("workload: %s (%d threads, CPU-bound)\n\n", w.Name, w.Threads)
	fmt.Println("period    vanilla driver    prorace driver    samples(prorace)")

	for _, period := range []uint64{100000, 10000, 1000, 100, 10} {
		overhead := func(extra ...prorace.Option) (float64, int) {
			opts := append([]prorace.Option{
				prorace.WithMachine(w.Machine),
				prorace.WithPeriod(period),
				prorace.WithSeed(11),
				prorace.WithOverheadMeasurement(),
			}, extra...)
			tr, err := prorace.Trace(w.Program, opts...)
			if err != nil {
				log.Fatal(err)
			}
			return tr.Overhead, tr.Trace.SampleCount()
		}
		vo, _ := overhead(prorace.WithDriver(prorace.VanillaDriver), prorace.WithoutPT())
		po, samples := overhead()
		fmt.Printf("%-9d %12.1f%%    %12.1f%%    %8d\n", period, vo*100, po*100, samples)
	}

	fmt.Println("\nthe paper's anchors: ~50x vs ~7.5x at period 10; 20% vs 4% at 100K.")
}
