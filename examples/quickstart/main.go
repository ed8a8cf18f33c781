// Quickstart: build a small multithreaded program with a data race,
// trace it with ProRace's online phase (simulated PEBS + PT + sync log),
// and detect the race offline from the reconstructed memory trace.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"prorace"
)

// buildRacyCounter assembles the classic bug: two threads increment a
// shared counter; one of them skips the lock.
func buildRacyCounter() (*prorace.Program, error) {
	b := prorace.NewProgram("quickstart")
	b.Global("counter", 8)
	b.Global("lk", 8)
	b.Global("tids", 16)

	m := b.Func("main")
	m.MovI(prorace.R4, 0)
	m.SpawnThread("locked_worker", prorace.R4)
	m.Store(prorace.MemGlobal("tids", 0), prorace.R0)
	m.MovI(prorace.R4, 1)
	m.SpawnThread("buggy_worker", prorace.R4)
	m.Store(prorace.MemGlobal("tids", 8), prorace.R0)
	m.Load(prorace.R0, prorace.MemGlobal("tids", 0))
	m.Join(prorace.R0)
	m.Load(prorace.R0, prorace.MemGlobal("tids", 8))
	m.Join(prorace.R0)
	m.Exit(0)

	// The disciplined worker: lock, increment, unlock.
	w := b.Func("locked_worker")
	w.MovI(prorace.R3, 400)
	w.Label("loop")
	w.Lock("lk")
	w.Load(prorace.R1, prorace.MemGlobal("counter", 0))
	w.AddI(prorace.R1, 1)
	w.Store(prorace.MemGlobal("counter", 0), prorace.R1)
	w.Unlock("lk")
	w.SubI(prorace.R3, 1)
	w.CmpI(prorace.R3, 0)
	w.Jgt("loop")
	w.Exit(0)

	// The buggy worker: same increment, no lock.
	v := b.Func("buggy_worker")
	v.MovI(prorace.R3, 400)
	v.Label("loop")
	v.Load(prorace.R1, prorace.MemGlobal("counter", 0))
	v.AddI(prorace.R1, 1)
	v.Store(prorace.MemGlobal("counter", 0), prorace.R1)
	v.SubI(prorace.R3, 1)
	v.CmpI(prorace.R3, 0)
	v.Jgt("loop")
	v.Exit(0)

	return b.Build()
}

func main() {
	p, err := buildRacyCounter()
	if err != nil {
		log.Fatal(err)
	}

	// Online: trace a production-like run at sampling period 1000 with the
	// ProRace driver, measuring the overhead against an untraced run.
	tr, err := prorace.Trace(p,
		prorace.WithMachine(prorace.MachineConfig{Cores: 4}),
		prorace.WithPeriod(1000),
		prorace.WithSeed(42),
		prorace.WithOverheadMeasurement(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online: %.3f ms of execution traced at %.2f%% overhead\n",
		tr.TracedStats.Seconds()*1e3, tr.Overhead*100)
	fmt.Printf("        %d PEBS samples, %d trace bytes, %d sync records\n",
		tr.Trace.SampleCount(), tr.Trace.TotalBytes(), len(tr.Trace.Sync))

	// Offline: decode PT, reconstruct unsampled accesses, run FastTrack.
	ar, err := prorace.Analyze(p, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: %d sampled + %d forward + %d backward accesses (%.1fx recovery)\n",
		ar.ReplayStats.Sampled, ar.ReplayStats.Forward, ar.ReplayStats.Backward,
		ar.ReplayStats.RecoveryRatio())
	fmt.Println()
	fmt.Print(prorace.FormatRaces(p, ar.Reports))
}
