// Command experiments regenerates the paper's evaluation artifacts
// (Tables 1-2, Figures 6-12):
//
//	experiments -exp all                 # everything, quick configuration
//	experiments -exp fig6,fig10          # selected figures
//	experiments -exp table2 -full        # paper-scale (100 traces per cell)
//	experiments -exp table2 -trials 25
//	experiments -exp perf                # offline-pipeline benchmarks -> BENCH_PR6.json
//	experiments -exp fig12 -cpuprofile cpu.out -memprofile mem.out
//
// The mapping from each experiment to the paper's artifact is DESIGN.md §4;
// paper-vs-measured numbers are recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prorace/internal/experiments"
	"prorace/internal/profiling"
	"prorace/internal/telemetry"
	"prorace/internal/workload"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated: table1,fig6,fig7,fig8,fig9,fig10,table2,fig11,fig12,related,faults,oracle,perf,memscale,all")
	full := flag.Bool("full", false, "paper-scale configuration (slow)")
	scale := flag.Int("scale", 0, "override workload scale")
	trials := flag.Int("trials", 0, "override Table 2 traces per cell")
	seed := flag.Int64("seed", 1, "base scheduler seed")
	soak := flag.Bool("soak", false, "oracle experiment: full 200-seed soak with a dense determinism matrix")
	oracleSeeds := flag.Int("oracle-seeds", 0, "override oracle differential-sweep seed count")
	benchOut := flag.String("bench-out", "BENCH_PR6.json", "perf experiment: JSON measurement file")
	memOut := flag.String("memscale-out", "BENCH_PR8.json", "memscale experiment: JSON measurement file")
	memVars := flag.Int("memscale-vars", 0, "memscale: variable count (0 = the 1M-variable acceptance scale)")
	memThreads := flag.Int("memscale-threads", 64, "memscale: thread count")
	memBudget := flag.Float64("memscale-budget", 0, "memscale: fail if flat shadow bytes/variable exceed this (CI ratchet)")
	memReduction := flag.Float64("memscale-min-reduction", 0, "memscale: fail if heap bytes/variable reduction vs the reference representation is below this")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address (/metrics, /debug/vars, /timeline, /debug/pprof)")
	timeline := flag.String("timeline", "", "write a chrome://tracing stage-span timeline JSON to this file")
	metricsHold := flag.Duration("metrics-hold", 0, "keep the -metrics-addr listener alive this long after the experiments finish (for scrapers)")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer stopProf()

	// Observability flags enable the process-wide telemetry registry, so
	// every analysis the harness runs publishes into it without the
	// experiment code knowing about telemetry at all.
	var reg *telemetry.Registry
	if *metricsAddr != "" || *timeline != "" {
		reg = telemetry.EnableDefault()
		if *metricsAddr != "" {
			srv, err := telemetry.EnsureServer(*metricsAddr, reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error: -metrics-addr:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
		}
		defer func() {
			if *timeline != "" {
				if err := reg.WriteTimelineFile(*timeline); err != nil {
					fmt.Fprintln(os.Stderr, "error: -timeline:", err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "telemetry: wrote timeline %s (open in chrome://tracing)\n", *timeline)
			}
			if *metricsAddr != "" && *metricsHold > 0 {
				fmt.Fprintf(os.Stderr, "telemetry: holding http://%s/metrics for %v\n", *metricsAddr, *metricsHold)
				time.Sleep(*metricsHold)
			}
		}()
	}

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *scale > 0 {
		cfg.Scale = workload.Scale(*scale)
	}
	if *trials > 0 {
		cfg.Table2Trials = *trials
	}
	cfg.Seed = *seed
	if *soak {
		cfg.OracleSeeds = 200
		cfg.OracleDeterminismEvery = 10
	}
	if *oracleSeeds > 0 {
		cfg.OracleSeeds = *oracleSeeds
	}
	h := experiments.NewHarness(cfg)

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0

	run := func(name string, f func() (string, error)) {
		if !all && !want[name] {
			return
		}
		ran++
		t0 := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() (string, error) {
		return experiments.Table1(h.Config().Scale), nil
	})
	run("fig6", func() (string, error) {
		f, err := h.Figure6()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig7", func() (string, error) {
		f, err := h.Figure7()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig8", func() (string, error) {
		f, err := h.Figure8()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig9", func() (string, error) {
		f, err := h.Figure9()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig10", func() (string, error) {
		f, err := h.Figure10()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("table2", func() (string, error) {
		f, err := h.Table2()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig11", func() (string, error) {
		f, err := h.Figure11()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("fig12", func() (string, error) {
		f, err := h.Figure12()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("related", func() (string, error) {
		f, err := h.RelatedWork()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("faults", func() (string, error) {
		f, err := h.FaultSweep()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})
	run("oracle", func() (string, error) {
		f, err := h.Oracle()
		if f != nil && err != nil {
			// Render the table before failing so the violations are visible.
			return "", fmt.Errorf("%v\n%s", err, f.Render())
		}
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	})

	// perf is opt-in only (not part of "all"): it runs auto-scaled
	// benchmarks for tens of seconds and writes a measurement file.
	if want["perf"] {
		ran++
		t0 := time.Now()
		res, err := h.Perf()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("[perf measured in %v, wrote %s]\n\n", time.Since(t0).Round(time.Millisecond), *benchOut)
	}

	// memscale is opt-in only (not part of "all"): at the default
	// acceptance scale it feeds 2M accesses through three detector
	// representations and holds gigabyte-scale shadow state alive.
	if want["memscale"] {
		ran++
		t0 := time.Now()
		mcfg := experiments.DefaultMemScale()
		if *memVars > 0 {
			mcfg.Vars = *memVars
		}
		if *memThreads > 1 {
			mcfg.Threads = *memThreads
		}
		mcfg.BudgetBytesPerVar = *memBudget
		mcfg.MinReduction = *memReduction
		res, err := h.MemScale(mcfg)
		if res != nil {
			if werr := res.WriteJSON(*memOut); werr != nil {
				fmt.Fprintln(os.Stderr, "memscale:", werr)
				os.Exit(1)
			}
			fmt.Print(res.Render())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memscale:", err)
			os.Exit(1)
		}
		fmt.Printf("[memscale measured in %v, wrote %s]\n\n", time.Since(t0).Round(time.Millisecond), *memOut)
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}
