// Command prorace runs the ProRace pipeline from the command line:
//
//	prorace list                           # workloads and bugs
//	prorace run -workload mysql -period 1000
//	prorace run -bug apache-21287 -period 100 -trials 20
//	prorace run -workload mysql -workers -1
//	prorace run -bug apache-25520 -witness-dir witnesses/
//	prorace reproduce witnesses/apache-25520-0.witness
//	prorace trace -workload apache -period 1000 -o apache.trace
//	prorace analyze -workload apache -in apache.trace -workers -1
//	prorace disasm -workload pfscan | head
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prorace"
	"prorace/internal/bugs"
	"prorace/internal/isa"
	"prorace/internal/profiling"
	"prorace/internal/report"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

func main() {
	// A corrupt trace must fail with a diagnosis, not a stack trace: the
	// decode layers return typed errors, and this backstop catches anything
	// that still escapes as a panic.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "error: internal failure:", r)
			os.Exit(1)
		}
	}()
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "reproduce", "-reproduce":
		err = cmdReproduce(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prorace <command> [flags]

commands:
  list      list built-in workloads and Table 2 bugs
  run       trace and analyze a workload or bug end to end
  trace     run the online phase only, writing the trace to a file
  analyze   run the offline phase over a trace file
  reproduce deterministically replay .witness files; non-zero exit on drift
  disasm    disassemble a workload's program`)
}

func cmdList() error {
	t := report.NewTable("workloads", "name", "threads", "class")
	for _, w := range workload.All(1) {
		t.AddRow(w.Name, w.Threads, w.Class)
	}
	fmt.Print(t.String())
	fmt.Println()
	b := report.NewTable("bugs (paper Table 2)", "id", "app", "manifestation", "access type")
	for _, bug := range bugs.All() {
		b.AddRow(bug.ID, bug.App, bug.Manifestation, bug.Type)
	}
	fmt.Print(b.String())
	return nil
}

type commonFlags struct {
	workloadName string
	bugID        string
	period       uint64
	seed         int64
	scale        int
	driverName   string
	modeName     string
	workers      int
	lenient      bool
	faultSpec    string
	metricsAddr  string
	timeline     string
	metricsHold  time.Duration
	prof         profiling.Flags
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	c.prof.Register(fs)
	fs.StringVar(&c.workloadName, "workload", "", "built-in workload name")
	fs.StringVar(&c.bugID, "bug", "", "Table 2 bug id (alternative to -workload)")
	fs.Uint64Var(&c.period, "period", 10000, "PEBS sampling period")
	fs.Int64Var(&c.seed, "seed", 1, "scheduler seed")
	fs.IntVar(&c.scale, "scale", 1, "workload scale factor")
	fs.StringVar(&c.driverName, "driver", "prorace", "driver model: prorace or vanilla")
	fs.StringVar(&c.modeName, "mode", "fb", "reconstruction: bb, fwd or fb")
	fs.IntVar(&c.workers, "workers", 0, "offline analysis workers (0 sequential, -1 GOMAXPROCS)")
	fs.BoolVar(&c.lenient, "lenient", false, "salvage corrupt or truncated traces instead of failing (reports degradation)")
	fs.StringVar(&c.faultSpec, "fault-spec", "", "inject trace faults before analysis, e.g. ptflip=0.01,syncgap=0.1:seed=7")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live telemetry on this address (/metrics, /debug/vars, /timeline, /debug/pprof)")
	fs.StringVar(&c.timeline, "timeline", "", "write a chrome://tracing stage-span timeline JSON to this file")
	fs.DurationVar(&c.metricsHold, "metrics-hold", 0, "keep the -metrics-addr listener alive this long after the command finishes (for scrapers)")
	return c
}

// startTelemetry enables the process-wide telemetry registry when any
// observability flag is set, so every analysis the command runs publishes
// into it without threading a registry through each call site. The
// returned stop function writes the -timeline artifact and holds the
// -metrics-addr listener open for -metrics-hold.
func (c *commonFlags) startTelemetry() (func() error, error) {
	if c.metricsAddr == "" && c.timeline == "" {
		return func() error { return nil }, nil
	}
	reg := telemetry.EnableDefault()
	telemetry.RegisterBuildInfo(reg, "prorace")
	if c.metricsAddr != "" {
		srv, err := telemetry.EnsureServer(c.metricsAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	return func() error {
		if c.timeline != "" {
			if err := reg.WriteTimelineFile(c.timeline); err != nil {
				return fmt.Errorf("-timeline: %w", err)
			}
			fmt.Fprintf(os.Stderr, "telemetry: wrote timeline %s (open in chrome://tracing)\n", c.timeline)
		}
		if c.metricsAddr != "" && c.metricsHold > 0 {
			fmt.Fprintf(os.Stderr, "telemetry: holding http://%s/metrics for %v\n", c.metricsAddr, c.metricsHold)
			time.Sleep(c.metricsHold)
		}
		return nil
	}, nil
}

// publishSalvage folds a lenient decode's SalvageInfo into the telemetry
// registry (no-op when telemetry is off) — the CLI owns trace files, so it
// owns the prorace_trace_salvage_* series too.
func publishSalvage(sal *tracefmt.SalvageInfo) {
	reg := telemetry.Default()
	if reg == nil || sal == nil {
		return
	}
	if sal.Degraded() {
		reg.Counter("prorace_trace_salvage_runs_total", "Trace decodes that had to salvage (SalvageInfo.Degraded).").Inc()
	}
	if sal.Truncated {
		reg.Counter("prorace_trace_salvage_truncated_total", "Salvaged traces that ended before their declared contents.").Inc()
	}
	reg.Counter("prorace_trace_salvage_torn_bytes_total", "Trailing bytes that did not form a whole record (SalvageInfo.TornBytes).").AddInt(sal.TornBytes)
	reg.Counter("prorace_trace_salvage_dropped_pebs_total", "PEBS records lost to trace truncation (SalvageInfo.DroppedPEBS).").AddInt(sal.DroppedPEBS)
	reg.Counter("prorace_trace_salvage_dropped_sync_total", "Sync records lost to trace truncation (SalvageInfo.DroppedSync).").AddInt(sal.DroppedSync)
	reg.Counter("prorace_trace_salvage_dropped_pt_bytes_total", "PT stream bytes lost to trace truncation (SalvageInfo.DroppedPTBytes).").AddInt(sal.DroppedPTBytes)
}

func (c *commonFlags) resolve() (workload.Workload, *bugs.Built, error) {
	if c.bugID != "" {
		bug, err := bugs.ByID(c.bugID)
		if err != nil {
			return workload.Workload{}, nil, err
		}
		built := bug.Build(workload.Scale(c.scale))
		return built.Workload, built, nil
	}
	if c.workloadName == "" {
		return workload.Workload{}, nil, fmt.Errorf("one of -workload or -bug is required")
	}
	w, err := workload.ByName(c.workloadName, workload.Scale(c.scale))
	return w, nil, err
}

// options translates the flags into the functional-options configuration
// of the prorace package.
func (c *commonFlags) options(w workload.Workload) ([]prorace.Option, error) {
	opts := []prorace.Option{
		prorace.WithMachine(w.Machine),
		prorace.WithPeriod(c.period),
		prorace.WithSeed(c.seed),
		prorace.WithWorkers(c.workers),
	}
	switch c.driverName {
	case "prorace":
		// The default: redesigned driver with PT enabled.
	case "vanilla":
		opts = append(opts, prorace.WithDriver(prorace.VanillaDriver), prorace.WithoutPT())
	default:
		return nil, fmt.Errorf("unknown driver %q", c.driverName)
	}
	switch c.modeName {
	case "bb":
		opts = append(opts, prorace.WithReplayMode(prorace.ReplayBasicBlock))
	case "fwd":
		opts = append(opts, prorace.WithReplayMode(prorace.ReplayForward))
	case "fb":
		// The default: full forward+backward reconstruction.
	default:
		return nil, fmt.Errorf("unknown mode %q", c.modeName)
	}
	// The CLI is strict unless -lenient: an operator inspecting a trace
	// wants corruption surfaced, not silently skipped.
	if !c.lenient {
		opts = append(opts, prorace.WithStrict())
	}
	if c.faultSpec != "" {
		spec, err := prorace.ParseFaultSpec(c.faultSpec)
		if err != nil {
			return nil, fmt.Errorf("-fault-spec: %w", err)
		}
		opts = append(opts, prorace.WithFaultInjection(spec))
	}
	return opts, nil
}

// printDegradation reports what a lenient analysis gave up.
func printDegradation(d *prorace.Degradation) {
	if s := d.Summary(); s != "" {
		fmt.Println("degradation:")
		for _, line := range strings.Split(s, "\n") {
			fmt.Println("  " + line)
		}
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	c := addCommon(fs)
	trials := fs.Int("trials", 1, "number of traces (distinct seeds)")
	overhead := fs.Bool("overhead", true, "measure overhead against an untraced run")
	witnessDir := fs.String("witness-dir", "", "generate a deterministic replay witness per race and write .witness files here (see `prorace reproduce`)")
	fs.Parse(args)

	w, built, err := c.resolve()
	if err != nil {
		return err
	}
	opts, err := c.options(w)
	if err != nil {
		return err
	}
	if *witnessDir != "" {
		spec := prorace.WorkloadWitnessSpec(w.Name, c.scale)
		if c.bugID != "" {
			spec = prorace.BugWitnessSpec(c.bugID, c.scale)
		}
		opts = append(opts, prorace.WithWitnesses(spec))
		if err := os.MkdirAll(*witnessDir, 0o755); err != nil {
			return fmt.Errorf("-witness-dir: %w", err)
		}
	}
	stopProf, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	stopTel, err := c.startTelemetry()
	if err != nil {
		return err
	}
	if *overhead {
		opts = append(opts, prorace.WithOverheadMeasurement())
	}

	detected := 0
	// One deduplicating sink across all trials: a race re-detected under a
	// different seed prints once, not once per trial.
	printer := report.NewPrinter(w.Program, os.Stdout)
	witnessed := map[[2]uint64]bool{}
	for trial := 0; trial < *trials; trial++ {
		seed := c.seed + int64(trial)*7919
		res, err := prorace.Run(w.Program, append(opts, prorace.WithSeed(seed))...)
		if err != nil {
			return err
		}
		tr, ar := res.TraceResult, res.AnalysisResult
		fmt.Printf("trial %d (seed %d): %.3f ms execution, overhead %.2f%%, %d samples (%d dropped), trace %d bytes\n",
			trial+1, seed, tr.TracedStats.Seconds()*1e3, tr.Overhead*100,
			tr.Trace.SampleCount(), tr.Dropped, tr.Trace.TotalBytes())
		fmt.Printf("  reconstruction: %d sampled + %d forward + %d backward + %d bb (%.1fx); offline %v (%d workers)\n",
			ar.ReplayStats.Sampled, ar.ReplayStats.Forward, ar.ReplayStats.Backward,
			ar.ReplayStats.BasicBlock, ar.ReplayStats.RecoveryRatio(), ar.TotalTime().Round(1000),
			ar.Workers)
		if built != nil {
			if built.Detected(ar.Reports) {
				detected++
				fmt.Printf("  planted bug %s DETECTED\n", built.Bug.ID)
			} else {
				fmt.Printf("  planted bug %s not detected in this trace\n", built.Bug.ID)
			}
		}
		printDegradation(&ar.Degradation)
		if len(ar.Reports) == 0 {
			fmt.Println("  no data races detected")
		} else {
			fmt.Printf("  %d data race(s) in this trace:\n", len(ar.Reports))
		}
		printer.Publish(ar.Reports)
		if *witnessDir != "" {
			name := w.Name
			if c.bugID != "" {
				name = c.bugID
			}
			for i, wo := range ar.Witnesses {
				key := ar.Reports[i].Key()
				if witnessed[key] {
					continue
				}
				if wo == nil || wo.Witness == nil {
					why := "skipped"
					if wo != nil {
						why = wo.Err
					}
					fmt.Printf("  witness: pair %#x/%#x: %s\n", key[0], key[1], why)
					continue
				}
				witnessed[key] = true
				path := filepath.Join(*witnessDir, fmt.Sprintf("%s-%d.witness", name, len(witnessed)-1))
				if err := wo.Witness.WriteFile(path); err != nil {
					return err
				}
				fmt.Printf("  witness: wrote %s (rung %s, %d forced decisions, %d replays spent)\n",
					path, wo.Rung, len(wo.Witness.Forced), wo.Replays)
			}
		}
	}
	if *trials > 1 {
		fmt.Printf("\n%d distinct data race(s) across %d trials\n", printer.Printed(), *trials)
	}
	if built != nil && *trials > 1 {
		fmt.Printf("detection probability: %d/%d\n", detected, *trials)
	}
	return stopTel()
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	c := addCommon(fs)
	out := fs.String("o", "prorace.trace", "output trace file")
	compress := fs.Bool("compress", false, "DEFLATE-compress the trace file")
	fs.Parse(args)

	w, _, err := c.resolve()
	if err != nil {
		return err
	}
	opts, err := c.options(w)
	if err != nil {
		return err
	}
	opts = append(opts, prorace.WithOverheadMeasurement())
	stopProf, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	stopTel, err := c.startTelemetry()
	if err != nil {
		return err
	}
	res, err := prorace.Trace(w.Program, opts...)
	if err != nil {
		return err
	}
	payload := res.Trace.Encode()
	if *compress {
		payload, err = res.Trace.EncodeCompressed()
		if err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		return err
	}
	fmt.Printf("traced %s at period %d: overhead %.2f%%, %d samples, wrote %s\n",
		w.Name, c.period, res.Overhead*100, res.Trace.SampleCount(), *out)
	return stopTel()
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	c := addCommon(fs)
	in := fs.String("in", "prorace.trace", "input trace file")
	fs.Parse(args)

	stopTel, err := c.startTelemetry()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	var tr *tracefmt.Trace
	if c.lenient {
		var sal *tracefmt.SalvageInfo
		tr, sal, err = tracefmt.DecodeTraceAutoLenient(raw)
		if err != nil {
			return fmt.Errorf("trace %s is unrecognisable even leniently: %w", *in, err)
		}
		publishSalvage(sal)
		if sal.Degraded() {
			fmt.Printf("salvaged %s: truncated=%v, %d torn bytes, dropped %d PEBS + %d sync records + %d PT bytes\n",
				*in, sal.Truncated, sal.TornBytes, sal.DroppedPEBS, sal.DroppedSync, sal.DroppedPTBytes)
		}
	} else {
		tr, err = tracefmt.DecodeTraceAuto(raw)
		if err != nil {
			return fmt.Errorf("trace %s is corrupt (re-run with -lenient to salvage): %w", *in, err)
		}
	}
	if c.workloadName == "" && c.bugID == "" {
		// The header names the traced program: a Table-2 bug's ID or a
		// workload's name.
		if _, err := bugs.ByID(tr.Program); err == nil {
			c.bugID = tr.Program
		} else {
			c.workloadName = tr.Program
		}
	}
	w, built, err := c.resolve()
	if err != nil {
		return err
	}
	opts, err := c.options(w)
	if err != nil {
		return err
	}
	stopProf, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	ar, err := prorace.Analyze(w.Program, &prorace.TraceResult{Trace: tr}, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("analysis of %s (%d samples): %d accesses (%.1fx recovery) in %v (%d workers)\n",
		*in, tr.SampleCount(), ar.ReplayStats.Total(), ar.ReplayStats.RecoveryRatio(),
		ar.TotalTime().Round(1000), ar.Workers)
	if built != nil && built.Detected(ar.Reports) {
		fmt.Printf("planted bug %s DETECTED\n", built.Bug.ID)
	}
	printDegradation(&ar.Degradation)
	fmt.Print(prorace.FormatRaces(w.Program, ar.Reports))
	return stopTel()
}

// cmdReproduce replays witness files and exits non-zero — with a
// human-readable diff — when any witnessed race no longer manifests
// exactly as recorded.
func cmdReproduce(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print failures only")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: prorace reproduce <report.witness> [...]")
	}
	rw := func(write bool) string {
		if write {
			return "write"
		}
		return "read"
	}
	failed := 0
	for _, path := range fs.Args() {
		w, err := prorace.ReadWitness(path)
		if err != nil {
			fmt.Printf("%s: FAILED — %v\n", path, err)
			failed++
			continue
		}
		out, err := w.ReplayResolved()
		if err != nil {
			fmt.Printf("%s: FAILED — %v\n", path, err)
			failed++
			continue
		}
		if !out.OK {
			fmt.Printf("%s: FAILED — %s drifted from the witnessed execution:\n%s", path, w.Prog, out.Diff())
			failed++
			continue
		}
		if !*quiet {
			e := w.Expect
			fmt.Printf("%s: reproduced %s: race on %#x between T%d %s@%#x and T%d %s@%#x (seed %d, %d forced decisions)\n",
				path, w.Prog, e.Addr,
				e.First.TID, rw(e.First.Write), e.First.PC,
				e.Second.TID, rw(e.Second.Write), e.Second.PC,
				w.Machine.Seed, len(w.Forced))
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d witness(es) failed to reproduce", failed, fs.NArg())
	}
	fmt.Printf("%d witness(es) reproduced\n", fs.NArg())
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	c := addCommon(fs)
	fs.Parse(args)
	w, _, err := c.resolve()
	if err != nil {
		return err
	}
	fmt.Print(isa.Disassemble(w.Program.Insts))
	return nil
}
