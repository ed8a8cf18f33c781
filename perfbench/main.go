// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints every metric by name with its unit,
// then, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this program and cmd/proraced from
// the checkout first:
//
//	bash perfbench/run.sh --workload analyze-mysql --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1
// is the separate traced run that calls each layer's public function on
// the same inputs and reports the per-layer metrics. README.md defines
// every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is the slice of BENCHMARK.json the benchmark checks itself against:
// every run must emit exactly the metrics declared for its mode.
type spec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ungated is a figure a run prints and records next to its metrics but
// BENCHMARK.json does not bound: wall-clock latencies, which on a shared
// virtual machine follow the time the hypervisor steals.
type ungated struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// outcome is what a workload run hands back: raw metric values keyed by
// name, ungated figures, the operation tally, sample counts for the
// printed table, and notes explaining any failure.
type outcome struct {
	metrics   map[string]float64
	ungated   []ungated
	samples   map[string]int
	attempted int
	failed    int
	correct   bool
	notes     []string
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, correct: true}
}

// put records a metric and the number of samples behind it.
func (o *outcome) put(name string, v float64, samples int) {
	o.metrics[name] = v
	o.samples[name] = samples
}

// putUngated records a figure that is printed but not bounded.
func (o *outcome) putUngated(name, unit string, v float64, samples int) {
	o.ungated = append(o.ungated, ungated{name, v, unit, samples})
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	daemon   string // proraced binary
	work     string // this run's scratch directory
}

func main() {
	var (
		cfg     config
		secs    int
		trace   int
		workdir string
	)
	flag.StringVar(&cfg.workload, "workload", "", "analyze-mysql or analyze-cherokee")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same traces")
	flag.IntVar(&secs, "seconds", 30, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end run, 1 = traced per-layer run")
	flag.StringVar(&cfg.daemon, "daemon", "", "path to the proraced binary")
	flag.StringVar(&workdir, "workdir", ".bench_build", "directory for traces, journals and run records")
	golden := flag.String("update-golden", "", "regenerate golden.json in this directory and exit")
	flag.Parse()
	if *golden != "" {
		if err := updateGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.traced = trace == 1
	if err := run(cfg, workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, workdir string) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if cfg.daemon == "" {
		return fmt.Errorf("-daemon is required")
	}
	root := filepath.Dir(workdir)
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if _, ok := offlineWorkloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	h := stampHost(root, work)

	steal0, total0 := cpuTicks()
	var o *outcome
	if cfg.traced {
		o, err = offlineLayers(cfg)
	} else {
		o, err = offlineEndToEnd(cfg)
	}
	if err != nil {
		return err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		o.notes = append(o.notes, fmt.Sprintf("cpu time stolen by the hypervisor during the run: %.1f%%", 100*float64(steal1-steal0)/float64(total1-total0)))
	}
	decls := sp.EndToEnd
	if cfg.traced {
		decls = sp.PerLayer
	}
	res, err := assemble(o, decls)
	if err != nil {
		return err
	}
	if err := writeRecord(workdir, cfg, h, res, o); err != nil {
		return err
	}
	printReport(cfg, h, res, o, decls)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// assemble checks the run produced exactly the declared metrics and
// attaches their units.
func assemble(o *outcome, decls []metricDecl) (*result, error) {
	res := &result{
		Correct:   o.correct,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("the run attempted no operation")
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	for _, d := range decls {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return res, nil
}

func printReport(cfg config, h host, res *result, o *outcome, decls []metricDecl) {
	mode := "end to end"
	if cfg.traced {
		mode = "per layer (traced)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f: %s\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), mode)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s commit=%s wal_fs=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.WALFS)
	names := make([]string, 0, len(decls))
	for _, d := range decls {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-30s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := o.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for _, u := range o.ungated {
		fmt.Printf("  %-30s %14.6g %s  (n=%d, not gated)\n", u.Name, u.Value, u.Unit, u.Samples)
	}
	fmt.Printf("  %-30s %14.6g share  (%d of %d operations failed)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, n := range o.notes {
		fmt.Println("  note:", n)
	}
}

// writeRecord keeps a JSON record of the run, stamped with its host, under
// workdir/results; traced runs include every span.
func writeRecord(workdir string, cfg config, h host, res *result, o *outcome) error {
	dir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Traced   bool           `json:"traced"`
		Host     host           `json:"host"`
		Result   *result        `json:"result"`
		Ungated  []ungated      `json:"ungated,omitempty"`
		Samples  map[string]int `json:"samples"`
		Notes    []string       `json:"notes,omitempty"`
		Spans    []span         `json:"spans,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced, h, res, o.ungated, o.samples, o.notes, o.spans}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if cfg.traced {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
