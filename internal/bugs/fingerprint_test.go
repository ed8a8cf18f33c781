package bugs_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_fingerprints.json from the live tracer")

// fingerprintPeriod and fingerprintSeeds fix the traces the golden file
// covers: every Table-2 bug at period 1000, seeds 1 and 3, under both
// driver kinds with PT on.
const fingerprintPeriod = 1000

var (
	fingerprintSeeds = []int64{1, 3}
	fingerprintKinds = []driver.Kind{driver.ProRace, driver.Vanilla}
)

const fingerprintPath = "testdata/trace_fingerprints.json"

// traceFingerprint identifies one traced run: the FNV-1a hash and length
// of the encoded trace, and the machine's statistics for the run.
type traceFingerprint struct {
	Bug        string        `json:"bug"`
	Driver     string        `json:"driver"`
	Seed       int64         `json:"seed"`
	TraceFNV   string        `json:"trace_fnv64a"`
	TraceBytes int           `json:"trace_bytes"`
	Stats      machine.Stats `json:"stats"`
}

func (f traceFingerprint) key() string { return fmt.Sprintf("%s/%s/seed%d", f.Bug, f.Driver, f.Seed) }

// TestTraceFingerprints holds the simulator and the PMU driver stack to a
// committed record of what they produce: any change to a trace byte, a
// simulated cycle or a machine statistic fails with a per-run diff. The
// runs trace concurrently, so under -race the test also exercises the
// per-machine tracing state of machines running side by side.
//
// Regenerate after an intentional change to the simulator or the driver
// with
//
//	go test ./internal/bugs -run TestTraceFingerprints -update
func TestTraceFingerprints(t *testing.T) {
	var (
		mu  sync.Mutex
		got []traceFingerprint
	)
	t.Run("trace", func(t *testing.T) {
		for _, bug := range bugs.All() {
			for _, kind := range fingerprintKinds {
				for _, seed := range fingerprintSeeds {
					bug, kind, seed := bug, kind, seed
					t.Run(fmt.Sprintf("%s/%v/seed%d", bug.ID, kind, seed), func(t *testing.T) {
						t.Parallel()
						r := traceRun(t, build(bug), core.TraceOptions{
							Kind: kind, Period: fingerprintPeriod, Seed: seed, EnablePT: true,
						})
						enc := r.tr.Trace.Encode()
						h := fnv.New64a()
						h.Write(enc)
						mu.Lock()
						got = append(got, traceFingerprint{
							Bug: bug.ID, Driver: kind.String(), Seed: seed,
							TraceFNV:   fmt.Sprintf("%016x", h.Sum64()),
							TraceBytes: len(enc),
							Stats:      r.tr.TracedStats,
						})
						mu.Unlock()
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	byKey := map[string]traceFingerprint{}
	for _, f := range got {
		byKey[f.key()] = f
	}
	// Record in a fixed order, whatever order the parallel runs ended in.
	var ordered []traceFingerprint
	for _, bug := range bugs.All() {
		for _, kind := range fingerprintKinds {
			for _, seed := range fingerprintSeeds {
				ordered = append(ordered, byKey[fmt.Sprintf("%s/%s/seed%d", bug.ID, kind, seed)])
			}
		}
	}

	if *update {
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(ordered), fingerprintPath)
		return
	}

	data, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []traceFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ordered) {
		t.Errorf("golden file holds %d runs, the test traces %d", len(want), len(ordered))
	}
	var diffs []string
	for _, w := range want {
		g, ok := byKey[w.key()]
		if !ok {
			diffs = append(diffs, w.key()+": not traced")
			continue
		}
		if d := fingerprintDiff(w, g); d != "" {
			diffs = append(diffs, w.key()+": "+d)
		}
	}
	if len(diffs) > 0 {
		t.Errorf("%d of %d traced runs differ from %s:\n%s", len(diffs), len(want), fingerprintPath, strings.Join(diffs, "\n"))
	}
}

// fingerprintDiff describes how got differs from want, or returns "".
func fingerprintDiff(want, got traceFingerprint) string {
	var parts []string
	if want.TraceFNV != got.TraceFNV || want.TraceBytes != got.TraceBytes {
		parts = append(parts, fmt.Sprintf("trace %s (%d bytes), want %s (%d bytes)",
			got.TraceFNV, got.TraceBytes, want.TraceFNV, want.TraceBytes))
	}
	fields := []struct {
		name      string
		got, want uint64
	}{
		{"Cycles", got.Stats.Cycles, want.Stats.Cycles},
		{"Retired", got.Stats.Retired, want.Stats.Retired},
		{"MemOps", got.Stats.MemOps, want.Stats.MemOps},
		{"SyncOps", got.Stats.SyncOps, want.Stats.SyncOps},
		{"Threads", uint64(got.Stats.Threads), uint64(want.Stats.Threads)},
		{"IdleCoreCycles", got.Stats.IdleCoreCycles, want.Stats.IdleCoreCycles},
		{"LogBytes", got.Stats.LogBytes, want.Stats.LogBytes},
	}
	for _, f := range fields {
		if f.got != f.want {
			parts = append(parts, fmt.Sprintf("%s %d, want %d", f.name, f.got, f.want))
		}
	}
	if len(parts) == 0 && got.Stats != want.Stats {
		parts = append(parts, fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats))
	}
	return strings.Join(parts, "; ")
}
