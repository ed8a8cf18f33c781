package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/report"
)

// The memscale experiment measures the detector's shadow-memory footprint
// at production trace scale: a synthetic million-variable, 64-thread
// read-shared workload — the array-scan shape that made the map-based
// shadow state the pipeline's memory ceiling — run through the frozen
// reference representation (map[varKey]*varState, heap vector clocks, two
// provenance maps per shared variable) and the flat slab shadow table.
// Every variable inflates to read-shared,
// the worst case for per-variable state. The workload is race-free so the
// measurement isolates shadow state from report machinery, which is
// identical across representations.
//
// Two memory views are recorded per detector: the Go-heap delta around
// the run (GC-settled, the honest whole-process number) and, for the flat
// representation, the detector's own ShadowStats accounting (table +
// interner + provenance slabs — the stable number CI budgets ratchet on).

// MemScaleConfig sizes the workload and sets the assertion thresholds.
type MemScaleConfig struct {
	// Vars and Threads shape the synthetic trace: Vars distinct addresses,
	// each read by one of Threads/2 thread pairs.
	Vars    int `json:"vars"`
	Threads int `json:"threads"`
	// BudgetBytesPerVar, when > 0, fails the experiment if the flat
	// detector's self-reported peak shadow bytes per variable exceed it —
	// the CI ratchet.
	BudgetBytesPerVar float64 `json:"budget_bytes_per_var,omitempty"`
	// MinReduction, when > 0, fails the experiment if the reference-heap
	// over flat-heap bytes-per-variable ratio falls below it.
	MinReduction float64 `json:"min_reduction,omitempty"`
}

// DefaultMemScale is the acceptance-scale configuration: ≥1M variables,
// 64 threads.
func DefaultMemScale() MemScaleConfig {
	return MemScaleConfig{Vars: 1 << 20, Threads: 64}
}

// MemScaleRow is one detector's measurements.
type MemScaleRow struct {
	Detector  string `json:"detector"`
	Variables int    `json:"variables"`
	// HeapBytes is the GC-settled Go-heap growth across the run;
	// HeapBytesPerVar divides by Variables.
	HeapBytes       uint64  `json:"heap_bytes"`
	HeapBytesPerVar float64 `json:"heap_bytes_per_var"`
	// ShadowBytes/ShadowPeakBytes are the detector's own accounting (flat
	// representation only; zero for the reference).
	ShadowBytes       uint64  `json:"shadow_bytes,omitempty"`
	ShadowPeakBytes   uint64  `json:"shadow_peak_bytes,omitempty"`
	ShadowBytesPerVar float64 `json:"shadow_bytes_per_var,omitempty"`
	// InternedVCs counts distinct pooled vectors (flat only): the dedup
	// factor is Variables/InternedVCs.
	InternedVCs int `json:"interned_vcs,omitempty"`
	// AllocsPerVar is cumulative mallocs across the run per variable
	// (includes the shared feed machinery, identical across rows).
	AllocsPerVar float64 `json:"allocs_per_var"`
	WallMS       float64 `json:"wall_ms"`
}

// MemScaleResult is the full experiment: per-detector rows plus the
// headline reduction factors.
type MemScaleResult struct {
	Config MemScaleConfig `json:"config"`
	Rows   []MemScaleRow  `json:"rows"`
	// HeapReduction is reference heap-bytes-per-var over flat; WallRatio is
	// flat wall-clock over reference (≤ 1 means the lean layout is also no
	// slower).
	HeapReduction float64 `json:"heap_reduction"`
	WallRatio     float64 `json:"wall_ratio"`
}

// memScaleInput builds the synthetic trace: variable i is read by thread
// pair (2k+1, 2k+2), k = i mod Threads/2, both reads mutually unordered
// (no synchronization at all), so every variable's read state inflates to
// a two-reader vector. Per-thread access streams are TSC-ordered as the
// feed layer requires.
func memScaleInput(cfg MemScaleConfig) map[int32][]replay.Access {
	pairs := cfg.Threads / 2
	perPair := (cfg.Vars + pairs - 1) / pairs
	accs := make(map[int32][]replay.Access, cfg.Threads)
	for t := int32(1); t <= int32(cfg.Threads); t++ {
		accs[t] = make([]replay.Access, 0, perPair)
	}
	for i := 0; i < cfg.Vars; i++ {
		k := i % pairs
		a, b := int32(2*k+1), int32(2*k+2)
		addr := 0x10000000 + uint64(i)*8
		accs[a] = append(accs[a], replay.Access{TID: a, PC: 0x400100, Addr: addr, TSC: uint64(2*i + 1), Step: -1})
		accs[b] = append(accs[b], replay.Access{TID: b, PC: 0x400200, Addr: addr, TSC: uint64(2*i + 2), Step: -1})
	}
	return accs
}

// MemScale runs the experiment.
func (h *Harness) MemScale(cfg MemScaleConfig) (*MemScaleResult, error) {
	if cfg.Vars == 0 {
		cfg = DefaultMemScale()
	}
	if cfg.Threads < 2 {
		cfg.Threads = 2
	}
	accs := memScaleInput(cfg)

	res := &MemScaleResult{Config: cfg}
	// build runs inside the measured window so pre-sized tables are charged
	// to the representation that allocates them.
	measure := func(name string, build func() (race.ReportSink, func() race.ShadowStats)) MemScaleRow {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sink, stats := build()
		race.Feed(sink, nil, accs)
		sink.Finish()
		wall := time.Since(t0)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		row := MemScaleRow{
			Detector:     name,
			HeapBytes:    m1.HeapAlloc - m0.HeapAlloc,
			AllocsPerVar: float64(m1.Mallocs-m0.Mallocs) / float64(cfg.Vars),
			WallMS:       float64(wall.Microseconds()) / 1000,
		}
		if len(sink.Reports()) != 0 {
			// The workload is race-free by construction; reports mean the
			// representations diverged and the memory numbers are invalid.
			panic(fmt.Sprintf("memscale: %s reported %d races on a race-free trace", name, len(sink.Reports())))
		}
		if stats != nil {
			st := stats()
			row.Variables = st.Variables
			row.ShadowBytes = st.Bytes()
			row.ShadowPeakBytes = st.PeakBytes()
			row.ShadowBytesPerVar = float64(st.PeakBytes()) / float64(st.Variables)
			row.InternedVCs = st.InternedVCs
		}
		row.HeapBytesPerVar = float64(row.HeapBytes) / float64(cfg.Vars)
		runtime.KeepAlive(sink)
		return row
	}

	var ref *race.ReferenceDetector
	refRow := measure("reference (map + heap VCs)", func() (race.ReportSink, func() race.ShadowStats) {
		ref = race.NewReferenceDetector(race.Options{})
		return ref, nil
	})
	refRow.Variables = ref.Variables()
	ref = nil
	res.Rows = append(res.Rows, refRow)

	flatRow := measure("flat slab table", func() (race.ReportSink, func() race.ShadowStats) {
		flat := race.NewDetector(race.Options{ShadowCapacityHint: cfg.Vars})
		return flat, flat.ShadowStats
	})
	res.Rows = append(res.Rows, flatRow)
	// The input must outlive every measured window: freed inside the last
	// one, it would read as that representation's saving.
	runtime.KeepAlive(accs)

	if flatRow.HeapBytesPerVar > 0 {
		res.HeapReduction = refRow.HeapBytesPerVar / flatRow.HeapBytesPerVar
	}
	if refRow.WallMS > 0 {
		res.WallRatio = flatRow.WallMS / refRow.WallMS
	}

	if cfg.BudgetBytesPerVar > 0 && flatRow.ShadowBytesPerVar > cfg.BudgetBytesPerVar {
		return res, fmt.Errorf("memscale: flat shadow bytes/variable %.1f exceeds the %.1f budget",
			flatRow.ShadowBytesPerVar, cfg.BudgetBytesPerVar)
	}
	if cfg.MinReduction > 0 && res.HeapReduction < cfg.MinReduction {
		return res, fmt.Errorf("memscale: heap reduction %.2fx below the required %.2fx",
			res.HeapReduction, cfg.MinReduction)
	}
	return res, nil
}

// WriteJSON records the experiment at path, indented for diffing.
func (r *MemScaleResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render formats the measurement table.
func (r *MemScaleResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("shadow-memory scale: %d variables, %d threads, all read-shared",
			r.Config.Vars, r.Config.Threads),
		"representation", "variables", "heap B/var", "shadow B/var", "interned VCs", "allocs/var", "wall ms")
	for _, row := range r.Rows {
		shadow, interned := "-", "-"
		if row.ShadowBytesPerVar > 0 {
			shadow = fmt.Sprintf("%.1f", row.ShadowBytesPerVar)
			interned = fmt.Sprintf("%d", row.InternedVCs)
		}
		t.AddRow(row.Detector, row.Variables,
			fmt.Sprintf("%.1f", row.HeapBytesPerVar), shadow, interned,
			fmt.Sprintf("%.2f", row.AllocsPerVar), fmt.Sprintf("%.1f", row.WallMS))
	}
	out := t.String()
	out += fmt.Sprintf("heap bytes/variable reduction: %.2fx, wall-clock ratio (flat/reference): %.2f\n",
		r.HeapReduction, r.WallRatio)
	return out
}
