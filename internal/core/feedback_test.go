package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prorace/internal/asm"
	"prorace/internal/bugs"
	"prorace/internal/isa"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// fullRegen is the §5.1 feedback outcome computed the plain way: every
// thread reconstructed again with the racy addresses invalidated, then
// detected again, adopted when the invalidation was hit at all.
type fullRegen struct {
	reports     []race.Report
	stats       replay.Stats
	regenerated bool
	accesses    map[int32][]replay.Access
}

func fullRegeneration(t *testing.T, p *prog.Program, tr *tracefmt.Trace, mode replay.Mode) fullRegen {
	t.Helper()
	tts, err := synthesis.SynthesizeWith(p, tr, synthesis.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	ropts := race.Options{TrackAllocations: true}
	acc, st := replay.NewEngine(p, replay.Config{Mode: mode}).ReconstructAll(tts)
	det := race.Detect(tr.Sync, acc, ropts)
	out := fullRegen{reports: det.Reports(), stats: st, accesses: acc}
	if racy := det.RacyAddrSet(); len(racy) > 0 {
		acc2, st2 := replay.NewEngine(p, replay.Config{Mode: mode, InvalidAddrs: racy}).ReconstructAll(tts)
		if st2.InvalidHits > 0 {
			out = fullRegen{reports: race.Detect(tr.Sync, acc2, ropts).Reports(), stats: st2, regenerated: true, accesses: acc2}
		}
	}
	return out
}

// checkMatchesFullRegeneration analyses tr with Workers 1 and 4 and
// requires each result to equal the full regeneration exactly.
func checkMatchesFullRegeneration(t *testing.T, name string, p *prog.Program, tr *tracefmt.Trace) (fullRegen, *AnalysisResult) {
	t.Helper()
	want := fullRegeneration(t, p, tr, replay.ModeForwardBackward)
	var last *AnalysisResult
	cache := synthesis.NewCache(1) // decode once for both worker counts
	for _, workers := range []int{1, 4} {
		got, err := Analyze(p, tr, AnalysisOptions{Mode: replay.ModeForwardBackward, Workers: workers, PathCache: cache})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if !reflect.DeepEqual(got.Reports, want.reports) {
			t.Fatalf("%s workers=%d: reports differ:\n got %v\nwant %v", name, workers, got.Reports, want.reports)
		}
		if got.ReplayStats != want.stats {
			t.Fatalf("%s workers=%d: replay stats differ:\n got %+v\nwant %+v", name, workers, got.ReplayStats, want.stats)
		}
		if got.Regenerated != want.regenerated {
			t.Fatalf("%s workers=%d: Regenerated = %v, want %v", name, workers, got.Regenerated, want.regenerated)
		}
		if !reflect.DeepEqual(got.Accesses, want.accesses) {
			t.Fatalf("%s workers=%d: accesses differ", name, workers)
		}
		last = got
	}
	return want, last
}

func TestFeedbackReuseMatchesFullRegeneration(t *testing.T) {
	// Seed 1 of every Table-2 bug at both periods; -short keeps the
	// cheaper period and one bug per application.
	periods := []uint64{1000, 10000}
	if testing.Short() {
		periods = periods[1:]
	}
	traces, regenerated := 0, 0
	apps := map[string]bool{}
	for _, bug := range bugs.All() {
		if testing.Short() && apps[bug.App] {
			continue
		}
		apps[bug.App] = true
		built := bug.Build(1)
		for _, period := range periods {
			for _, seed := range []int64{1} {
				tr, err := TraceProgram(built.Workload.Program, TraceOptions{
					Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true,
					Machine: built.Workload.Machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s period=%d seed=%d", bug.ID, period, seed)
				want, _ := checkMatchesFullRegeneration(t, name, built.Workload.Program, tr.Trace)
				traces++
				if want.regenerated {
					regenerated++
				}
			}
		}
	}
	if regenerated == 0 {
		t.Fatalf("none of %d traces regenerated: the feedback pass was never exercised", traces)
	}
	t.Logf("%d traces, %d regenerated", traces, regenerated)
}

// racyChainWorkload stores a known pointer to slot, reloads it and
// dereferences it — recoverable only through emulated memory — while a
// second thread writes slot without synchronisation, so slot is racy and
// the §5.1 feedback must re-run the main thread.
func racyChainWorkload() *prog.Program {
	b := asm.New("racychain")
	b.Global("slot", 8)
	b.Global("buf", 64)
	m := b.Func("main")
	m.MovI(isa.R4, 0)
	m.SpawnThread("writer", isa.R4)
	m.Mov(isa.R8, isa.R0)
	m.MovI(isa.R3, 120)
	m.Label("loop")
	m.Lea(isa.R4, asm.Global("buf", 0))
	m.Store(asm.Global("slot", 0), isa.R4) // slot <- &buf (known value)
	m.Load(isa.R5, asm.Global("slot", 0))  // reload pointer
	m.Store(asm.Base(isa.R5, 8), isa.R3)   // deref: needs emulated memory
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("loop")
	m.Join(isa.R8)
	m.Exit(0)
	w := b.Func("writer")
	w.MovI(isa.R3, 120)
	w.Label("wloop")
	w.Lea(isa.R4, asm.Global("buf", 0))
	w.Store(asm.Global("slot", 0), isa.R4) // unsynchronised: races with main
	w.SubI(isa.R3, 1)
	w.CmpI(isa.R3, 0)
	w.Jgt("wloop")
	w.Exit(0)
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestFeedbackRerunChangesAccesses covers the re-run branch, which no
// Table-2 trace takes: the main thread read the racy slot from emulated
// memory, so its first-pass reconstruction cannot be reused, the re-run
// loses the dereferences, and detection runs again — and the result still
// equals the full regeneration.
func TestFeedbackRerunChangesAccesses(t *testing.T) {
	p := racyChainWorkload()
	slot := p.MustLookup("slot").Addr
	tr, err := TraceProgram(p, TraceOptions{Kind: driver.ProRace, Period: 1000, Seed: 1, EnablePT: true})
	if err != nil {
		t.Fatal(err)
	}
	want, got := checkMatchesFullRegeneration(t, "racychain", p, tr.Trace)
	if !got.RacyAddrs[slot] {
		t.Fatalf("slot %#x is not racy: %v", slot, got.Reports)
	}
	if !want.regenerated {
		t.Fatal("feedback did not regenerate")
	}
	first, err := Analyze(p, tr.Trace, AnalysisOptions{Mode: replay.ModeForwardBackward, DisableRaceFeedback: true})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(first.Accesses[0], got.Accesses[0]) {
		t.Fatal("the re-run main thread's accesses did not change")
	}
	if got.ReplayStats.Total() >= first.ReplayStats.Total() {
		t.Errorf("invalidating slot must lose dereferences: %d accesses vs %d", got.ReplayStats.Total(), first.ReplayStats.Total())
	}
}
