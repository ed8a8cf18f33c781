package witness

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/machine"
	"prorace/internal/prog"
	"prorace/internal/progtest"
	"prorace/internal/race"
	"prorace/internal/replay"
	"prorace/internal/synctrace"
)

func TestFingerprintPinsProgramContent(t *testing.T) {
	p1, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(1)))
	p2, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(1)))
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Fatal("same generator seed must fingerprint identically")
	}
	p3, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(2)))
	if Fingerprint(p1) == Fingerprint(p3) {
		t.Fatal("different programs must fingerprint differently")
	}
}

func TestProgSpecBuildVerifiesFingerprint(t *testing.T) {
	spec := BugSpec("apache-25520", 1)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pinned := spec.WithFP(p)
	if _, err := pinned.Build(); err != nil {
		t.Fatalf("pinned spec must rebuild: %v", err)
	}
	pinned.FP ^= 1
	if _, err := pinned.Build(); err == nil {
		t.Fatal("stale fingerprint must fail the build, not replay a different program")
	}
	if _, err := (ProgSpec{Kind: "elf", Name: "x"}).Build(); err == nil {
		t.Fatal("unknown program kind must error")
	}
}

// allCollector retains every memory access plus the sync log, for tests
// that need to discover racing pairs rather than check a known one.
type allCollector struct {
	machine.NopTracer
	sync  *synctrace.Collector
	acc   map[int32][]replay.Access
	steps map[int32]int
}

func newAllCollector() *allCollector {
	return &allCollector{sync: synctrace.New(), acc: map[int32][]replay.Access{}, steps: map[int32]int{}}
}

func (c *allCollector) InstRetired(ev *machine.InstEvent) uint64 {
	tid := int32(ev.TID)
	if ev.IsMem {
		c.acc[tid] = append(c.acc[tid], replay.Access{
			TID: tid, PC: ev.PC, Addr: ev.MemAddr, Store: ev.IsStore, TSC: ev.TSC, Step: c.steps[tid],
		})
	}
	c.steps[tid]++
	return 0
}

func (c *allCollector) SyscallRetired(ev *machine.SyscallEvent) uint64 {
	c.sync.OnSyscall(ev)
	return 0
}

func (c *allCollector) ThreadStarted(tid machine.TID, tsc uint64) { c.sync.OnThreadStart(tid, tsc) }
func (c *allCollector) ThreadExited(tid machine.TID, tsc uint64)  { c.sync.OnThreadExit(tid, tsc) }

// allRaces runs p bare under cfg and returns every race the pair-complete
// oracle finds.
func allRaces(t *testing.T, p *prog.Program, cfg machine.Config) []race.Report {
	t.Helper()
	col := newAllCollector()
	cfg.Tracer = nil
	mac := machine.New(p, cfg)
	mac.SetTracer(col)
	if _, err := mac.Run(); err != nil {
		t.Fatalf("machine run: %v", err)
	}
	o := race.NewPairOracle(race.Options{TrackAllocations: true})
	race.Feed(o, col.sync.Records(), col.acc)
	o.Finish()
	return o.Reports()
}

func TestExecuteIsDeterministic(t *testing.T) {
	p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(3)))
	spec := ExecSpec{Machine: machine.Config{Cores: 2, Seed: 5}}
	r1, err := Execute(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Check != r2.Check {
		t.Fatalf("same spec must replay byte-identically:\n%+v\n%+v", r1.Check, r2.Check)
	}
	if !reflect.DeepEqual(r1.Decisions, r2.Decisions) {
		t.Fatal("decision logs differ between identical executions")
	}
}

func TestExecuteForcedOwnLogIsIdentity(t *testing.T) {
	p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(4)))
	spec := ExecSpec{Machine: machine.Config{Cores: 1, Seed: 2}}
	base, err := Execute(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Decisions) == 0 {
		t.Skip("program produced no multi-candidate decisions")
	}
	forced := make([]Pick, len(base.Decisions))
	for i, d := range base.Decisions {
		forced[i] = Pick{Pos: d.Pos, TID: int32(d.TID)}
	}
	re, err := Execute(p, ExecSpec{Machine: spec.Machine, Forced: forced})
	if err != nil {
		t.Fatal(err)
	}
	if re.Check != base.Check {
		t.Fatalf("forcing a run's own decision log must be the identity:\nbase %+v\n  re %+v", base.Check, re.Check)
	}
	if re.Check.Misses != 0 {
		t.Fatalf("identity replay counted %d misses", re.Check.Misses)
	}
}

func TestExecuteForcedMissesAreDeterministic(t *testing.T) {
	p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(4)))
	// TID 30000 never runs, so every forced pick misses and falls back to
	// the seeded choice — the run must equal the unforced one, with the
	// misses counted.
	bogus := []Pick{{Pos: 0, TID: 30000}, {Pos: 1, TID: 30000}}
	spec := ExecSpec{Machine: machine.Config{Cores: 1, Seed: 2}}
	base, err := Execute(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Check.Decisions < 2 {
		t.Skip("program produced too few decisions")
	}
	re, err := Execute(p, ExecSpec{Machine: spec.Machine, Forced: bogus})
	if err != nil {
		t.Fatal(err)
	}
	if re.Check.Misses != 2 {
		t.Fatalf("want 2 misses, got %d", re.Check.Misses)
	}
	if re.Check.Events != base.Check.Events {
		t.Fatal("missed picks must fall back to the seeded schedule")
	}
	re2, err := Execute(p, ExecSpec{Machine: spec.Machine, Forced: bogus})
	if err != nil {
		t.Fatal(err)
	}
	if re.Check != re2.Check {
		t.Fatal("forced replay with misses is not deterministic")
	}
}

func TestTrimAfter(t *testing.T) {
	log := []machine.SchedDecision{
		{Pos: 0, TID: 1, TSC: 100},
		{Pos: 1, TID: 2, TSC: 200},
		{Pos: 2, TID: 1, TSC: 300},
	}
	got := trimAfter(log, 200)
	want := []Pick{{Pos: 0, TID: 1}, {Pos: 1, TID: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trimAfter(200) = %v, want %v", got, want)
	}
	if got := trimAfter(log, 0); len(got) != 3 {
		t.Fatalf("trimAfter(0) must keep everything, got %v", got)
	}
}

func TestMinimizeDeltaDebug(t *testing.T) {
	picks := make([]Pick, 16)
	for i := range picks {
		picks[i] = Pick{Pos: uint64(i), TID: int32(i % 3)}
	}
	// Only picks at Pos 3 and 11 matter.
	need := func(cand []Pick) bool {
		has := map[uint64]bool{}
		for _, p := range cand {
			has[p.Pos] = true
		}
		return has[3] && has[11]
	}
	min := minimize(picks, need)
	if len(min) != 2 || min[0].Pos != 3 || min[1].Pos != 11 {
		t.Fatalf("minimize kept %v, want exactly pos 3 and 11", min)
	}
	// A verifier that always fails (budget exhausted) must leave the input
	// intact — larger is safe, wrong would not be.
	same := minimize(picks, func([]Pick) bool { return false })
	if !reflect.DeepEqual(same, picks) {
		t.Fatal("minimize shrank despite every verification failing")
	}
}

func TestGenerateRecordReplayRoundTrip(t *testing.T) {
	built := mustBug(t, "apache-25520")
	p := built.Workload.Program
	mcfg := built.Workload.Machine
	mcfg.Seed = 1
	tspec := &TracerSpec{Kind: "prorace", Period: 100, Seed: 1, EnablePT: true}

	// Discover the planted race with the ground-truth oracle, then witness
	// that report.
	var rep race.Report
	found := false
	for _, r := range allRaces(t, p, mcfg) {
		if built.RacyPCs[r.First.PC] && built.RacyPCs[r.Second.PC] {
			rep, found = r, true
			break
		}
	}
	if !found {
		t.Fatal("planted race not found by the ground-truth oracle")
	}

	out := Generate(p, BugSpec(built.Bug.ID, 1), mcfg, tspec, rep)
	if out.Witness == nil {
		t.Fatalf("no witness generated: %s (%d replays)", out.Err, out.Replays)
	}

	// Serialize, reload, and replay twice: both must succeed with
	// byte-identical event streams.
	data := out.Witness.Encode()
	w, err := Decode(data)
	if err != nil {
		t.Fatalf("decode own encoding: %v", err)
	}
	r1, err := w.ReplayResolved()
	if err != nil {
		t.Fatal(err)
	}
	if !r1.OK {
		t.Fatalf("replay drifted:\n%s", r1.Diff())
	}
	r2, err := w.ReplayResolved()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.OK {
		t.Fatalf("second replay drifted:\n%s", r2.Diff())
	}
	if r1.Result.Check != r2.Result.Check {
		t.Fatalf("replays are not byte-identical:\n%+v\n%+v", r1.Result.Check, r2.Result.Check)
	}
	if !bytes.Equal(w.Encode(), data) {
		t.Fatal("witness encoding is not stable")
	}
}

func TestReplayDetectsDrift(t *testing.T) {
	built := mustBug(t, "apache-25520")
	p := built.Workload.Program
	mcfg := built.Workload.Machine
	mcfg.Seed = 1
	var rep race.Report
	found := false
	for _, r := range allRaces(t, p, mcfg) {
		if built.RacyPCs[r.First.PC] && built.RacyPCs[r.Second.PC] {
			rep, found = r, true
			break
		}
	}
	if !found {
		t.Fatal("planted race not found")
	}
	out := Generate(p, BugSpec(built.Bug.ID, 1), mcfg, nil, rep)
	if out.Witness == nil {
		t.Fatalf("no witness: %s", out.Err)
	}

	// A tampered expectation must fail the replay with a readable diff,
	// not succeed silently.
	tampered := *out.Witness
	tampered.Expect.Addr ^= 0x1000
	res, err := tampered.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("replay accepted a tampered race address")
	}
	if res.Diff() == "" {
		t.Fatal("failed replay must explain itself")
	}

	// A tampered digest likewise.
	tampered = *out.Witness
	tampered.Check.Events ^= 1
	if res, err = tampered.Replay(p); err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("replay accepted a tampered event digest")
	}

	// The wrong program is an error (fingerprint), not a drifted replay.
	other, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(9)))
	if _, err := out.Witness.Replay(other); err == nil {
		t.Fatal("replaying against a different program must error on the fingerprint")
	}
}

// TestGenerateSeedSearchRung drives generation into rung 3: the report
// comes from a nearby seed, so the recorded seed's bare replay cannot
// manifest it, and generation must find the seed that does.
func TestGenerateSeedSearchRung(t *testing.T) {
	base := machine.Config{Cores: 1, Seed: 1}
	for genSeed := int64(1); genSeed <= 40; genSeed++ {
		p, _ := progtest.ConcurrentProgram(rand.New(rand.NewSource(genSeed)))
		baseSet := map[[2]uint64]bool{}
		for _, r := range allRaces(t, p, base) {
			baseSet[r.Key()] = true
		}
		near := base
		near.Seed = base.Seed + 1000003
		for _, r := range allRaces(t, p, near) {
			if baseSet[r.Key()] {
				continue
			}
			// This pair races at the nearby seed only.
			out := Generate(p, OracleSpec(genSeed), base, nil, r)
			if out.Witness == nil {
				// The pair-specific filtered verification can legitimately
				// disagree with the full-feed discovery for pairs whose PCs
				// also touch other addresses; keep searching.
				continue
			}
			if out.Witness.Machine.Seed == base.Seed {
				t.Fatalf("rung ladder claims seed %d manifests a pair absent from that seed's race set", base.Seed)
			}
			ro, err := out.Witness.Replay(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ro.OK {
				t.Fatalf("seed-search witness drifted:\n%s", ro.Diff())
			}
			t.Logf("genSeed %d: rung %q at machine seed %d after %d replays", genSeed, out.Rung, out.Witness.Machine.Seed, out.Replays)
			return
		}
	}
	t.Fatal("no seed-search candidate found in 40 generator seeds")
}

func mustBug(t *testing.T, id string) *bugs.Built {
	t.Helper()
	b, err := bugs.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return b.Build(1)
}
