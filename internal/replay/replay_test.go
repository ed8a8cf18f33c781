package replay

import (
	"testing"

	"prorace/internal/asm"
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
)

// goldenAccess is the ground truth for one executed instruction.
type goldenAccess struct {
	pc    uint64
	addr  uint64
	isMem bool
}

// goldenTracer records, per thread, every executed instruction with its
// memory address — the truth the reconstruction must agree with.
type goldenTracer struct {
	inner machine.Tracer
	steps map[int32][]goldenAccess
}

func newGolden(inner machine.Tracer) *goldenTracer {
	return &goldenTracer{inner: inner, steps: map[int32][]goldenAccess{}}
}

func (g *goldenTracer) InstRetired(ev *machine.InstEvent) uint64 {
	tid := int32(ev.TID)
	if ev.Inst.Op == isa.SYSCALL {
		if l := g.steps[tid]; len(l) > 0 && l[len(l)-1].pc == ev.PC {
			return g.inner.InstRetired(ev) // blocked-syscall retry
		}
	}
	g.steps[tid] = append(g.steps[tid], goldenAccess{pc: ev.PC, addr: ev.MemAddr, isMem: ev.IsMem})
	return g.inner.InstRetired(ev)
}
func (g *goldenTracer) SyscallRetired(ev *machine.SyscallEvent) uint64 {
	return g.inner.SyscallRetired(ev)
}
func (g *goldenTracer) ThreadStarted(tid machine.TID, tsc uint64) { g.inner.ThreadStarted(tid, tsc) }
func (g *goldenTracer) ThreadExited(tid machine.TID, tsc uint64)  { g.inner.ThreadExited(tid, tsc) }

// traceProgram runs p under the ProRace driver and returns golden steps and
// the synthesised per-thread traces.
func traceProgram(t *testing.T, p *prog.Program, period uint64, seed int64) (*goldenTracer, map[int32]*synthesis.ThreadTrace) {
	t.Helper()
	mac := machine.New(p, machine.Config{Seed: seed})
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true})
	g := newGolden(d)
	mac.SetTracer(g)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tts, err := synthesis.SynthesizeWith(p, d.Finish(), synthesis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, tts
}

// checkSound verifies every path-pinned access against the golden trace.
func checkSound(t *testing.T, g *goldenTracer, accesses map[int32][]Access) {
	t.Helper()
	for tid, accs := range accesses {
		golden := g.steps[tid]
		for _, a := range accs {
			if a.Step < 0 {
				continue // unpinned BB reconstructions are checked elsewhere
			}
			if a.Step >= len(golden) {
				t.Fatalf("tid %d: access step %d beyond golden length %d", tid, a.Step, len(golden))
			}
			want := golden[a.Step]
			if want.pc != a.PC {
				t.Fatalf("tid %d step %d: pc %#x, golden %#x", tid, a.Step, a.PC, want.pc)
			}
			if !want.isMem {
				t.Fatalf("tid %d step %d: recovered non-memory instruction", tid, a.Step)
			}
			if want.addr != a.Addr {
				t.Fatalf("tid %d step %d (%v, origin %d): addr %#x, golden %#x",
					tid, a.Step, a.PC, a.Origin, a.Addr, want.addr)
			}
		}
	}
}

// arrayWorkload: race-free workload with register-indirect addressing:
// each worker walks a private slice of a shared array.
func arrayWorkload() *prog.Program {
	b := asm.New("arr")
	b.Global("arrays", 2048)
	m := b.Func("main")
	for i := int64(0); i < 2; i++ {
		m.MovI(isa.R4, i)
		m.SpawnThread("worker", isa.R4)
		m.Mov(isa.Reg(8+i), isa.R0)
	}
	for i := int64(0); i < 2; i++ {
		m.Join(isa.Reg(8 + i))
	}
	m.Exit(0)
	w := b.Func("worker")
	w.Mov(isa.R7, isa.R0)
	w.MulI(isa.R7, 1024)
	w.Lea(isa.R6, asm.Global("arrays", 0))
	w.Add(isa.R6, isa.R7)
	w.MovI(isa.R3, 300)
	w.MovI(isa.R2, 0)
	w.Label("loop")
	w.Load(isa.R1, asm.BaseIndex(isa.R6, isa.R2, 8, 0))
	w.AddI(isa.R1, 1)
	w.Store(asm.BaseIndex(isa.R6, isa.R2, 8, 0), isa.R1)
	w.AddI(isa.R2, 1)
	w.AndI(isa.R2, 127)
	w.SubI(isa.R3, 1)
	w.CmpI(isa.R3, 0)
	w.Jgt("loop")
	w.Exit(0)
	return mustBuild(b)
}

func TestForwardReplayIsSoundAndRecovers(t *testing.T) {
	p := arrayWorkload()
	g, tts := traceProgram(t, p, 100, 3)
	e := NewEngine(p, Config{Mode: ModeForward})
	accesses, st := e.ReconstructAll(tts)
	checkSound(t, g, accesses)
	if st.Sampled == 0 {
		t.Fatal("no sampled accesses")
	}
	if st.Forward == 0 {
		t.Fatal("forward replay recovered nothing")
	}
	ratio := st.RecoveryRatio()
	if ratio < 3 {
		t.Errorf("forward recovery ratio = %.1fx, expected substantial recovery", ratio)
	}
	t.Logf("forward: sampled %d, recovered %d, ratio %.1fx of %d mem steps",
		st.Sampled, st.Forward, ratio, st.MemSteps)
}

func TestForwardBackwardRecoversMoreAndStaysSound(t *testing.T) {
	p := arrayWorkload()
	g, tts := traceProgram(t, p, 100, 3)
	fwd := NewEngine(p, Config{Mode: ModeForward})
	_, stF := fwd.ReconstructAll(tts)
	fb := NewEngine(p, Config{})
	accesses, stFB := fb.ReconstructAll(tts)
	checkSound(t, g, accesses)
	if stFB.Total() < stF.Total() {
		t.Errorf("forward+backward (%d) recovered fewer than forward (%d)", stFB.Total(), stF.Total())
	}
	if stFB.Backward == 0 {
		t.Error("backward replay contributed nothing on a register-indirect workload")
	}
	t.Logf("fb: sampled %d fwd %d bwd %d (ratio %.1fx) vs fwd-only %.1fx",
		stFB.Sampled, stFB.Forward, stFB.Backward, stFB.RecoveryRatio(), stF.RecoveryRatio())
}

// pcRelWorkload touches globals only through PC-relative operands.
func pcRelWorkload() *prog.Program {
	b := asm.New("pcrel")
	b.Global("flag", 8)
	b.Global("out", 8)
	m := b.Func("main")
	m.MovI(isa.R3, 200)
	m.Label("loop")
	m.Load(isa.R1, asm.Global("flag", 0))
	m.AddI(isa.R1, 1)
	m.Store(asm.Global("flag", 0), isa.R1)
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("loop")
	m.Exit(0)
	return mustBuild(b)
}

func TestPCRelRecoveredWithoutAnySamples(t *testing.T) {
	p := pcRelWorkload()
	// Period far larger than the run's memory events: zero samples.
	g, tts := traceProgram(t, p, 10_000_000, 3)
	if len(tts[0].Samples) != 0 || len(tts[0].UnpinnedSamples) != 0 {
		t.Fatalf("expected zero samples, got %d", len(tts[0].Samples))
	}
	e := NewEngine(p, Config{})
	accesses, st := e.ReconstructAll(tts)
	checkSound(t, g, accesses)
	// All 400 PC-relative accesses are recoverable from the path alone —
	// the property behind Table 2's 100% rows for pfscan/aget/pbzip2(9.4.1).
	if st.Forward < 400 {
		t.Errorf("recovered %d PC-relative accesses, want >= 400", st.Forward)
	}
	if st.Sampled != 0 {
		t.Errorf("sampled = %d with an impossible period", st.Sampled)
	}
}

// fig5Workload mirrors the paper's Figure 5: a pointer is loaded from
// memory (value unavailable to forward replay) and dereferenced; the
// pointer register survives to the next sample, so backward propagation
// recovers the dereference.
func fig5Workload() *prog.Program {
	b := asm.New("fig5")
	// The pointer table is initialised statically in the data segment:
	// its contents are *not* visible to the offline replay (the program
	// map starts with all memory unavailable), exactly like pointers set
	// up long before tracing started.
	words := make([]uint64, 32)
	for i := range words {
		words[i] = isa.DataBase // self-referencing: &table
	}
	b.GlobalWords("table", words) // first global: placed at DataBase
	b.Global("out", 8)
	m := b.Func("main")
	m.Lea(isa.R1, asm.Global("table", 0))
	// Hot loop: load pointer from table (memory-indirect), dereference it,
	// stash it in a callee-saved register that stays live.
	m.MovI(isa.R3, 400)
	m.MovI(isa.R2, 0)
	m.Label("loop")
	m.Load(isa.R5, asm.BaseIndex(isa.R1, isa.R2, 8, 0)) // rsi <- mem (like line 2 of Fig 5)
	m.Load(isa.R6, asm.Base(isa.R5, 8))                 // deref (like line 3)
	m.Store(asm.Global("out", 0), isa.R6)
	m.AddI(isa.R2, 1)
	m.AndI(isa.R2, 31)
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("loop")
	m.Exit(0)
	return mustBuild(b)
}

func TestBackwardRecoversFig5Dereference(t *testing.T) {
	p := fig5Workload()
	derefPC := uint64(0)
	for i, in := range p.Insts {
		if in.Op == isa.LOAD && in.Mode == isa.ModeBase && in.Base == isa.R5 {
			derefPC = isa.IndexToAddr(i)
		}
	}
	if derefPC == 0 {
		t.Fatal("deref instruction not found")
	}
	// Sample placement depends on the seed; aggregate a few runs so the
	// property (backward strictly extends forward) is robust.
	totFwd, totFB, totBwdOrigin := 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		g, tts := traceProgram(t, p, 97, seed)
		count := func(mode Mode) (int, Stats) {
			e := NewEngine(p, Config{Mode: mode})
			accesses, st := e.ReconstructAll(tts)
			checkSound(t, g, accesses)
			n := 0
			for _, a := range accesses[0] {
				if a.PC == derefPC && a.Origin != OriginSampled {
					n++
				}
			}
			return n, st
		}
		nFwd, _ := count(ModeForward)
		nFB, st := count(ModeForwardBackward)
		totFwd += nFwd
		totFB += nFB
		totBwdOrigin += st.Backward
	}
	if totFB <= totFwd {
		t.Errorf("backward replay recovered %d derefs vs forward's %d; expected more", totFB, totFwd)
	}
	if totBwdOrigin == 0 {
		t.Error("no backward-origin accesses across seeds")
	}
	t.Logf("deref recoveries over 4 seeds: forward %d, forward+backward %d", totFwd, totFB)
}

// chainWorkload: a known pointer is stored to memory, reloaded, and
// dereferenced — recoverable only with memory emulation.
func chainWorkload(withSyscall bool) *prog.Program {
	b := asm.New("chain")
	b.Global("slot", 8)
	b.Global("buf", 64)
	b.Global("out", 8)
	m := b.Func("main")
	m.MovI(isa.R3, 120)
	m.Label("loop")
	m.Lea(isa.R4, asm.Global("buf", 0))
	m.Store(asm.Global("slot", 0), isa.R4) // slot <- &buf (known value)
	if withSyscall {
		m.Syscall(isa.SysYield) // invalidates emulated memory
	}
	m.Load(isa.R5, asm.Global("slot", 0)) // reload pointer
	m.Store(asm.Base(isa.R5, 8), isa.R3)  // deref: needs emulated memory
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("loop")
	m.Exit(0)
	return mustBuild(b)
}

func derefRecoveries(t *testing.T, p *prog.Program, e *Engine, tts map[int32]*synthesis.ThreadTrace, g *goldenTracer) int {
	t.Helper()
	accesses, _ := e.ReconstructAll(tts)
	checkSound(t, g, accesses)
	var derefPC uint64
	for i, in := range p.Insts {
		if in.Op == isa.STORE && in.Mode == isa.ModeBase && in.Base == isa.R5 {
			derefPC = isa.IndexToAddr(i)
		}
	}
	n := 0
	for _, a := range accesses[0] {
		if a.PC == derefPC && a.Origin != OriginSampled {
			n++
		}
	}
	return n
}

func TestMemoryEmulationEnablesPointerChains(t *testing.T) {
	p := chainWorkload(false)
	g, tts := traceProgram(t, p, 10_000_000, 5) // no samples: pure path replay
	e := NewEngine(p, Config{})
	withMem := derefRecoveries(t, p, e, tts, g)
	withoutMem := derefRecoveries(t, p, e.DisableMemoryEmulation(), tts, g)
	if withMem == 0 {
		t.Error("memory emulation recovered no pointer-chain derefs")
	}
	if withoutMem >= withMem {
		t.Errorf("disabling memory emulation did not reduce recoveries: %d vs %d", withoutMem, withMem)
	}
}

func TestSyscallInvalidatesEmulatedMemory(t *testing.T) {
	pClean := chainWorkload(false)
	gC, ttsC := traceProgram(t, pClean, 10_000_000, 5)
	clean := derefRecoveries(t, pClean, NewEngine(pClean, Config{}), ttsC, gC)

	pSys := chainWorkload(true)
	gS, ttsS := traceProgram(t, pSys, 10_000_000, 5)
	sys := derefRecoveries(t, pSys, NewEngine(pSys, Config{}), ttsS, gS)
	if sys >= clean {
		t.Errorf("syscall between store and load must reduce recoveries: %d vs %d", sys, clean)
	}
}

// heapWorkload allocates with malloc and writes through the result.
func heapWorkload() *prog.Program {
	b := asm.New("heap")
	m := b.Func("main")
	m.MovI(isa.R0, 256)
	m.Syscall(isa.SysMalloc)
	m.Mov(isa.R9, isa.R0)
	m.MovI(isa.R3, 150)
	m.MovI(isa.R2, 0)
	m.Label("loop")
	m.Store(asm.BaseIndex(isa.R9, isa.R2, 8, 0), isa.R3)
	m.AddI(isa.R2, 1)
	m.AndI(isa.R2, 31)
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("loop")
	m.Exit(0)
	return mustBuild(b)
}

func TestMallocResultRestoredFromSyncLog(t *testing.T) {
	p := heapWorkload()
	g, tts := traceProgram(t, p, 10_000_000, 5) // no samples at all
	e := NewEngine(p, Config{})
	accesses, st := e.ReconstructAll(tts)
	checkSound(t, g, accesses)
	// Every heap store flows from the malloc result recorded in the sync
	// log: all 150 must be recovered with zero samples.
	if st.Forward < 150 {
		t.Errorf("recovered %d heap stores from the sync log, want >= 150", st.Forward)
	}
}

func TestBBModeConfinedToBlock(t *testing.T) {
	p := arrayWorkload()
	g, tts := traceProgram(t, p, 100, 3)
	bb := NewEngine(p, Config{Mode: ModeBasicBlock})
	accesses, stBB := bb.ReconstructAll(tts)
	_ = g
	if stBB.Sampled == 0 {
		t.Fatal("BB mode lost the samples")
	}
	// Every BB access must lie in the same static block as some sample.
	for tid, accs := range accesses {
		for _, a := range accs {
			if a.Step != -1 {
				t.Fatalf("BB access pinned to a path step")
			}
			blk, ok := p.BlockContaining(a.PC)
			if !ok {
				t.Fatalf("tid %d: access outside text", tid)
			}
			found := false
			for _, s := range tts[tid].Samples {
				if blk.Contains(s.Rec.IP) {
					found = true
					break
				}
			}
			for _, r := range tts[tid].UnpinnedSamples {
				if blk.Contains(r.IP) {
					found = true
				}
			}
			if !found {
				t.Fatalf("tid %d: BB access at %#x outside any sampled block", tid, a.PC)
			}
		}
	}
	fb := NewEngine(p, Config{})
	_, stFB := fb.ReconstructAll(tts)
	if stBB.Total() >= stFB.Total() {
		t.Errorf("BB mode (%d) must recover less than forward+backward (%d)", stBB.Total(), stFB.Total())
	}
	t.Logf("ratios: bb %.1fx fb %.1fx", stBB.RecoveryRatio(), stFB.RecoveryRatio())
}

func TestInvalidAddrFeedbackSuppressesEmulation(t *testing.T) {
	p := chainWorkload(false)
	g, tts := traceProgram(t, p, 10_000_000, 5)
	slot := p.MustLookup("slot").Addr
	e := NewEngine(p, Config{InvalidAddrs: map[uint64]bool{slot: true}})
	n := derefRecoveries(t, p, e, tts, g)
	eFree := NewEngine(p, Config{})
	nFree := derefRecoveries(t, p, eFree, tts, g)
	if n >= nFree {
		t.Errorf("invalidating the racy slot must reduce recoveries: %d vs %d", n, nFree)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeBasicBlock.String() == "" || ModeForward.String() == "" ||
		ModeForwardBackward.String() == "" || Mode(9).String() != "mode?" {
		t.Error("mode names wrong")
	}
}

func TestStatsRatio(t *testing.T) {
	s := Stats{Sampled: 10, Forward: 30, Backward: 20}
	if s.Total() != 60 {
		t.Error("total wrong")
	}
	if s.RecoveryRatio() != 6 {
		t.Errorf("ratio = %v", s.RecoveryRatio())
	}
	if (Stats{}).RecoveryRatio() != 0 {
		t.Error("zero samples must yield ratio 0")
	}
}

func TestStatsMergeCoversEveryField(t *testing.T) {
	a := Stats{Sampled: 1, Forward: 2, Backward: 3, BasicBlock: 4, PathSteps: 5, MemSteps: 6, InvalidHits: 7}
	b := Stats{Sampled: 10, Forward: 20, Backward: 30, BasicBlock: 40, PathSteps: 50, MemSteps: 60, InvalidHits: 70}
	a.Merge(b)
	want := Stats{Sampled: 11, Forward: 22, Backward: 33, BasicBlock: 44, PathSteps: 55, MemSteps: 66, InvalidHits: 77}
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
}

// mustBuild finalises a test program; the inputs are static, so a build
// error means the test itself is broken.
func mustBuild(b *asm.Builder) *prog.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
