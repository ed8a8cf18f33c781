package synthesis

import (
	"testing"

	"prorace/internal/asm"
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/ptdecode"
	"prorace/internal/tracefmt"
)

// syncHeavyProgram: two workers increment a locked counter; main also
// mallocs and frees.
func syncHeavyProgram() *prog.Program {
	b := asm.New("synth")
	b.Global("lk", 8)
	b.Global("counter", 8)
	m := b.Func("main")
	m.MovI(isa.R0, 128)
	m.Syscall(isa.SysMalloc)
	m.Mov(isa.R9, isa.R0)
	for i := int64(0); i < 2; i++ {
		m.MovI(isa.R4, i)
		m.SpawnThread("worker", isa.R4)
		m.Mov(isa.Reg(10+i), isa.R0)
	}
	for i := int64(0); i < 2; i++ {
		m.Join(isa.Reg(10 + i))
	}
	m.Mov(isa.R0, isa.R9)
	m.Syscall(isa.SysFree)
	m.Exit(0)
	w := b.Func("worker")
	w.MovI(isa.R3, 25)
	w.Label("loop")
	w.Lock("lk")
	w.Load(isa.R1, asm.Global("counter", 0))
	w.AddI(isa.R1, 1)
	w.Store(asm.Global("counter", 0), isa.R1)
	w.Unlock("lk")
	w.SubI(isa.R3, 1)
	w.CmpI(isa.R3, 0)
	w.Jgt("loop")
	w.Exit(0)
	return mustBuild(b)
}

func synthesize(t *testing.T, p *prog.Program, period uint64, seed int64) (map[int32]*ThreadTrace, *tracefmt.Trace) {
	t.Helper()
	mac := machine.New(p, machine.Config{Seed: seed})
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: period, Seed: seed, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	tts, err := SynthesizeWith(p, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tts, tr
}

func TestSamplesPinnedExactly(t *testing.T) {
	p := syncHeavyProgram()
	tts, tr := synthesize(t, p, 13, 5)
	total, pinned := 0, 0
	for tid, tt := range tts {
		total += len(tr.PEBS[tid])
		pinned += len(tt.Samples)
		for _, s := range tt.Samples {
			if pc := pcAt(tt.Path, s.StepIndex); pc != s.Rec.IP {
				t.Fatalf("tid %d: sample pinned to step %d whose pc %#x != sample IP %#x",
					tid, s.StepIndex, pc, s.Rec.IP)
			}
			in := p.MustInstAt(s.Rec.IP)
			if !in.IsMemAccess() {
				t.Fatalf("pinned sample at non-memory instruction %v", in)
			}
		}
		// Samples ascend by step index.
		for i := 1; i < len(tt.Samples); i++ {
			if tt.Samples[i].StepIndex < tt.Samples[i-1].StepIndex {
				t.Fatal("samples not ordered by step index")
			}
		}
	}
	if total == 0 {
		t.Fatal("no samples collected")
	}
	if pinned != total {
		t.Errorf("pinned %d of %d samples; expected all with PMI markers", pinned, total)
	}
}

func TestSyncRecordsZipWithPath(t *testing.T) {
	p := syncHeavyProgram()
	tts, _ := synthesize(t, p, 1000, 6)
	for tid, tt := range tts {
		for _, ss := range tt.Sync {
			switch ss.Rec.Kind {
			case tracefmt.SyncThreadBegin, tracefmt.SyncThreadExit:
				if ss.StepIndex != -1 {
					t.Errorf("tid %d: lifecycle record pinned to a step", tid)
				}
				continue
			}
			if ss.StepIndex < 0 {
				t.Errorf("tid %d: %v record not pinned", tid, ss.Rec.Kind)
				continue
			}
			in := p.MustInstAt(pcAt(tt.Path, ss.StepIndex))
			if in.Op != isa.SYSCALL {
				t.Errorf("tid %d: %v pinned to non-syscall %v", tid, ss.Rec.Kind, in)
			}
			k, ok := syncKindOf(in.Sys)
			if !ok || k != ss.Rec.Kind {
				t.Errorf("tid %d: record kind %v pinned to syscall %v", tid, ss.Rec.Kind, in.Sys)
			}
		}
	}
	// Worker threads must have lock/unlock pairs pinned.
	w := tts[1]
	locks := 0
	for _, ss := range w.Sync {
		if ss.Rec.Kind == tracefmt.SyncLock && ss.StepIndex >= 0 {
			locks++
		}
	}
	if locks != 25 {
		t.Errorf("worker pinned %d lock records, want 25", locks)
	}
}

func TestEstimateTSCMonotoneAndAnchored(t *testing.T) {
	p := syncHeavyProgram()
	tts, _ := synthesize(t, p, 13, 7)
	tt := tts[1]
	if len(tt.Samples) < 2 {
		t.Skip("need at least two samples")
	}
	// At an anchor, the estimate equals the anchor TSC.
	s0 := tt.Samples[0]
	if got := tt.EstimateTSC(s0.StepIndex); got != s0.Rec.TSC {
		t.Errorf("estimate at sample step = %d, want %d", got, s0.Rec.TSC)
	}
	// Estimates are monotone over steps.
	last := uint64(0)
	for step := 0; step < tt.Path.Len(); step += 7 {
		est := tt.EstimateTSC(step)
		if est < last {
			t.Fatalf("TSC estimate decreased at step %d: %d < %d", step, est, last)
		}
		last = est
	}
}

func TestEstimateTSCNoAnchors(t *testing.T) {
	tt := &ThreadTrace{}
	if tt.EstimateTSC(5) != 0 {
		t.Error("no anchors must yield 0")
	}
}

func TestSynthesizeWithoutPT(t *testing.T) {
	// A vanilla (RaceZ-style) trace has no PT streams: synthesis must
	// still succeed, with all samples unpinned.
	p := syncHeavyProgram()
	mac := machine.New(p, machine.Config{Seed: 8})
	d := driver.New(mac, driver.Options{Kind: driver.Vanilla, Period: 50, Seed: 8, EnablePT: false})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	tts, err := SynthesizeWith(p, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unpinned, pinned := 0, 0
	for _, tt := range tts {
		unpinned += len(tt.UnpinnedSamples)
		pinned += len(tt.Samples)
	}
	if pinned != 0 {
		t.Errorf("pinned %d samples without PT", pinned)
	}
	if unpinned == 0 {
		t.Error("expected unpinned samples from the PEBS-only trace")
	}
}

// pcAt returns the address of the instruction a path executes at step.
func pcAt(path *ptdecode.Path, step int) uint64 {
	ri, first := path.RunAt(step)
	return isa.IndexToAddr(int(path.Runs()[ri].Inst) + step - first)
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

// TestScanBackCrossesReanchor: a lenient re-anchor starts a new run after
// a step that is not a branch. scanBack searches by steps, so it looks
// past that run boundary and stops only at a branch.
func TestScanBackCrossesReanchor(t *testing.T) {
	b := asm.New("reanchor")
	b.Global("g", 8)
	m := b.Func("main")
	m.Load(isa.R1, asm.Global("g", 0)) // 0
	m.AddI(isa.R1, 1)                  // 1
	m.Jmp("next")                      // 2: a branch
	m.Label("next")
	m.Load(isa.R2, asm.Global("g", 0)) // 3
	m.AddI(isa.R2, 1)                  // 4
	m.AddI(isa.R2, 1)                  // 5
	m.AddI(isa.R2, 1)                  // 6
	m.Exit(0)
	p := mustBuild(b)
	entry, _ := isa.AddrToIndex(p.MustLookup("main").Addr)
	at := func(k int) uint32 { return uint32(entry + k) }
	// Steps 0-1 run instructions 3-4; a re-anchor then resumes at 6.
	path := ptdecode.NewPath(0, []ptdecode.Run{
		{Inst: at(3), Len: 2},
		{Inst: at(6), Len: 1},
	})
	if step, ok := scanBack(p, path, 3, isa.IndexToAddr(int(at(3)))); !ok || step != 0 {
		t.Fatalf("scanBack across the re-anchor = %d, %v; want step 0", step, ok)
	}
	// A branch still ends the search: instructions 0-2 then 3-4.
	path = ptdecode.NewPath(0, []ptdecode.Run{{Inst: at(0), Len: 5}})
	if _, ok := scanBack(p, path, 5, isa.IndexToAddr(int(at(0)))); ok {
		t.Fatal("scanBack searched past a branch")
	}
	if step, ok := scanBack(p, path, 5, isa.IndexToAddr(int(at(3)))); !ok || step != 3 {
		t.Fatalf("scanBack = %d, %v; want step 3", step, ok)
	}
}
