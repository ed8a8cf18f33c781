package ptdecode

import (
	"runtime"
	"testing"
	"unsafe"

	"prorace/internal/asm"
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
)

// goldenTracer records every executed PC per thread — the ground truth a
// correct PT decode must reproduce.
type goldenTracer struct {
	inner machine.Tracer
	pcs   map[int32][]uint64
}

func newGolden(inner machine.Tracer) *goldenTracer {
	return &goldenTracer{inner: inner, pcs: map[int32][]uint64{}}
}

func (g *goldenTracer) InstRetired(ev *machine.InstEvent) uint64 {
	tid := int32(ev.TID)
	// Lock retries re-deliver the same SYSCALL pc; the architectural path
	// contains it once. Collapse consecutive duplicates of blocking
	// syscalls.
	if ev.Inst.Op == isa.SYSCALL {
		if l := g.pcs[tid]; len(l) > 0 && l[len(l)-1] == ev.PC {
			return g.inner.InstRetired(ev)
		}
	}
	g.pcs[tid] = append(g.pcs[tid], ev.PC)
	return g.inner.InstRetired(ev)
}
func (g *goldenTracer) SyscallRetired(ev *machine.SyscallEvent) uint64 {
	return g.inner.SyscallRetired(ev)
}
func (g *goldenTracer) ThreadStarted(tid machine.TID, tsc uint64) { g.inner.ThreadStarted(tid, tsc) }
func (g *goldenTracer) ThreadExited(tid machine.TID, tsc uint64)  { g.inner.ThreadExited(tid, tsc) }

// branchyProgram exercises every control-flow construct: conditional
// branches both ways, direct calls, indirect calls, returns, loops.
func branchyProgram() *prog.Program {
	b := asm.New("branchy")
	b.Global("data", 512)
	b.Global("out", 8)
	m := b.Func("main")
	m.MovI(isa.R3, 40) // outer loop count
	m.MovI(isa.R5, 0)  // accumulator
	m.Label("outer")
	m.Mov(isa.R1, isa.R3)
	m.AndI(isa.R1, 3)
	m.CmpI(isa.R1, 0)
	m.Jeq("even")
	m.Call("oddwork")
	m.Jmp("next")
	m.Label("even")
	m.MovSym(isa.R2, "evenwork", 0)
	m.CallR(isa.R2) // indirect call
	m.Label("next")
	m.Add(isa.R5, isa.R0)
	m.SubI(isa.R3, 1)
	m.CmpI(isa.R3, 0)
	m.Jgt("outer")
	m.Store(asm.Global("out", 0), isa.R5)
	m.Exit(0)

	f1 := b.Func("oddwork")
	f1.MovI(isa.R0, 0)
	f1.MovI(isa.R6, 4)
	f1.Label("l")
	f1.Load(isa.R7, asm.Global("data", 0))
	f1.Add(isa.R0, isa.R7)
	f1.SubI(isa.R6, 1)
	f1.CmpI(isa.R6, 0)
	f1.Jgt("l")
	f1.Ret()

	f2 := b.Func("evenwork")
	f2.MovI(isa.R0, 7)
	f2.Store(asm.Global("data", 8), isa.R0)
	f2.Ret()
	return mustBuild(b)
}

func runWithPT(t *testing.T, p *prog.Program, period uint64) (*goldenTracer, map[int32][]byte, map[int32]*Path, *driver.Driver) {
	t.Helper()
	mac := machine.New(p, machine.Config{Seed: 4})
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: period, Seed: 4, EnablePT: true})
	g := newGolden(d)
	mac.SetTracer(g)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	paths, err := DecodeAll(p, tr.PT, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr.PT, paths, d
}

func TestDecodeMatchesExecutionExactly(t *testing.T) {
	p := branchyProgram()
	g, _, paths, _ := runWithPT(t, p, 50)
	path := paths[0]
	want := g.pcs[0]
	if path.Len() == 0 {
		t.Fatal("empty decoded path")
	}
	if path.Len() != len(want) {
		t.Fatalf("decoded %d steps, executed %d", path.Len(), len(want))
	}
	pcs := pcsOf(path)
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("step %d: decoded %#x, executed %#x (%v vs %v)",
				i, pcs[i], want[i], p.MustInstAt(pcs[i]), p.MustInstAt(want[i]))
		}
	}
	if path.Truncated {
		t.Error("full stream must not truncate")
	}
}

// TestScratchReusedAcrossCollections: a decode lent a warm Scratch appends
// to the buffer an earlier decode handed back, whatever the collector did
// in between, so repeated analyses of one trace allocate the same. (A
// sync.Pool loses its buffers to two collections.)
func TestScratchReusedAcrossCollections(t *testing.T) {
	p := branchyProgram()
	_, streams, _, _ := runWithPT(t, p, 50)
	s := new(Scratch)
	// handedBack returns the backing array of the one buffer s holds.
	handedBack := func() *Run {
		if len(s.free) != 1 || cap(s.free[0].runs) == 0 {
			t.Fatalf("scratch holds %d buffers after a decode; want one non-empty buffer", len(s.free))
		}
		return unsafe.SliceData(s.free[0].runs[:1])
	}
	decode := func() {
		if _, err := DecodeWith(p, 0, streams[0], Options{Scratch: s}); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	cold := handedBack()
	for range 3 {
		runtime.GC()
		runtime.GC()
		decode()
		if warm := handedBack(); warm != cold {
			t.Fatalf("a warm decode after two collections appended to a new buffer (%p), not the one the scratch handed back (%p)", warm, cold)
		}
	}
}

func TestDecodeMultiThreaded(t *testing.T) {
	b := asm.New("mt")
	b.Global("g", 64)
	m := b.Func("main")
	for i := int64(0); i < 3; i++ {
		m.MovI(isa.R4, i)
		m.SpawnThread("worker", isa.R4)
		m.Mov(isa.Reg(8+i), isa.R0)
	}
	for i := int64(0); i < 3; i++ {
		m.Join(isa.Reg(8 + i))
	}
	m.Exit(0)
	w := b.Func("worker")
	w.MovI(isa.R3, 30)
	w.Label("loop")
	w.Load(isa.R1, asm.Global("g", 0))
	w.AddI(isa.R1, 1)
	w.Store(asm.Global("g", 0), isa.R1)
	w.SubI(isa.R3, 1)
	w.CmpI(isa.R3, 0)
	w.Jgt("loop")
	w.Exit(0)
	p := mustBuild(b)

	g, _, paths, _ := runWithPT(t, p, 20)
	if len(paths) != 4 {
		t.Fatalf("paths for %d threads", len(paths))
	}
	for tid, path := range paths {
		want := g.pcs[tid]
		if path.Len() != len(want) {
			t.Fatalf("tid %d: decoded %d steps, executed %d", tid, path.Len(), len(want))
		}
		pcs := pcsOf(path)
		for i := range want {
			if pcs[i] != want[i] {
				t.Fatalf("tid %d step %d mismatch", tid, i)
			}
		}
	}
}

func TestMarkersPinSamples(t *testing.T) {
	p := branchyProgram()
	mac := machine.New(p, machine.Config{Seed: 9})
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 17, Seed: 9, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	paths, err := DecodeAll(p, tr.PT, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := paths[0]
	pcs := pcsOf(path)
	// Every stored sample must have a marker with its exact TSC, and the
	// sample IP must appear in the straight-line run ending at the
	// marker's step index.
	for _, rec := range tr.PEBS[0] {
		var found *Marker
		for i := range path.Markers {
			if path.Markers[i].TSC == rec.TSC {
				found = &path.Markers[i]
				break
			}
		}
		if found == nil {
			t.Fatalf("sample at TSC %d has no marker", rec.TSC)
		}
		// Scan backward from the marker for the sample IP within the
		// current basic-block run (no intervening branch).
		idx := -1
		for i := found.StepIndex - 1; i >= 0; i-- {
			if pcs[i] == rec.IP {
				idx = i
				break
			}
			if in := p.MustInstAt(pcs[i]); in.IsBranch() && i < found.StepIndex-1 {
				break
			}
		}
		if idx < 0 {
			t.Fatalf("sample IP %#x not found before marker at step %d", rec.IP, found.StepIndex)
		}
	}
	if len(tr.PEBS[0]) == 0 {
		t.Fatal("no samples to verify")
	}
}

func TestDecodeEmptyStream(t *testing.T) {
	p := branchyProgram()
	path, err := DecodeWith(p, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() != 0 {
		t.Error("empty stream must decode to empty path")
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	p := branchyProgram()
	_, streams, _, _ := runWithPT(t, p, 1000)
	full := streams[0]
	// Cut the stream in half: decode must stop gracefully, truncated.
	path, err := DecodeWith(p, 0, full[:len(full)/2], Options{})
	if err != nil {
		// A cut mid-packet is a legitimate decode error; either outcome
		// (error or truncated path) is acceptable, but no panic.
		return
	}
	if !path.Truncated && path.Len() > 0 {
		t.Error("half stream must truncate")
	}
}

func TestDecodeMaxSteps(t *testing.T) {
	p := branchyProgram()
	_, streams, _, _ := runWithPT(t, p, 1000)
	path, err := DecodeWith(p, 0, streams[0], Options{MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() != 10 {
		t.Errorf("maxSteps ignored: %d steps", path.Len())
	}
}

func TestDecodeWildJumpTruncates(t *testing.T) {
	b := asm.New("wild")
	m := b.Func("main")
	m.MovI(isa.R1, 0x123456)
	m.JmpR(isa.R1)
	p := mustBuild(b)
	mac := machine.New(p, machine.Config{Seed: 1})
	d := driver.New(mac, driver.Options{Kind: driver.ProRace, Period: 100, Seed: 1, EnablePT: true})
	mac.SetTracer(d)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	tr := d.Finish()
	path, err := DecodeWith(p, 0, tr.PT[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !path.Truncated {
		t.Error("wild jump must truncate the decode")
	}
	if path.Len() != 2 {
		t.Errorf("decoded %d steps, want the 2 before the wild target", path.Len())
	}
}

func TestDecodeGarbageStreamErrors(t *testing.T) {
	p := branchyProgram()
	if _, err := DecodeWith(p, 0, []byte{0xFF, 0x01, 0x02}, Options{}); err == nil {
		t.Error("garbage stream must error")
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
