package replay

import (
	"slices"
	"testing"
)

func TestLoadLogForcesRerunForSlot(t *testing.T) {
	p := chainWorkload(false)
	_, tts := traceProgram(t, p, 10_000_000, 5)
	slot := p.MustLookup("slot").Addr
	out := p.MustLookup("out").Addr
	e := NewEngine(p, Config{})
	_, _, log := e.ReconstructThreadLogged(tts[0])
	if log == nil {
		t.Fatal("path replay with memory emulation kept no load log")
	}
	// The reload of slot is served by emulated memory, so invalidating
	// slot can change the thread: the log must refuse reuse.
	if _, ok := log.Reuse(map[uint64]bool{slot: true}); ok {
		t.Error("load log allowed reuse although slot was read from emulated memory")
	}
	// out is never loaded: invalidating it changes nothing.
	if hits, ok := log.Reuse(map[uint64]bool{out: true}); !ok || hits != 0 {
		t.Errorf("Reuse(out) = %d, %v; want 0, true", hits, ok)
	}
}

func TestLoadLogOnlyForEmulatedPathReplay(t *testing.T) {
	p := chainWorkload(false)
	_, tts := traceProgram(t, p, 10_000_000, 5)
	slot := p.MustLookup("slot").Addr
	for name, e := range map[string]*Engine{
		"basic block":  NewEngine(p, Config{Mode: ModeBasicBlock}),
		"no emulation": NewEngine(p, Config{}).DisableMemoryEmulation(),
		"invalidated":  NewEngine(p, Config{InvalidAddrs: map[uint64]bool{slot: true}}),
	} {
		if _, _, log := e.ReconstructThreadLogged(tts[0]); log != nil {
			t.Errorf("%s: kept a load log", name)
		}
	}
	var nilLog *LoadLog
	if _, ok := nilLog.Reuse(nil); ok {
		t.Error("a nil log must never allow reuse")
	}
}

// TestLoadLogReuseIsExact checks the claim reuse rests on: for every
// recovered load address that emulated memory never served, reconstructing
// with that address invalidated reproduces the logged reconstruction
// exactly, with the InvalidHits Reuse counts.
func TestLoadLogReuseIsExact(t *testing.T) {
	p := arrayWorkload()
	_, tts := traceProgram(t, p, 100, 3)
	for _, mode := range []Mode{ModeForward, ModeForwardBackward} {
		e := NewEngine(p, Config{Mode: mode})
		checked, refused := 0, 0
		for tid, tt := range tts {
			acc, st, log := e.ReconstructThreadLogged(tt)
			if log == nil {
				t.Fatalf("%v tid %d: no load log", mode, tid)
			}
			for i, addr := range recoveredLoads(acc) {
				if i%8 != 0 { // a spread of addresses keeps the test fast
					continue
				}
				invalid := map[uint64]bool{addr: true}
				hits, ok := log.Reuse(invalid)
				if !ok {
					refused++
					continue
				}
				acc2, st2 := NewEngine(p, Config{Mode: mode, InvalidAddrs: invalid}).ReconstructThread(tt)
				want := st
				want.InvalidHits = hits
				if st2 != want || !slices.Equal(acc, acc2) {
					t.Fatalf("%v tid %d addr %#x: reuse is not exact:\n re-run %+v\n reused %+v (accesses equal: %v)",
						mode, tid, addr, st2, want, slices.Equal(acc, acc2))
				}
				if hits == 0 {
					t.Fatalf("%v tid %d addr %#x: recovered load address counted no loads", mode, tid, addr)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%v: no reusable address checked (%d refused)", mode, refused)
		}
		t.Logf("%v: %d reusable addresses re-run and matched, %d refused", mode, checked, refused)
	}
}

// recoveredLoads lists the distinct addresses of acc's recovered unsampled
// loads in ascending order.
func recoveredLoads(acc []Access) []uint64 {
	var addrs []uint64
	for _, a := range acc {
		if !a.Store && (a.Origin == OriginForward || a.Origin == OriginBackward) {
			addrs = append(addrs, a.Addr)
		}
	}
	slices.Sort(addrs)
	return slices.Compact(addrs)
}
