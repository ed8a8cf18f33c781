package ptdecode

import (
	"errors"
	"testing"

	"prorace/internal/machine"
	"prorace/internal/pmu/driver"
	"prorace/internal/prog"
	"prorace/internal/tracefmt"
)

// tracePSBDense runs branchyProgram with a tiny PSB interval so the stream
// carries many sync points, and returns the golden execution plus streams.
func tracePSBDense(t testing.TB) (*prog.Program, *goldenTracer, map[int32][]byte) {
	t.Helper()
	p := branchyProgram()
	mac := machine.New(p, machine.Config{Seed: 4})
	d := driver.New(mac, driver.Options{
		Kind: driver.ProRace, Period: 50, Seed: 4, EnablePT: true,
		PSBIntervalCycles: 200,
	})
	g := newGolden(d)
	mac.SetTracer(g)
	if _, err := mac.Run(); err != nil {
		t.Fatal(err)
	}
	return p, g, d.Finish().PT
}

func TestLenientEqualsStrictOnCleanStream(t *testing.T) {
	p, g, streams := tracePSBDense(t)
	stream := streams[0]
	strictPath, err := DecodeWith(p, 0, stream, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lenientPath, err := DecodeWith(p, 0, stream, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if lenientPath.Degraded() {
		t.Fatalf("clean stream decoded as degraded: %d corrupt, %d gaps",
			lenientPath.CorruptPackets, len(lenientPath.Gaps))
	}
	if strictPath.Len() != lenientPath.Len() {
		t.Fatalf("strict %d steps, lenient %d", strictPath.Len(), lenientPath.Len())
	}
	strictPCs, lenientPCs := pcsOf(strictPath), pcsOf(lenientPath)
	for i := range strictPCs {
		if strictPCs[i] != lenientPCs[i] {
			t.Fatalf("step %d differs: strict %#x lenient %#x", i, strictPCs[i], lenientPCs[i])
		}
	}
	// And both match the execution exactly.
	want := g.pcs[0]
	if lenientPath.Len() != len(want) {
		t.Fatalf("decoded %d steps, executed %d", lenientPath.Len(), len(want))
	}
}

// corruptMiddle flips bits in a window in the middle of the stream.
func corruptMiddle(stream []byte) []byte {
	b := append([]byte(nil), stream...)
	lo, hi := len(b)/3, len(b)/3+24
	if hi > len(b) {
		hi = len(b)
	}
	for i := lo; i < hi; i++ {
		b[i] ^= 0xFF
	}
	return b
}

func TestLenientRecoversFromMidStreamCorruption(t *testing.T) {
	p, g, streams := tracePSBDense(t)
	bad := corruptMiddle(streams[0])

	// Strict decode must not panic; it either errors or truncates early.
	strictPath, strictErr := DecodeWith(p, 0, bad, Options{})
	if strictErr == nil && strictPath.Len() >= len(g.pcs[0]) && !strictPath.Truncated {
		t.Error("strict decode of corrupted stream reported a full clean path")
	}

	// Lenient decode must recover: no error, damage accounted, and the
	// walk resumes after the corrupt window (path longer than the strict
	// truncation point whenever a sync point followed the damage).
	path, err := DecodeWith(p, 0, bad, Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient decode errored: %v", err)
	}
	if !path.Degraded() {
		t.Fatal("corrupted stream decoded as clean")
	}
	if path.CorruptPackets == 0 {
		t.Error("no corrupt packets counted")
	}
	if len(path.Gaps) == 0 {
		t.Error("no gaps recorded")
	}
	for _, gap := range path.Gaps {
		if gap.Reason == "" {
			t.Error("gap without reason")
		}
	}
	if path.SkippedBytes() == 0 {
		t.Error("gaps recorded but no bytes skipped")
	}
	// Every decoded step must still be a real instruction: resync may skip
	// execution, but it must never fabricate PCs outside the program.
	for i, pc := range pcsOf(path) {
		if _, ok := p.InstAt(pc); !ok {
			t.Fatalf("step %d: decoded pc %#x is not an instruction", i, pc)
		}
	}
}

func TestLenientResumeAfterGap(t *testing.T) {
	p, g, streams := tracePSBDense(t)
	stream := streams[0]
	// Cut a chunk out of the middle: framing shifts, the decoder must
	// resync at a later PSB and keep walking.
	lo, hi := len(stream)/2, len(stream)/2+17
	bad := append(append([]byte(nil), stream[:lo]...), stream[hi:]...)

	path, err := DecodeWith(p, 0, bad, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !path.Degraded() {
		t.Fatal("gap not detected")
	}
	// The pre-damage prefix decodes exactly; after recovery the path must
	// have kept going (more steps than the first gap's position).
	first := path.Gaps[0].StepIndex
	if first == 0 {
		t.Fatal("gap at step 0: damage window swallowed the whole prefix")
	}
	pcs := pcsOf(path)
	for i := 0; i < first && i < len(g.pcs[0]); i++ {
		if pcs[i] != g.pcs[0][i] {
			t.Fatalf("pre-gap step %d diverged", i)
		}
	}
	if path.Len() <= first {
		t.Errorf("walk did not resume after the gap (%d steps, gap at %d)", path.Len(), first)
	}
}

func TestLenientHugeTNTRunRejected(t *testing.T) {
	// A framing shift can make garbage parse as a TNTRep with a count in
	// the billions; the lenient decoder must reject it (it cannot fit the
	// step budget) instead of spinning, and a small budget must hold.
	p, _, streams := tracePSBDense(t)
	stream := append([]byte(nil), streams[0]...)
	// Craft a hostile TNTRep mid-stream: a 6-bit pattern repeated 2^31
	// times, i.e. ~13 billion TNT bits.
	hostile := tracefmt.AppendTNTRep(nil, 0b10101, 1<<31)
	mid := len(stream) / 2
	bad := append(append(append([]byte(nil), stream[:mid]...), hostile...), stream[mid:]...)
	path, err := DecodeWith(p, 0, bad, Options{Lenient: true, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if path.Len() >= 1<<20 {
		t.Fatalf("decoder walked the hostile run to the step cap (%d steps)", path.Len())
	}
}

func TestStrictUnchangedByLenientMachinery(t *testing.T) {
	// Strict mode on a corrupt stream still reports the typed error.
	p, _, streams := tracePSBDense(t)
	bad := corruptMiddle(streams[0])
	_, err := DecodeWith(p, 0, bad, Options{})
	if err == nil {
		// Corruption may decode as valid-but-desynced packets; then the
		// walk truncates instead. Either is acceptable strict behaviour,
		// but silent full success is checked above. Nothing to assert.
		return
	}
	var ce *tracefmt.ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("strict error %v does not wrap ErrCorrupt", err)
	}
}
