package pt

import (
	"testing"

	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/tracefmt"
)

func condEvent(tid int32, pc uint64, taken bool, tsc uint64) *machine.InstEvent {
	return &machine.InstEvent{
		TID: machine.TID(tid), PC: pc, TSC: tsc, Taken: taken,
		Inst: &isa.Inst{Op: isa.JNE, Imm: int64(pc)},
	}
}

func retEvent(tid int32, pc, target, tsc uint64) *machine.InstEvent {
	return &machine.InstEvent{
		TID: machine.TID(tid), PC: pc, TSC: tsc, Target: target,
		Inst: &isa.Inst{Op: isa.RET},
	}
}

// decodeOutcomes decodes a stream back into the flat sequence of branch
// outcomes and TIP targets, ignoring timestamps.
func decodeOutcomes(t *testing.T, stream []byte) (bits []bool, tips []uint64) {
	t.Helper()
	r := tracefmt.NewPTReader(stream)
	for {
		pkt, done, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
		switch pkt.Kind {
		case tracefmt.PktTNT, tracefmt.PktTNT6:
			for i := uint8(0); i < pkt.NBits; i++ {
				bits = append(bits, pkt.Bits&(1<<i) != 0)
			}
		case tracefmt.PktTNTRep:
			for rep := uint32(0); rep < pkt.Count; rep++ {
				for i := uint8(0); i < pkt.NBits; i++ {
					bits = append(bits, pkt.Bits&(1<<i) != 0)
				}
			}
		case tracefmt.PktTNTRepEx:
			ei := 0
			for rep := uint32(0); rep < pkt.Count; rep++ {
				group := pkt.Bits
				if ei < len(pkt.Exceptions) && pkt.Exceptions[ei].Index == rep {
					group = pkt.Exceptions[ei].Bits
					ei++
				}
				for i := uint8(0); i < tracefmt.TNTBitsPerPacket; i++ {
					bits = append(bits, group&(1<<i) != 0)
				}
			}
		case tracefmt.PktTIP:
			tips = append(tips, pkt.Target)
		}
	}
}

func TestTNTRoundTripWithRLE(t *testing.T) {
	u := New(Config{})
	// A repeating pattern: 6000 branches alternating T,T,F — the same
	// 6-bit group 1000 times — must RLE-compress massively.
	var want []bool
	pat := []bool{true, true, false, true, true, false}
	for k := 0; k < 1000; k++ {
		for _, b := range pat {
			u.OnBranch(condEvent(0, isa.CodeBase, b, uint64(k)))
			want = append(want, b)
		}
	}
	streams := u.Finish()
	got, _ := decodeOutcomes(t, streams[0])
	if len(got) != len(want) {
		t.Fatalf("decoded %d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Compression: 6000 bits in far fewer bytes than 1 per branch.
	if len(streams[0]) > 200 {
		t.Errorf("stream is %d bytes for 6000 repeated branches; RLE not effective", len(streams[0]))
	}
}

func TestIrregularPatternDecodes(t *testing.T) {
	u := New(Config{})
	var want []bool
	// Pseudo-irregular outcomes, not a multiple of 6.
	for i := 0; i < 1003; i++ {
		b := (i*i)%7 < 3
		u.OnBranch(condEvent(0, isa.CodeBase, b, uint64(i)))
		want = append(want, b)
	}
	got, _ := decodeOutcomes(t, u.Finish()[0])
	if len(got) != len(want) {
		t.Fatalf("decoded %d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome %d mismatch", i)
		}
	}
}

func TestTIPOrderingPreserved(t *testing.T) {
	u := New(Config{})
	// Two conditional outcomes, then a RET, then three more outcomes: the
	// partial TNT group must be flushed before the TIP packet.
	u.OnBranch(condEvent(0, isa.CodeBase, true, 1))
	u.OnBranch(condEvent(0, isa.CodeBase, false, 2))
	u.OnBranch(retEvent(0, isa.CodeBase, 0x400200, 3))
	u.OnBranch(condEvent(0, isa.CodeBase, true, 4))
	stream := u.Finish()[0]

	r := tracefmt.NewPTReader(stream)
	var kinds []tracefmt.PTPacketKind
	for {
		pkt, done, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		kinds = append(kinds, pkt.Kind)
	}
	// Expect: TSC, TNT(2 bits), TIP, TNT(1 bit).
	want := []tracefmt.PTPacketKind{tracefmt.PktTSC, tracefmt.PktTNT, tracefmt.PktTIP, tracefmt.PktTNT}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("packet %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	bits, tips := decodeOutcomes(t, stream)
	if len(bits) != 3 || bits[0] != true || bits[1] != false || bits[2] != true {
		t.Errorf("bits = %v", bits)
	}
	if len(tips) != 1 || tips[0] != 0x400200 {
		t.Errorf("tips = %v", tips)
	}
}

func TestAddressFilters(t *testing.T) {
	u := New(Config{Filters: []Range{{Start: 0x1000, End: 0x2000}}})
	u.OnBranch(condEvent(0, 0x1500, true, 1)) // inside
	u.OnBranch(condEvent(0, 0x3000, true, 2)) // outside: dropped
	u.OnBranch(condEvent(0, 0x1fff, false, 3))
	if u.Branches != 2 {
		t.Errorf("branches = %d, want 2", u.Branches)
	}
	bits, _ := decodeOutcomes(t, u.Finish()[0])
	if len(bits) != 2 {
		t.Errorf("bits = %v, want 2 outcomes", bits)
	}
	// More than four filters are truncated, as in hardware.
	many := New(Config{Filters: []Range{{}, {}, {}, {}, {}, {}}})
	if len(many.cfg.Filters) != MaxFilterRanges {
		t.Errorf("filters = %d, want %d", len(many.cfg.Filters), MaxFilterRanges)
	}
}

func TestTSCPacketsPeriodic(t *testing.T) {
	u := New(Config{TSCIntervalCycles: 100})
	for i := 0; i < 50; i++ {
		u.OnBranch(condEvent(0, isa.CodeBase, true, uint64(i*10)))
	}
	stream := u.Finish()[0]
	r := tracefmt.NewPTReader(stream)
	tscs := 0
	for {
		pkt, done, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if pkt.Kind == tracefmt.PktTSC {
			tscs++
		}
	}
	// 500 cycles at one packet per 100 → about 5 (plus the initial one).
	if tscs < 4 || tscs > 7 {
		t.Errorf("TSC packets = %d, want ~5", tscs)
	}
}

func TestPendingBytesAccounting(t *testing.T) {
	u := New(Config{})
	u.OnBranch(retEvent(0, isa.CodeBase, 0x400100, 1))
	n1 := u.PendingBytes(0)
	if n1 == 0 {
		t.Fatal("no pending bytes after TIP")
	}
	if n2 := u.PendingBytes(0); n2 != 0 {
		t.Fatalf("pending bytes not consumed: %d", n2)
	}
	u.OnBranch(retEvent(0, isa.CodeBase, 0x400100, 2))
	if n3 := u.PendingBytes(0); n3 == 0 {
		t.Fatal("new bytes not reported")
	}
	if u.TotalBytes() == 0 {
		t.Error("TotalBytes must reflect the stream")
	}
}

func TestMultipleThreadsSeparateStreams(t *testing.T) {
	u := New(Config{})
	u.OnBranch(condEvent(1, isa.CodeBase, true, 1))
	u.OnBranch(condEvent(2, isa.CodeBase, false, 1))
	streams := u.Finish()
	if len(streams) != 2 {
		t.Fatalf("streams = %d", len(streams))
	}
	b1, _ := decodeOutcomes(t, streams[1])
	b2, _ := decodeOutcomes(t, streams[2])
	if len(b1) != 1 || b1[0] != true || len(b2) != 1 || b2[0] != false {
		t.Errorf("per-thread outcomes wrong: %v %v", b1, b2)
	}
}

func TestRetCompression(t *testing.T) {
	u := New(Config{})
	// CALL pushes the return address; a matching RET becomes one taken
	// bit instead of a 9-byte TIP (real PT's RET compression).
	call := &machine.InstEvent{TID: 0, PC: 0x400000, TSC: 1, Target: 0x400100,
		Inst: &isa.Inst{Op: isa.CALL, Imm: 0x400100}}
	u.OnBranch(call)
	ret := retEvent(0, 0x400140, 0x400000+isa.InstSize, 2)
	u.OnBranch(ret)
	stream := u.Finish()[0]
	bits, tips := decodeOutcomes(t, stream)
	if len(tips) != 0 {
		t.Fatalf("compressed return emitted a TIP: %v", tips)
	}
	if len(bits) != 1 || !bits[0] {
		t.Fatalf("compressed return bit = %v", bits)
	}

	// A return that does NOT match the tracked stack emits a TIP.
	u2 := New(Config{})
	u2.OnBranch(call)
	u2.OnBranch(retEvent(0, 0x400140, 0xDEAD00, 2))
	_, tips2 := decodeOutcomes(t, u2.Finish()[0])
	if len(tips2) != 1 || tips2[0] != 0xDEAD00 {
		t.Fatalf("mismatched return must TIP: %v", tips2)
	}
}

func TestIndirectCallEmitsTIP(t *testing.T) {
	u := New(Config{})
	u.OnBranch(&machine.InstEvent{TID: 0, PC: 0x400000, TSC: 1, Target: 0x400200,
		Inst: &isa.Inst{Op: isa.CALLR, Rs: isa.R1}})
	_, tips := decodeOutcomes(t, u.Finish()[0])
	if len(tips) != 1 || tips[0] != 0x400200 {
		t.Fatalf("indirect call tips = %v", tips)
	}
}

func TestExceptionRunsRoundTrip(t *testing.T) {
	u := New(Config{})
	// A mostly-constant pattern with a deviation every 5 groups (30
	// branches): T,T,T,T,T,F on iteration multiples.
	var want []bool
	for i := 0; i < 1200; i++ {
		b := true
		if i%30 == 17 {
			b = false
		}
		u.OnBranch(condEvent(0, isa.CodeBase, b, uint64(i)))
		want = append(want, b)
	}
	stream := u.Finish()[0]
	got, _ := decodeOutcomes(t, stream)
	if len(got) != len(want) {
		t.Fatalf("decoded %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	// The exception encoding must beat one packet per group.
	if len(stream) > 500 {
		t.Errorf("stream %d bytes for 1200 near-periodic branches", len(stream))
	}
}

func TestMarkFlushesAndTimestamps(t *testing.T) {
	u := New(Config{})
	u.OnBranch(condEvent(0, isa.CodeBase, true, 5))
	u.Mark(0, 123456)
	u.OnBranch(condEvent(0, isa.CodeBase, false, 10))
	stream := u.Finish()[0]
	r := tracefmt.NewPTReader(stream)
	sawMark := false
	for {
		pkt, done, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if pkt.Kind == tracefmt.PktTSC && pkt.TSC == 123456 {
			sawMark = true
		}
	}
	if !sawMark {
		t.Error("mark timestamp missing from stream")
	}
	bits, _ := decodeOutcomes(t, stream)
	if len(bits) != 2 || !bits[0] || bits[1] {
		t.Errorf("bits around mark = %v", bits)
	}
}

func TestBeginAnchorsStream(t *testing.T) {
	u := New(Config{})
	u.Begin(3, 0x400040, 99)
	stream := u.Finish()[3]
	r := tracefmt.NewPTReader(stream)
	p1, _, _ := r.Next()
	p2, _, _ := r.Next()
	if p1.Kind != tracefmt.PktTSC || p1.TSC != 99 {
		t.Errorf("first packet = %+v", p1)
	}
	if p2.Kind != tracefmt.PktTIP || p2.Target != 0x400040 {
		t.Errorf("anchor = %+v", p2)
	}
}
