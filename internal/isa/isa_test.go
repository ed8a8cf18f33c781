package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"}, {R7, "r7"}, {R14, "r14"}, {SP, "sp"}, {NoReg, "-"}, {Reg(42), "r?42"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(c.r), got, c.want)
		}
	}
}

func TestRegValid(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		if !r.Valid() {
			t.Errorf("register %v should be valid", r)
		}
	}
	if Reg(16).Valid() || NoReg.Valid() {
		t.Error("out-of-range registers must be invalid")
	}
}

func TestOpNamesComplete(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		if opNames[o] == "" {
			t.Errorf("opcode %d has no name", uint8(o))
		}
	}
	if Op(200).Valid() {
		t.Error("Op(200) must be invalid")
	}
}

func TestSysNamesComplete(t *testing.T) {
	for s := Sys(0); s < numSys; s++ {
		if sysNames[s] == "" {
			t.Errorf("syscall %d has no name", uint16(s))
		}
	}
}

func TestEffectiveAddress(t *testing.T) {
	regs := map[Reg]uint64{R1: 0x1000, R2: 3}
	rd := func(r Reg) uint64 { return regs[r] }
	cases := []struct {
		name string
		in   Inst
		pc   uint64
		want uint64
	}{
		{"base", Inst{Op: LOAD, Mode: ModeBase, Base: R1, Disp: 8}, 0, 0x1008},
		{"base-neg", Inst{Op: LOAD, Mode: ModeBase, Base: R1, Disp: -16}, 0, 0xFF0},
		{"base-index", Inst{Op: STORE, Mode: ModeBaseIndex, Base: R1, Index: R2, Scale: 8, Disp: 4}, 0, 0x1000 + 24 + 4},
		{"pcrel", Inst{Op: LOAD, Mode: ModePCRel, Disp: 0x100}, CodeBase, CodeBase + InstSize + 0x100},
		{"abs", Inst{Op: LOAD, Mode: ModeAbs, Disp: 0x600010}, 0, 0x600010},
	}
	for _, c := range cases {
		if got := c.in.EffectiveAddress(rd, c.pc); got != c.want {
			t.Errorf("%s: EffectiveAddress = %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestAddrRegs(t *testing.T) {
	i := Inst{Op: LOAD, Mode: ModeBaseIndex, Base: R3, Index: R4, Scale: 4}
	got := i.AddrRegs()
	if len(got) != 2 || got[0] != R3 || got[1] != R4 {
		t.Errorf("AddrRegs = %v, want [r3 r4]", got)
	}
	if n := len((&Inst{Op: LOAD, Mode: ModePCRel}).AddrRegs()); n != 0 {
		t.Errorf("PC-relative operand must use no registers, got %d", n)
	}
	if n := len((&Inst{Op: ADD, Rd: R0, Rs: R1}).AddrRegs()); n != 0 {
		t.Errorf("non-memory instruction must have no address registers, got %d", n)
	}
}

func TestUsesDefs(t *testing.T) {
	cases := []struct {
		in   Inst
		uses []Reg
		defs []Reg
	}{
		{Inst{Op: MOVI, Rd: R1, Imm: 5}, nil, []Reg{R1}},
		{Inst{Op: MOV, Rd: R1, Rs: R2}, []Reg{R2}, []Reg{R1}},
		{Inst{Op: LOAD, Rd: R1, Mode: ModeBase, Base: R2}, []Reg{R2}, []Reg{R1}},
		{Inst{Op: STORE, Rs: R1, Mode: ModeBaseIndex, Base: R2, Index: R3, Scale: 1}, []Reg{R1, R2, R3}, nil},
		{Inst{Op: ADD, Rd: R1, Rs: R2}, []Reg{R1, R2}, []Reg{R1}},
		{Inst{Op: ADDI, Rd: R1, Imm: 3}, []Reg{R1}, []Reg{R1}},
		{Inst{Op: CMP, Rd: R1, Rs: R2}, []Reg{R1, R2}, nil},
		{Inst{Op: JMPR, Rs: R5}, []Reg{R5}, nil},
		{Inst{Op: RET}, nil, nil},
	}
	for _, c := range cases {
		if got := c.in.Uses(); !regSetEqual(got, c.uses) {
			t.Errorf("%v: Uses = %v, want %v", c.in, got, c.uses)
		}
		if got := c.in.Defs(); !regSetEqual(got, c.defs) {
			t.Errorf("%v: Defs = %v, want %v", c.in, got, c.defs)
		}
	}
}

func regSetEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[Reg]int{}
	for _, r := range a {
		m[r]++
	}
	for _, r := range b {
		m[r]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestCompareAndBranchTaken(t *testing.T) {
	f := Compare(3, 5)
	if !f.LT || f.EQ {
		t.Fatalf("Compare(3,5) = %+v", f)
	}
	f2 := Compare(7, 7)
	if !f2.EQ || f2.LT {
		t.Fatalf("Compare(7,7) = %+v", f2)
	}
	// Signed comparison.
	fneg := Compare(^uint64(0), 1) // -1 < 1
	if !fneg.LT {
		t.Fatalf("Compare(-1,1) must be LT, got %+v", fneg)
	}
	cases := []struct {
		op    Op
		f     Flags
		taken bool
	}{
		{JEQ, Flags{EQ: true}, true},
		{JEQ, Flags{}, false},
		{JNE, Flags{}, true},
		{JLT, Flags{LT: true}, true},
		{JLE, Flags{EQ: true}, true},
		{JLE, Flags{}, false},
		{JGT, Flags{}, true},
		{JGT, Flags{EQ: true}, false},
		{JGE, Flags{LT: true}, false},
		{JGE, Flags{EQ: true}, true},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.f); got != c.taken {
			t.Errorf("BranchTaken(%v, %+v) = %v, want %v", c.op, c.f, got, c.taken)
		}
	}
}

func TestBranchTakenPanicsOnNonConditional(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BranchTaken(JMP, ...) must panic")
		}
	}()
	BranchTaken(JMP, Flags{})
}

func TestALU(t *testing.T) {
	cases := []struct {
		in       Inst
		dst, src uint64
		want     uint64
	}{
		{Inst{Op: ADD}, 2, 3, 5},
		{Inst{Op: SUB}, 2, 3, ^uint64(0)},
		{Inst{Op: MUL}, 4, 3, 12},
		{Inst{Op: AND}, 0b1100, 0b1010, 0b1000},
		{Inst{Op: OR}, 0b1100, 0b1010, 0b1110},
		{Inst{Op: XOR}, 0b1100, 0b1010, 0b0110},
		{Inst{Op: SHL}, 1, 4, 16},
		{Inst{Op: SHR}, 16, 4, 1},
		{Inst{Op: SHL}, 1, 64, 1}, // shift counts are mod 64
		{Inst{Op: ADDI, Imm: 7}, 10, 999, 17},
		{Inst{Op: SUBI, Imm: 7}, 10, 999, 3},
		{Inst{Op: XORI, Imm: 0xFF}, 0x0F, 999, 0xF0},
	}
	for _, c := range cases {
		got, ok := c.in.ALU(c.dst, c.src)
		if !ok || got != c.want {
			t.Errorf("%v.ALU(%d,%d) = %d,%v want %d", c.in, c.dst, c.src, got, ok, c.want)
		}
	}
	if _, ok := (&Inst{Op: MOV}).ALU(1, 2); ok {
		t.Error("MOV must not be an ALU op")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: ADDI, Rd: R0, Imm: 42},
		{Op: SUBI, Rd: R0, Imm: -9},
		{Op: XORI, Rd: R0, Imm: 0x5A5A},
	}
	rng := rand.New(rand.NewSource(1))
	for _, in := range insts {
		if !in.Invertible() {
			t.Fatalf("%v must be invertible", in)
		}
		for k := 0; k < 100; k++ {
			pre := rng.Uint64()
			post, ok := in.ALU(pre, 0)
			if !ok {
				t.Fatalf("%v: ALU failed", in)
			}
			back, ok := in.Invert(post)
			if !ok || back != pre {
				t.Fatalf("%v: Invert(%d) = %d, want %d", in, post, back, pre)
			}
		}
	}
	if (&Inst{Op: MULI, Imm: 2}).Invertible() {
		t.Error("MULI must not be invertible (not a bijection for even factors)")
	}
	if _, ok := (&Inst{Op: ANDI}).Invert(0); ok {
		t.Error("Invert must fail on ANDI")
	}
}

func TestInvertRegPair(t *testing.T) {
	// ADD r1, r2:  post = pre + src.
	add := Inst{Op: ADD, Rd: R1, Rs: R2}
	pre, src := uint64(100), uint64(42)
	post := pre + src
	if got, ok := add.InvertRegPair(post, src, true); !ok || got != pre {
		t.Errorf("ADD recover pre: got %d,%v want %d", got, ok, pre)
	}
	if got, ok := add.InvertRegPair(post, pre, false); !ok || got != src {
		t.Errorf("ADD recover src: got %d,%v want %d", got, ok, src)
	}
	// SUB r1, r2: post = pre - src.
	sub := Inst{Op: SUB, Rd: R1, Rs: R2}
	post = pre - src
	if got, ok := sub.InvertRegPair(post, src, true); !ok || got != pre {
		t.Errorf("SUB recover pre: got %d,%v want %d", got, ok, pre)
	}
	if got, ok := sub.InvertRegPair(post, pre, false); !ok || got != src {
		t.Errorf("SUB recover src: got %d,%v want %d", got, ok, src)
	}
	if _, ok := (&Inst{Op: MUL}).InvertRegPair(0, 0, true); ok {
		t.Error("InvertRegPair must fail on MUL")
	}
}

func TestClassifiers(t *testing.T) {
	if !(&Inst{Op: LOAD, Mode: ModeBase, Base: R0}).IsMemAccess() {
		t.Error("LOAD must be a memory access")
	}
	if !(&Inst{Op: STORE, Mode: ModeAbs}).IsStore() {
		t.Error("STORE must be a store")
	}
	if (&Inst{Op: LEA, Mode: ModeBase, Base: R0}).IsMemAccess() {
		t.Error("LEA must not be a memory access")
	}
	if !(&Inst{Op: LEA, Mode: ModeBase, Base: R0}).HasMemOperand() {
		t.Error("LEA must have a memory operand")
	}
	if !(&Inst{Op: JEQ}).IsCondBranch() || (&Inst{Op: JMP}).IsCondBranch() {
		t.Error("conditional-branch classification wrong")
	}
	if !(&Inst{Op: RET}).IsIndirectBranch() || (&Inst{Op: CALL}).IsIndirectBranch() {
		t.Error("indirect-branch classification wrong")
	}
	if (&Inst{Op: JMP}).FallThrough() || !(&Inst{Op: JEQ}).FallThrough() {
		t.Error("fall-through classification wrong")
	}
	if (&Inst{Op: SYSCALL, Sys: SysExit}).FallThrough() {
		t.Error("exit must not fall through")
	}
	if !(&Inst{Op: SYSCALL, Sys: SysLock}).FallThrough() {
		t.Error("lock must fall through")
	}
	if !(&Inst{Op: HALT}).EndsBlock() || (&Inst{Op: ADD}).EndsBlock() {
		t.Error("block-end classification wrong")
	}
}

// randomInst produces a valid random instruction for property tests.
func randomInst(rng *rand.Rand) Inst {
	for {
		i := Inst{
			Op:    Op(rng.Intn(int(numOps))),
			Rd:    Reg(rng.Intn(NumRegs)),
			Rs:    Reg(rng.Intn(NumRegs)),
			Base:  Reg(rng.Intn(NumRegs)),
			Index: Reg(rng.Intn(NumRegs)),
			Scale: []uint8{1, 2, 4, 8}[rng.Intn(4)],
			Disp:  rng.Int63n(1<<32) - 1<<31,
			Imm:   rng.Int63n(1<<32) - 1<<31,
		}
		switch i.Op {
		case LOAD, STORE, LEA:
			i.Mode = Mode(1 + rng.Intn(int(numModes)-1))
		case SYSCALL:
			i.Sys = Sys(rng.Intn(int(numSys)))
		}
		return i
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, InstSize)
	for k := 0; k < 5000; k++ {
		in := randomInst(rng)
		in.Encode(buf)
		out, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		// Normalize: non-memory instructions carry no meaningful operand
		// fields other than what Encode wrote, so compare directly.
		if out != in {
			t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, out)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	buf := make([]byte, InstSize)
	if _, err := Decode(buf[:5]); err == nil {
		t.Error("short buffer must fail")
	}
	buf[0] = byte(numOps) + 10
	if _, err := Decode(buf); err == nil {
		t.Error("invalid opcode must fail")
	}
	buf[0] = byte(LOAD)
	buf[6] = byte(numModes) + 1
	if _, err := Decode(buf); err == nil {
		t.Error("invalid mode must fail")
	}
	buf[6] = byte(ModeBaseIndex)
	buf[5] = 3 // invalid scale
	if _, err := Decode(buf); err == nil {
		t.Error("invalid scale must fail")
	}
	buf[0] = byte(SYSCALL)
	buf[5] = 1
	buf[6] = byte(ModeNone)
	binary := []byte{0xFF, 0xFF}
	copy(buf[8:], binary)
	if _, err := Decode(buf); err == nil {
		t.Error("invalid syscall must fail")
	}
}

func TestEncodeDecodeProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	insts := make([]Inst, 300)
	for k := range insts {
		insts[k] = randomInst(rng)
	}
	text := EncodeProgram(insts)
	if len(text) != len(insts)*int(InstSize) {
		t.Fatalf("text size %d", len(text))
	}
	back, err := DecodeProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	for k := range insts {
		if back[k] != insts[k] {
			t.Fatalf("instruction %d mismatch", k)
		}
	}
	if _, err := DecodeProgram(text[:len(text)-1]); err == nil {
		t.Error("truncated text must fail")
	}
}

func TestAddrIndexConversion(t *testing.T) {
	for _, idx := range []int{0, 1, 17, 100000} {
		addr := IndexToAddr(idx)
		back, ok := AddrToIndex(addr)
		if !ok || back != idx {
			t.Errorf("round trip idx %d -> %#x -> %d,%v", idx, addr, back, ok)
		}
	}
	if _, ok := AddrToIndex(CodeBase + 1); ok {
		t.Error("unaligned address must fail")
	}
	if _, ok := AddrToIndex(CodeBase - InstSize); ok {
		t.Error("address below CodeBase must fail")
	}
}

// Property: for every instruction, Defs ⊆ {Rd, R0} and address registers
// are always in Uses.
func TestQuickUsesContainAddrRegs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 2000; k++ {
		in := randomInst(rng)
		uses := map[Reg]bool{}
		for _, r := range in.Uses() {
			uses[r] = true
		}
		for _, r := range in.AddrRegs() {
			if !uses[r] {
				t.Fatalf("%v: address register %v missing from Uses %v", in, r, in.Uses())
			}
		}
	}
}

// Property (testing/quick): ADDI/SUBI/XORI invert exactly for all inputs.
func TestQuickInvertBijection(t *testing.T) {
	f := func(pre uint64, imm int64, which uint8) bool {
		ops := []Op{ADDI, SUBI, XORI}
		in := Inst{Op: ops[int(which)%3], Rd: R0, Imm: imm}
		post, ok := in.ALU(pre, 0)
		if !ok {
			return false
		}
		back, ok := in.Invert(post)
		return ok && back == pre
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): Compare is a total order discriminator.
func TestQuickCompare(t *testing.T) {
	f := func(a, b uint64) bool {
		fl := Compare(a, b)
		if a == b {
			return fl.EQ && !fl.LT
		}
		return !fl.EQ && fl.LT == (int64(a) < int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDisassembleStable(t *testing.T) {
	insts := []Inst{
		{Op: MOVI, Rd: R1, Imm: 42},
		{Op: LOAD, Rd: R2, Mode: ModePCRel, Disp: 0x100},
		{Op: STORE, Rs: R2, Mode: ModeBaseIndex, Base: R1, Index: R3, Scale: 8, Disp: -8},
		{Op: SYSCALL, Sys: SysLock},
		{Op: JEQ, Imm: int64(IndexToAddr(0))},
		{Op: HALT},
	}
	out := Disassemble(insts)
	for _, want := range []string{"movi r1, 42", "load r2, 256(pc)", "store -8(r1,r3,8), r2", "syscall lock", "jeq 0x400000", "halt"} {
		if !contains(out, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, out)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}
