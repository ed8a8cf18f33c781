package replay

import (
	"math/rand"
	"testing"

	"prorace/internal/isa"
	"prorace/internal/prog"
)

// TestOpsMatchISA holds the op table to the isa methods it is built from,
// over every opcode × addressing mode with distinct and aliased registers
// (Rd == Rs, Base == Index), every scale, and PC-relative operands at
// several text indices: the need mask is AppendAddrRegs, the address is
// EffectiveAddress under random register files, the defined register is
// AppendDefs, and arithmetic results are Inst.ALU's.
func TestOpsMatchISA(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type regs struct{ rd, rs, base, index isa.Reg }
	regSets := []regs{
		{isa.R1, isa.R2, isa.R3, isa.R4},    // all distinct
		{isa.R5, isa.R5, isa.R6, isa.R7},    // Rd == Rs
		{isa.R8, isa.R9, isa.R10, isa.R10},  // Base == Index
		{isa.R11, isa.R12, isa.R11, isa.R0}, // Rd == Base
		{isa.R15, isa.R15, isa.R15, isa.R15},
	}
	var checked, arith int
	for opc := isa.Op(0); opc.Valid(); opc++ {
		for mode := isa.Mode(0); mode.Valid(); mode++ {
			for _, rs := range regSets {
				for _, scale := range []uint8{1, 2, 4, 8} {
					for _, idx := range []int{0, 1, 77, 4093} {
						in := isa.Inst{Op: opc, Rd: rs.rd, Rs: rs.rs, Base: rs.base, Index: rs.index,
							Scale: scale, Mode: mode, Disp: rng.Int63n(1<<20) - 1<<19, Imm: rng.Int63() - 1<<62}
						pc := isa.IndexToAddr(idx)
						o := compileOp(&in, pc)
						checkOp(t, &in, &o, pc, rng)
						checked++
						if o.kind == opALU || o.kind == opALUImm {
							arith++
						}
					}
				}
			}
		}
	}
	if arith == 0 {
		t.Fatal("no arithmetic op was checked")
	}
	t.Logf("%d ops checked", checked)

	// A register field that names no register, in a slot the instruction
	// reads or writes, compiles to opBad; NewEngine does not panic on it.
	bad := []isa.Inst{
		{Op: isa.MOVI, Rd: 16},
		{Op: isa.MOV, Rd: isa.R1, Rs: isa.NoReg},
		{Op: isa.ADD, Rd: isa.R1, Rs: 40},
		{Op: isa.LOAD, Rd: isa.R1, Mode: isa.ModeBase, Base: 16},
		{Op: isa.STORE, Rs: isa.R1, Mode: isa.ModeBaseIndex, Base: isa.R2, Index: 200, Scale: 1},
		{Op: isa.LEA, Rd: 99, Mode: isa.ModePCRel},
	}
	e := NewEngine(&prog.Program{Insts: bad}, Config{})
	for k := range bad {
		if e.ops[k].kind != opBad {
			t.Errorf("%v: kind %d, want opBad", bad[k], e.ops[k].kind)
		}
	}
	// A field the instruction does not use is not checked.
	if o := compileOp(&isa.Inst{Op: isa.MOVI, Rd: isa.R1, Rs: 77, Base: 90}, isa.CodeBase); o.kind != opMovi {
		t.Errorf("MOVI with unused malformed fields: kind %d, want opMovi", o.kind)
	}
}

// checkOp compares one compiled op with its instruction's isa semantics.
func checkOp(t *testing.T, in *isa.Inst, o *op, pc uint64, rng *rand.Rand) {
	t.Helper()
	var need uint16
	for _, r := range in.AddrRegs() {
		need |= 1 << r
	}
	if o.need != need {
		t.Fatalf("%v: need %016b, AppendAddrRegs %016b", *in, o.need, need)
	}
	wantDef := isa.NoReg
	if defs := in.Defs(); len(defs) > 0 {
		wantDef = defs[0]
	}
	if o.def != wantDef {
		t.Fatalf("%v: def %v, AppendDefs %v", *in, o.def, wantDef)
	}
	_, arith := in.ALU(0, 0)
	if arith != (o.kind == opALU || o.kind == opALUImm) {
		t.Fatalf("%v: kind %d, arithmetic %v", *in, o.kind, arith)
	}
	if o.isMem() != in.IsMemAccess() || (o.kind == opLea) != (in.Op == isa.LEA) {
		t.Fatalf("%v: kind %d", *in, o.kind)
	}
	for range 8 {
		var rf regFile
		for r := range rf.val {
			rf.val[r] = rng.Uint64()
		}
		rf.avail = uint16(rng.Uint32())
		if o.known(rf.avail) != addrKnown(in, rf.avail) {
			t.Fatalf("%v: known(%016b) = %v", *in, rf.avail, o.known(rf.avail))
		}
		if o.kind == opLoad || o.kind == opStore || o.kind == opLea {
			want := in.EffectiveAddress(func(r isa.Reg) uint64 { return rf.val[r] }, pc)
			if got := o.addr(&rf); got != want {
				t.Fatalf("%v at %#x: addr %#x, EffectiveAddress %#x", *in, pc, got, want)
			}
		}
		a, b := rf.val[in.Rd], rf.val[in.Rs]
		want, _ := in.ALU(a, b)
		switch o.kind {
		case opALU:
			if got, _ := isa.ALU(o.alu, a, b); got != want {
				t.Fatalf("%v: ALU(%#x, %#x) = %#x, Inst.ALU %#x", *in, a, b, got, want)
			}
		case opALUImm:
			if got, _ := isa.ALU(o.alu, a, o.imm); got != want {
				t.Fatalf("%v: ALU(%#x, imm) = %#x, Inst.ALU %#x", *in, a, got, want)
			}
		case opMovi:
			if o.imm != uint64(in.Imm) {
				t.Fatalf("%v: imm %#x", *in, o.imm)
			}
		}
	}
}
