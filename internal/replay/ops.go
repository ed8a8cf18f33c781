package replay

import (
	"fmt"

	"prorace/internal/isa"
)

// opKind is what replay does with an instruction.
type opKind uint8

const (
	// opNone changes no register replay tracks: NOP, CMP, CMPI, branches,
	// HALT.
	opNone opKind = iota
	opLoad
	opStore
	opLea
	opMovi
	opMov
	opALU    // rd = rd OP rs
	opALUImm // rd = rd OP imm
	opSyscall
	// opBad is an instruction with a register field that names no
	// register, in a slot it reads or writes. A walk that reaches it
	// panics (badOp), failing only the thread that executed it.
	opBad
)

// op is one instruction decoded for replay, once per engine, from the isa
// package's semantics (compileOp). A replay step reads its op instead of
// re-deriving the instruction's address registers, defined register and
// effective address.
//
// The effective address is val[r0]*c0 + val[r1]*c1 + disp once every
// register in need is available. An unused term has register 0 and
// coefficient 0, so a PC-relative or absolute operand's address is disp
// alone, precomputed.
type op struct {
	kind   opKind
	alu    isa.Op  // the opcode of opALU and opALUImm
	rd, rs isa.Reg // the instruction's Rd and Rs fields
	def    isa.Reg // the register it defines, isa.NoReg if none
	r0, r1 isa.Reg
	need   uint16 // address registers, one bit each
	c0, c1 uint64
	disp   uint64
	imm    uint64 // the value of opMovi, the second operand of opALUImm
}

// compileOps decodes every instruction of a program's text into its op,
// indexed like the text.
func compileOps(insts []isa.Inst) []op {
	ops := make([]op, len(insts))
	for k := range insts {
		ops[k] = compileOp(&insts[k], isa.IndexToAddr(k))
	}
	return ops
}

// compileOp decodes the instruction at pc. Every field comes from the isa
// functions: the address registers from AppendAddrRegs, the defined
// register from AppendDefs, and the address terms from EffectiveAddress,
// which is linear in the register values: the constant part is its value
// with every register zero, and a register's coefficient is what one unit
// in that register adds. Base == Index thus yields one term with
// coefficient 1+Scale.
func compileOp(in *isa.Inst, pc uint64) op {
	o := op{alu: in.Op, rd: in.Rd, rs: in.Rs, def: isa.NoReg}
	var regBuf [4]isa.Reg
	regs := in.AppendDefs(regBuf[:0]) // the registers the op reads or writes
	if len(regs) > 0 {
		o.def = regs[0] // every instruction defines at most one register
	}
	switch in.Op {
	case isa.LOAD:
		o.kind = opLoad
	case isa.STORE:
		o.kind = opStore
		regs = append(regs, in.Rs)
	case isa.LEA:
		o.kind = opLea
	case isa.MOVI:
		o.kind, o.imm = opMovi, uint64(in.Imm)
	case isa.MOV:
		o.kind = opMov
		regs = append(regs, in.Rs)
	case isa.SYSCALL:
		o.kind = opSyscall
	default:
		if _, arith := in.ALU(0, 0); arith {
			if in.ALUImm() {
				o.kind, o.imm = opALUImm, uint64(in.Imm)
			} else {
				o.kind = opALU
				regs = append(regs, in.Rs)
			}
		}
	}
	n := len(regs)
	regs = in.AppendAddrRegs(regs)
	for _, r := range regs {
		if !r.Valid() {
			return op{kind: opBad}
		}
	}
	addrRegs := regs[n:]
	o.disp = in.EffectiveAddress(func(isa.Reg) uint64 { return 0 }, pc)
	for k, r := range addrRegs {
		if k > 0 && r == addrRegs[0] {
			break // Base == Index: one term
		}
		c := in.EffectiveAddress(func(q isa.Reg) uint64 {
			if q == r {
				return 1
			}
			return 0
		}, pc) - o.disp
		o.need |= 1 << r
		if k == 0 {
			o.r0, o.c0 = r, c
		} else {
			o.r1, o.c1 = r, c
		}
	}
	return o
}

// known reports whether every address register is in avail.
func (o *op) known(avail uint16) bool { return avail&o.need == o.need }

// addr is the effective address under rf; it requires known(rf.avail).
func (o *op) addr(rf *regFile) uint64 {
	return rf.val[o.r0]*o.c0 + rf.val[o.r1]*o.c1 + o.disp
}

// isMem reports whether the op reads or writes memory.
func (o *op) isMem() bool { return o.kind == opLoad || o.kind == opStore }

// badOp fails the reconstruction of the thread that reached the malformed
// instruction at text index idx.
func (e *Engine) badOp(idx int) {
	panic(fmt.Sprintf("replay: malformed register field in %v at %#x", e.p.Insts[idx], isa.IndexToAddr(idx)))
}
