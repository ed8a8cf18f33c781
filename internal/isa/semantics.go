package isa

// This file centralises the data-flow semantics of the ISA: which registers
// an instruction reads and writes, how its ALU result is computed, and which
// forms can be executed in reverse. The online interpreter
// (internal/machine) calls these functions directly. The offline replay
// engine (internal/replay) reads them through a per-program op table that it
// builds from them once per engine (AppendAddrRegs, AppendDefs,
// EffectiveAddress), and its arithmetic goes through the same ALU function
// as Inst.ALU, so the simulated "hardware" and the reconstruction can never
// drift apart — the same guarantee the paper gets from replaying the very
// binary that ran.

// Uses returns the registers the instruction reads. Memory-operand
// registers are included. Flags are not registers; see ReadsFlags.
func (i *Inst) Uses() []Reg {
	var u []Reg
	switch i.Op {
	case MOV:
		u = append(u, i.Rs)
	case LOAD, LEA:
		// address registers only (appended below)
	case STORE:
		u = append(u, i.Rs)
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR:
		u = append(u, i.Rd, i.Rs)
	case ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI:
		u = append(u, i.Rd)
	case CMP:
		u = append(u, i.Rd, i.Rs)
	case CMPI:
		u = append(u, i.Rd)
	case JMPR, CALLR:
		u = append(u, i.Rs)
	case SYSCALL:
		// Conservatively: syscalls read the argument registers.
		u = append(u, R0, R1, R2)
	}
	return i.AppendAddrRegs(u)
}

// Defs returns the registers the instruction writes.
func (i *Inst) Defs() []Reg { return i.AppendDefs(nil) }

// AppendDefs appends the registers the instruction writes to buf and
// returns it. The allocation-free form of Defs for hot loops.
func (i *Inst) AppendDefs(buf []Reg) []Reg {
	switch i.Op {
	case MOVI, MOV, LEA, LOAD:
		return append(buf, i.Rd)
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR,
		ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI:
		return append(buf, i.Rd)
	case SYSCALL:
		// Result register. Syscalls with no result still clobber R0.
		return append(buf, R0)
	}
	return buf
}

// WritesFlags reports whether the instruction updates the flags.
func (i *Inst) WritesFlags() bool { return i.Op == CMP || i.Op == CMPI }

// ReadsFlags reports whether the instruction's behaviour depends on flags.
func (i *Inst) ReadsFlags() bool { return i.IsCondBranch() }

// Flags is the thread condition state produced by CMP/CMPI, interpreted as
// the signed comparison of the two operands.
type Flags struct {
	EQ bool // operands equal
	LT bool // first operand signed-less-than second
}

// Compare computes Flags for operands a and b.
func Compare(a, b uint64) Flags {
	return Flags{EQ: a == b, LT: int64(a) < int64(b)}
}

// BranchTaken reports whether a conditional branch with opcode op is taken
// under flags f. It panics on a non-conditional opcode.
func BranchTaken(op Op, f Flags) bool {
	switch op {
	case JEQ:
		return f.EQ
	case JNE:
		return !f.EQ
	case JLT:
		return f.LT
	case JLE:
		return f.LT || f.EQ
	case JGT:
		return !f.LT && !f.EQ
	case JGE:
		return !f.LT
	}
	panic("isa: BranchTaken on non-conditional opcode " + op.String())
}

// ALU evaluates the arithmetic/logic result of the instruction given the
// current value of Rd (dst) and the second operand (src for register forms,
// ignored for immediate forms, which use Imm). ok is false for
// non-arithmetic opcodes.
func (i *Inst) ALU(dst, src uint64) (result uint64, ok bool) {
	if i.ALUImm() {
		src = uint64(i.Imm)
	}
	return ALU(i.Op, dst, src)
}

// ALUImm reports whether the instruction is an immediate-form arithmetic
// instruction (rd = rd OP imm), whose second ALU operand is Imm, not Rs.
func (i *Inst) ALUImm() bool {
	switch i.Op {
	case ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI:
		return true
	}
	return false
}

// ALU computes a OP b for the arithmetic/logic opcode op; the register and
// immediate forms of an operation compute the same function. ok is false
// for non-arithmetic opcodes. Inst.ALU and the replay engine both compute
// through it.
func ALU(op Op, a, b uint64) (result uint64, ok bool) {
	switch op {
	case ADD, ADDI:
		return a + b, true
	case SUB, SUBI:
		return a - b, true
	case MUL, MULI:
		return a * b, true
	case AND, ANDI:
		return a & b, true
	case OR, ORI:
		return a | b, true
	case XOR, XORI:
		return a ^ b, true
	case SHL, SHLI:
		return a << (b & 63), true
	case SHR, SHRI:
		return a >> (b & 63), true
	}
	return 0, false
}

// Invertible reports whether the instruction's effect on Rd can be undone
// given its output — the precondition for backward replay's reverse
// execution (paper §5.2.2). ADD/SUB with an immediate and XOR with an
// immediate are bijections of the destination; MOV establishes an equality
// between two registers (handled separately by the replay engine).
func (i *Inst) Invertible() bool {
	switch i.Op {
	case ADDI, SUBI, XORI:
		return true
	}
	return false
}

// Invert computes the pre-state of Rd from its post-state for an invertible
// instruction. ok is false if the instruction is not invertible.
func (i *Inst) Invert(post uint64) (pre uint64, ok bool) {
	switch i.Op {
	case ADDI:
		return post - uint64(i.Imm), true
	case SUBI:
		return post + uint64(i.Imm), true
	case XORI:
		return post ^ uint64(i.Imm), true
	}
	return 0, false
}

// InvertRegPair handles the two-register reverse-execution cases of §5.2.2:
// for ADD/SUB rd, rs, knowing the post-state of rd and the value of one
// operand recovers the other. know reports which operand is known:
// the surviving rs value ("src") or the pre-state of rd ("dst").
//
// For ADD: post = pre + src, so pre = post - src and src = post - pre.
// For SUB: post = pre - src, so pre = post + src and src = pre - post.
// ok is false for other opcodes.
func (i *Inst) InvertRegPair(post uint64, known uint64, knownIsSrc bool) (recovered uint64, ok bool) {
	switch i.Op {
	case ADD:
		if knownIsSrc {
			return post - known, true // recover pre-state of rd
		}
		return post - known, true // recover src
	case SUB:
		if knownIsSrc {
			return post + known, true // recover pre-state of rd
		}
		return known - post, true // recover src
	}
	return 0, false
}

// FallThrough reports whether control can reach the next sequential
// instruction after this one.
func (i *Inst) FallThrough() bool {
	switch i.Op {
	case JMP, JMPR, RET, HALT:
		return false
	case SYSCALL:
		return i.Sys != SysExit
	}
	return true
}

// EndsBlock reports whether the instruction terminates a basic block.
func (i *Inst) EndsBlock() bool {
	return i.IsBranch() || i.Op == HALT || (i.Op == SYSCALL && i.Sys == SysExit)
}
