// Package isa defines the instruction set architecture of the simulated
// machine that stands in for x86-64 in this reproduction of ProRace
// (ASPLOS 2017).
//
// The ISA is a small 64-bit load/store architecture with x86-flavoured
// memory addressing. It deliberately preserves the properties ProRace's
// offline replay engine depends on:
//
//   - base+index*scale+disp and PC-relative addressing modes, so the three
//     racy-access categories of the paper's Table 2 (memory indirect,
//     register indirect, PC relative) are expressible;
//   - a general-purpose register file whose full contents a PEBS sample
//     snapshots, so forward replay can restore architectural state;
//   - invertible arithmetic (ADD/SUB with an immediate, register moves),
//     so backward replay's reverse execution has something to invert.
//
// Instructions are fixed width (see encode.go) and addressed from
// CodeBase upward, one InstSize per instruction.
package isa

import "fmt"

// Reg names a general-purpose register. The machine has 16 of them,
// R0..R15. By convention R15 is the stack pointer and R0..R5 carry
// syscall and call arguments, but nothing in the ISA enforces this.
type Reg uint8

// General-purpose registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the size of the register file.
	NumRegs = 16

	// SP is the conventional stack pointer.
	SP = R15
)

// NoReg marks an unused register slot in an instruction.
const NoReg Reg = 0xFF

// Valid reports whether r names one of the 16 architectural registers.
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembler name of the register ("r0".."r15", "sp").
func (r Reg) String() string {
	switch {
	case r == SP:
		return "sp"
	case r == NoReg:
		return "-"
	case r.Valid():
		return fmt.Sprintf("r%d", uint8(r))
	default:
		return fmt.Sprintf("r?%d", uint8(r))
	}
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. The arithmetic group comes in register (rd = rd OP rs) and
// immediate (rd = rd OP imm) forms; the immediate forms of ADD and SUB are
// the reverse-executable ones ProRace's backward replay exploits.
const (
	NOP Op = iota

	// Data movement.
	MOVI // rd = imm
	MOV  // rd = rs
	LEA  // rd = effective address of memory operand

	// Memory access. The memory operand is described by Mode/Base/Index/
	// Scale/Disp. LOAD reads into rd; STORE writes rs.
	LOAD
	STORE

	// Arithmetic and logic, register forms: rd = rd OP rs.
	ADD
	SUB
	MUL
	AND
	OR
	XOR
	SHL
	SHR

	// Arithmetic and logic, immediate forms: rd = rd OP imm.
	ADDI
	SUBI
	MULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI

	// Comparison: sets the thread's flags from (rs1 - rs2) or (rs1 - imm).
	// In instruction encoding rs1 is the Rd slot and rs2 the Rs slot.
	CMP
	CMPI

	// Control flow. Direct targets are absolute instruction addresses
	// stored in Imm; JMPR/CALLR jump through a register (Rs).
	JMP
	JEQ
	JNE
	JLT
	JLE
	JGT
	JGE
	JMPR
	CALL
	CALLR
	RET

	// SYSCALL invokes the machine service named by the Sys field.
	SYSCALL

	// HALT stops the executing thread.
	HALT

	numOps
)

var opNames = [...]string{
	NOP: "nop", MOVI: "movi", MOV: "mov", LEA: "lea",
	LOAD: "load", STORE: "store",
	ADD: "add", SUB: "sub", MUL: "mul", AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", SUBI: "subi", MULI: "muli", ANDI: "andi", ORI: "ori", XORI: "xori", SHLI: "shli", SHRI: "shri",
	CMP: "cmp", CMPI: "cmpi",
	JMP: "jmp", JEQ: "jeq", JNE: "jne", JLT: "jlt", JLE: "jle", JGT: "jgt", JGE: "jge",
	JMPR: "jmpr", CALL: "call", CALLR: "callr", RET: "ret",
	SYSCALL: "syscall", HALT: "halt",
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// String returns the assembler mnemonic.
func (o Op) String() string {
	if o.Valid() {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Mode selects how a LOAD/STORE/LEA computes its effective address.
type Mode uint8

const (
	// ModeNone marks instructions without a memory operand.
	ModeNone Mode = iota
	// ModeBase addresses [Base + Disp].
	ModeBase
	// ModeBaseIndex addresses [Base + Index*Scale + Disp].
	ModeBaseIndex
	// ModePCRel addresses [PC + Disp], PC being the address of the *next*
	// instruction (as on x86-64 RIP-relative addressing). The program
	// counter is always known during replay, so PC-relative accesses are
	// always reconstructible — the property behind the 100% detection
	// rows of the paper's Table 2.
	ModePCRel
	// ModeAbs addresses the absolute location Disp.
	ModeAbs

	numModes
)

// Valid reports whether m is a defined addressing mode.
func (m Mode) Valid() bool { return m < numModes }

// String names the addressing mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeBase:
		return "base"
	case ModeBaseIndex:
		return "base+index"
	case ModePCRel:
		return "pcrel"
	case ModeAbs:
		return "abs"
	default:
		return fmt.Sprintf("mode?%d", uint8(m))
	}
}

// Sys identifies a machine service invoked by SYSCALL. Arguments are passed
// in R0..R2 and results returned in R0, mirroring a conventional ABI.
type Sys uint16

const (
	// SysExit terminates the calling thread. R0 carries the exit code.
	SysExit Sys = iota
	// SysThreadCreate starts a new thread at the function whose address is
	// in R0, with R1 as its argument (delivered in the child's R0).
	// Returns the new thread ID in R0.
	SysThreadCreate
	// SysThreadJoin blocks until the thread whose ID is in R0 exits.
	SysThreadJoin
	// SysLock acquires the mutex at the address in R0 (blocking).
	SysLock
	// SysUnlock releases the mutex at the address in R0.
	SysUnlock
	// SysCondWait atomically releases the mutex in R1 and waits on the
	// condition variable at the address in R0, reacquiring on wake.
	SysCondWait
	// SysCondSignal wakes one waiter of the condition variable in R0.
	SysCondSignal
	// SysCondBroadcast wakes all waiters of the condition variable in R0.
	SysCondBroadcast
	// SysBarrier waits at the barrier in R0 until R1 threads arrive.
	SysBarrier
	// SysMalloc allocates R0 bytes; returns the address in R0.
	SysMalloc
	// SysFree releases the allocation at the address in R0.
	SysFree
	// SysNetIO performs network I/O of R0 bytes. The calling thread blocks
	// for the machine's network latency; the core is free meanwhile. This
	// is what lets tracing overhead hide under network-bound workloads
	// (paper §7.2, Figure 7).
	SysNetIO
	// SysFileIO performs file I/O of R0 bytes, consuming shared file
	// bandwidth. Trace writes consume the same bandwidth, so file-I/O
	// heavy workloads cannot hide tracing overhead.
	SysFileIO
	// SysLog appends R1 bytes from the address in R0 to the application
	// log. Used by the "corrupted log" bug workloads.
	SysLog
	// SysYield gives up the core for one scheduling quantum.
	SysYield
	// SysTSC returns the invariant timestamp counter in R0.
	SysTSC
	// SysRand returns a deterministic pseudo-random 64-bit value in R0
	// drawn from the machine's seeded stream.
	SysRand

	// SysCondWake and SysBarrierWake are machine-internal notification
	// events: the machine delivers them to the tracer when a blocked
	// condition or barrier waiter resumes, the moment the user-level
	// pthread call returns. Programs do not invoke them; they exist so
	// the synchronization trace carries the waker → waiter edge.
	SysCondWake
	SysBarrierWake

	numSys
)

var sysNames = [...]string{
	SysExit: "exit", SysThreadCreate: "thread_create", SysThreadJoin: "thread_join",
	SysLock: "lock", SysUnlock: "unlock",
	SysCondWait: "cond_wait", SysCondSignal: "cond_signal", SysCondBroadcast: "cond_broadcast",
	SysBarrier: "barrier",
	SysMalloc:  "malloc", SysFree: "free",
	SysNetIO: "net_io", SysFileIO: "file_io", SysLog: "log",
	SysYield: "yield", SysTSC: "tsc", SysRand: "rand",
	SysCondWake: "cond_wake", SysBarrierWake: "barrier_wake",
}

// Valid reports whether s is a defined syscall.
func (s Sys) Valid() bool { return s < numSys }

// String names the syscall.
func (s Sys) String() string {
	if s.Valid() {
		return sysNames[s]
	}
	return fmt.Sprintf("sys?%d", uint16(s))
}

// Memory layout constants.
const (
	// CodeBase is the address of the first instruction of a program.
	CodeBase uint64 = 0x0040_0000
	// InstSize is the size of one encoded instruction in bytes; instruction
	// addresses are CodeBase + index*InstSize.
	InstSize uint64 = 32
	// DataBase is the address of the first byte of the static data segment
	// (globals). PC-relative operands typically land here.
	DataBase uint64 = 0x0060_0000
	// HeapBase is where SysMalloc starts handing out memory.
	HeapBase uint64 = 0x1000_0000
	// StackTop is the initial stack pointer of thread 0; each subsequent
	// thread's stack is placed StackStride below the previous one.
	StackTop uint64 = 0x7FFF_0000
	// StackStride separates per-thread stacks.
	StackStride uint64 = 0x10_0000
)

// Inst is one decoded instruction. The zero value is a NOP.
type Inst struct {
	Op    Op
	Rd    Reg   // destination (or first comparand for CMP)
	Rs    Reg   // source (store value, second comparand, indirect target)
	Base  Reg   // memory operand base register
	Index Reg   // memory operand index register
	Scale uint8 // memory operand scale (1, 2, 4 or 8)
	Mode  Mode  // memory operand addressing mode
	Sys   Sys   // service for SYSCALL
	Disp  int64 // memory operand displacement
	Imm   int64 // immediate / absolute branch target
}

// HasMemOperand reports whether the instruction addresses memory.
func (i *Inst) HasMemOperand() bool {
	return (i.Op == LOAD || i.Op == STORE || i.Op == LEA) && i.Mode != ModeNone
}

// IsLoad reports whether the instruction is a memory read. LEA computes an
// address but does not touch memory, so it is not a load.
func (i *Inst) IsLoad() bool { return i.Op == LOAD }

// IsStore reports whether the instruction is a memory write.
func (i *Inst) IsStore() bool { return i.Op == STORE }

// IsMemAccess reports whether the instruction reads or writes memory.
// These are the "retired load and store" events PEBS samples.
func (i *Inst) IsMemAccess() bool { return i.Op == LOAD || i.Op == STORE }

// IsBranch reports whether the instruction can redirect control flow.
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case JMP, JEQ, JNE, JLT, JLE, JGT, JGE, JMPR, CALL, CALLR, RET:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch,
// i.e. one PT records as a TNT (taken/not-taken) bit.
func (i *Inst) IsCondBranch() bool {
	switch i.Op {
	case JEQ, JNE, JLT, JLE, JGT, JGE:
		return true
	}
	return false
}

// IsIndirectBranch reports whether the branch target comes from a register
// or the stack, i.e. one PT must record as a TIP (target IP) packet.
func (i *Inst) IsIndirectBranch() bool {
	switch i.Op {
	case JMPR, CALLR, RET:
		return true
	}
	return false
}

// EffectiveAddress computes the memory operand address given the register
// read function and the address of the instruction itself. It is shared by
// the machine interpreter and the offline replay engine so the two can
// never disagree.
func (i *Inst) EffectiveAddress(reg func(Reg) uint64, pc uint64) uint64 {
	switch i.Mode {
	case ModeBase:
		return reg(i.Base) + uint64(i.Disp)
	case ModeBaseIndex:
		return reg(i.Base) + reg(i.Index)*uint64(i.Scale) + uint64(i.Disp)
	case ModePCRel:
		return pc + InstSize + uint64(i.Disp)
	case ModeAbs:
		return uint64(i.Disp)
	default:
		return 0
	}
}

// AddrRegs returns the registers that participate in the effective-address
// computation. PC-relative and absolute operands need none — the property
// that makes them always reconstructible offline.
func (i *Inst) AddrRegs() []Reg { return i.AppendAddrRegs(nil) }

// AppendAddrRegs appends the address registers to buf and returns it.
// With a caller-provided buffer of capacity ≥ 2 it does not allocate,
// which matters in the replay inner loops that query every instruction.
func (i *Inst) AppendAddrRegs(buf []Reg) []Reg {
	if !i.HasMemOperand() {
		return buf
	}
	switch i.Mode {
	case ModeBase:
		return append(buf, i.Base)
	case ModeBaseIndex:
		return append(buf, i.Base, i.Index)
	default:
		return buf
	}
}
