package machine

import (
	"prorace/internal/isa"
)

// step retires one instruction of the thread on core ci, delivers tracer
// events, and applies quantum-based preemption.
//
// This is the simulator's per-instruction path, so it allocates nothing
// and copies no instruction: it reads the instruction in place from the
// program text and fills the machine's one InstEvent field by field.
func (m *Machine) step(ci int) {
	c := &m.cores[ci]
	t := m.threads[c.tid]
	idx, ok := isa.AddrToIndex(t.PC)
	if !ok || idx >= len(m.prog.Insts) {
		// Running off the text segment kills the thread, like a SIGSEGV on
		// a wild jump.
		m.exitThread(ci, ^uint64(0))
		return
	}
	in := &m.prog.Insts[idx]

	ev := &m.ev
	ev.TID, ev.Core, ev.PC, ev.Inst, ev.TSC, ev.Regs = t.ID, ci, t.PC, in, m.cycle, &t.Regs
	ev.MemAddr, ev.IsMem, ev.IsStore, ev.Taken, ev.Target = 0, false, false, false, 0
	nextPC := t.PC + isa.InstSize
	memAddr := uint64(0)
	if in.HasMemOperand() {
		memAddr = in.EffectiveAddress(func(r isa.Reg) uint64 { return t.Regs[r] }, t.PC)
	}

	switch in.Op {
	case isa.NOP:
	case isa.MOVI:
		t.Regs[in.Rd] = uint64(in.Imm)
	case isa.MOV:
		t.Regs[in.Rd] = t.Regs[in.Rs]
	case isa.LEA:
		t.Regs[in.Rd] = memAddr
	case isa.LOAD:
		t.Regs[in.Rd] = m.Mem.Load8(memAddr)
		ev.IsMem, ev.MemAddr = true, memAddr
		t.memOps++
	case isa.STORE:
		m.Mem.Store8(memAddr, t.Regs[in.Rs])
		ev.IsMem, ev.IsStore, ev.MemAddr = true, true, memAddr
		t.memOps++
	case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
		t.Regs[in.Rd], _ = in.ALU(t.Regs[in.Rd], t.Regs[in.Rs])
	case isa.CMP:
		t.Flags = isa.Compare(t.Regs[in.Rd], t.Regs[in.Rs])
	case isa.CMPI:
		t.Flags = isa.Compare(t.Regs[in.Rd], uint64(in.Imm))
	case isa.JMP:
		nextPC = uint64(in.Imm)
		ev.Target = nextPC
	case isa.JEQ, isa.JNE, isa.JLT, isa.JLE, isa.JGT, isa.JGE:
		if isa.BranchTaken(in.Op, t.Flags) {
			nextPC = uint64(in.Imm)
			ev.Taken, ev.Target = true, nextPC
		}
	case isa.JMPR:
		nextPC = t.Regs[in.Rs]
		ev.Target = nextPC
	case isa.CALL:
		t.callStack = append(t.callStack, nextPC)
		nextPC = uint64(in.Imm)
		ev.Target = nextPC
	case isa.CALLR:
		t.callStack = append(t.callStack, nextPC)
		nextPC = t.Regs[in.Rs]
		ev.Target = nextPC
	case isa.RET:
		if n := len(t.callStack); n > 0 {
			nextPC = t.callStack[n-1]
			t.callStack = t.callStack[:n-1]
			ev.Target = nextPC
		} else {
			// Returning from the outermost frame ends the thread.
			t.retired++
			m.deliverInst(ci, ev)
			m.exitThread(ci, t.Regs[isa.R0])
			return
		}
	case isa.SYSCALL:
		t.retired++
		m.deliverInst(ci, ev)
		m.doSyscall(ci, in.Sys)
		return
	case isa.HALT:
		t.retired++
		m.deliverInst(ci, ev)
		m.exitThread(ci, t.Regs[isa.R0])
		return
	}

	t.PC = nextPC
	t.retired++
	m.deliverInst(ci, ev)

	// Quantum accounting and preemption.
	c.quantum--
	if c.quantum <= 0 && len(m.runq) > 0 {
		m.preempt(ci)
	}
}

// deliverInst hands the event to the tracer and charges the returned stall
// to the core.
func (m *Machine) deliverInst(ci int, ev *InstEvent) {
	if stall := m.cfg.Tracer.InstRetired(ev); stall > 0 {
		m.stallCore(ci, stall)
	}
}

func (m *Machine) stallCore(ci int, cycles uint64) {
	until := m.cycle + 1 + cycles
	if until > m.cores[ci].stallUntil {
		m.cores[ci].stallUntil = until
	}
}
