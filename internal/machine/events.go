package machine

import (
	"prorace/internal/isa"
)

// TID identifies a thread of the simulated machine. Thread 0 is the main
// thread.
type TID int32

// InstEvent describes one retired instruction, delivered to the attached
// Tracer. This is the observation point the simulated PMU (PEBS and PT)
// hangs off: PEBS counts the events with IsMem set, PT consumes the branch
// fields.
//
// The machine owns the event and refills it for every instruction, so the
// pointer a Tracer receives (like the Regs and Inst it points at) is valid
// only during the callback. A tracer copies whatever it keeps.
type InstEvent struct {
	TID  TID
	Core int
	// PC is the address of the retired instruction.
	PC uint64
	// Inst points at the decoded instruction in the program's text; it
	// must not be modified.
	Inst *isa.Inst
	// TSC is the invariant timestamp counter at retirement.
	TSC uint64
	// MemAddr is the effective address for loads and stores.
	MemAddr uint64
	// IsMem/IsStore classify memory events.
	IsMem   bool
	IsStore bool
	// Taken is set for conditional branches that were taken.
	Taken bool
	// Target is the destination of a taken branch (conditional taken,
	// unconditional, indirect, call or return).
	Target uint64
	// Regs points at the thread's live register file. A tracer that wants
	// a snapshot (as PEBS hardware takes one) must copy it; the array is
	// overwritten by subsequent execution.
	Regs *[isa.NumRegs]uint64
}

// SyscallEvent describes a completed machine service call, delivered to the
// Tracer. The synchronization tracer (the simulation's LD_PRELOAD shim)
// records the lock/unlock/thread/malloc events from this stream.
type SyscallEvent struct {
	TID  TID
	Core int
	PC   uint64
	TSC  uint64
	Sys  isa.Sys
	// Arg0..Arg2 are the R0..R2 argument values at entry.
	Arg0, Arg1, Arg2 uint64
	// Ret is the R0 result value (e.g. the address returned by malloc, the
	// TID returned by thread_create).
	Ret uint64
}

// Tracer observes the execution. The uint64 each callback returns is the
// number of extra cycles tracing steals from the executing core — the
// mechanism by which PMU driver costs turn into measurable runtime
// overhead, reproducing the paper's Figures 6, 7 and 10. Event pointers
// passed to a Tracer are valid only for the duration of the call.
type Tracer interface {
	// InstRetired is called after every retired instruction.
	InstRetired(ev *InstEvent) (stallCycles uint64)
	// SyscallRetired is called after every completed syscall.
	SyscallRetired(ev *SyscallEvent) (stallCycles uint64)
	// ThreadStarted is called when a thread begins execution.
	ThreadStarted(tid TID, tsc uint64)
	// ThreadExited is called when a thread terminates.
	ThreadExited(tid TID, tsc uint64)
}

// NopTracer ignores every event at zero cost. Baseline (untraced) runs use
// it; the overhead of a traced run is measured against this.
type NopTracer struct{}

// InstRetired implements Tracer.
func (NopTracer) InstRetired(*InstEvent) uint64 { return 0 }

// SyscallRetired implements Tracer.
func (NopTracer) SyscallRetired(*SyscallEvent) uint64 { return 0 }

// ThreadStarted implements Tracer.
func (NopTracer) ThreadStarted(TID, uint64) {}

// ThreadExited implements Tracer.
func (NopTracer) ThreadExited(TID, uint64) {}
