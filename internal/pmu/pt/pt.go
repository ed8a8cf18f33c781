// Package pt simulates Intel Processor Trace as ProRace configures it
// (paper §4.2): lossless control-flow recording per thread, compressed in
// hardware, with up to four instruction-address range filters so only the
// code regions of interest (the main executable) are traced.
//
// Conditional branches append taken/not-taken bits, grouped six to a TNT
// packet; repeated groups are run-length encoded (standing in for the very
// high compression real PT achieves on loops, which is what keeps PT under
// ~1% of the total trace volume in the paper's §7.3). Indirect branches
// (JMPR, CALLR, RET) emit TIP packets with the resolved target, since no
// static analysis can recover them. TSC packets are interleaved
// periodically so the offline stage can time-align PT against PEBS and the
// synchronization log.
package pt

import (
	"prorace/internal/isa"
	"prorace/internal/machine"
	"prorace/internal/tracefmt"
)

// Range is an instruction-address filter range [Start, End).
type Range struct {
	Start, End uint64
}

// Contains reports whether addr falls in the range.
func (r Range) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// MaxFilterRanges is the hardware limit on address filters (four on the
// paper's Skylake, §4.2).
const MaxFilterRanges = 4

// Config parameterises the PT unit.
type Config struct {
	// Filters restricts tracing to branches whose source address falls in
	// one of the ranges. Empty means trace everything. At most
	// MaxFilterRanges entries.
	Filters []Range
	// TSCIntervalCycles is how often a TSC packet is interleaved into each
	// thread's stream (default 50000 cycles).
	TSCIntervalCycles uint64
	// PSBIntervalCycles is how often a PSB sync-point packet is emitted
	// (default 50000 cycles). A corruption-tolerant decoder that loses the
	// stream scans forward to the next PSB and resumes there, so this
	// interval bounds how much path is lost to one damaged region — the
	// role real PT's periodic PSB+ packets play for its decoder.
	PSBIntervalCycles uint64
}

type threadStream struct {
	buf []byte

	// pending TNT bits not yet forming a full group
	bits  uint8
	nbits uint8

	// run-length state over full 6-bit groups, with sparse exceptions
	runPattern uint8
	runCount   uint32
	runExc     []tracefmt.TNTException
	runActive  bool

	// callStack supports RET compression: a return whose target matches
	// the tracked call stack is recorded as a single taken bit, as real
	// Intel PT does.
	callStack []uint64

	lastTSC    uint64
	tscEmitted bool
	lastPSB    uint64
	flushedLen int // bytes already flushed to the perf tool
}

// Unit is the per-run PT state across all threads.
type Unit struct {
	cfg Config
	// threads is indexed by TID; nil until the thread's stream starts.
	threads []*threadStream
	// Branches counts branch events seen (post-filter).
	Branches uint64
}

// New creates a PT unit.
func New(cfg Config) *Unit {
	if cfg.TSCIntervalCycles == 0 {
		cfg.TSCIntervalCycles = 50000
	}
	if cfg.PSBIntervalCycles == 0 {
		cfg.PSBIntervalCycles = 50000
	}
	if len(cfg.Filters) > MaxFilterRanges {
		cfg.Filters = cfg.Filters[:MaxFilterRanges]
	}
	return &Unit{cfg: cfg}
}

func (u *Unit) stream(tid int32) *threadStream {
	if int(tid) < len(u.threads) {
		if s := u.threads[tid]; s != nil {
			return s
		}
	}
	for int(tid) >= len(u.threads) {
		u.threads = append(u.threads, nil)
	}
	s := &threadStream{}
	u.threads[tid] = s
	return s
}

func (u *Unit) inFilter(addr uint64) bool {
	if len(u.cfg.Filters) == 0 {
		return true
	}
	for _, r := range u.cfg.Filters {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// OnBranch records one retired branch instruction. It returns the number
// of stream bytes appended (hardware bandwidth accounting).
func (u *Unit) OnBranch(ev *machine.InstEvent) int {
	if !u.inFilter(ev.PC) {
		return 0
	}
	s := u.stream(int32(ev.TID))
	before := len(s.buf)

	if !s.tscEmitted || ev.TSC-s.lastTSC >= u.cfg.TSCIntervalCycles {
		s.flushRuns()
		s.buf = tracefmt.AppendTSC(s.buf, ev.TSC)
		s.lastTSC = ev.TSC
		s.tscEmitted = true
	}

	in := ev.Inst
	// Periodic sync point, anchored only at packet-consuming instructions
	// (conditional branch, indirect call/jump, return) so a resyncing
	// decoder that resumes at the anchor pc consumes exactly this event's
	// packet next. The call stack resets with the PSB: returns for frames
	// pushed before it fall back to uncompressed TIP packets, which a
	// fresh post-resync decode handles without the lost stack.
	if ev.TSC-s.lastPSB >= u.cfg.PSBIntervalCycles &&
		(in.IsCondBranch() || in.Op == isa.CALLR || in.Op == isa.RET || in.IsIndirectBranch()) {
		s.flushRuns()
		s.buf = tracefmt.AppendPSB(s.buf, ev.PC)
		s.callStack = s.callStack[:0]
		s.lastPSB = ev.TSC
	}
	switch {
	case in.IsCondBranch():
		u.Branches++
		s.pushBit(ev.Taken)
	case in.Op == isa.CALL, in.Op == isa.CALLR:
		// Track the return address for RET compression. Direct calls need
		// no packet (statically known targets); indirect calls emit TIP.
		s.callStack = append(s.callStack, ev.PC+isa.InstSize)
		if in.Op == isa.CALLR {
			u.Branches++
			s.flushRuns()
			s.buf = tracefmt.AppendTIP(s.buf, ev.Target)
		}
	case in.Op == isa.RET:
		u.Branches++
		if n := len(s.callStack); n > 0 && s.callStack[n-1] == ev.Target {
			// Compressed return: a single taken bit (real PT's RET
			// compression).
			s.callStack = s.callStack[:n-1]
			s.pushBit(true)
		} else {
			s.callStack = s.callStack[:0]
			s.flushRuns()
			s.buf = tracefmt.AppendTIP(s.buf, ev.Target)
		}
	case in.IsIndirectBranch():
		u.Branches++
		// Order matters: pending outcomes precede the indirect target.
		s.flushRuns()
		s.buf = tracefmt.AppendTIP(s.buf, ev.Target)
	default:
		// Direct JMP: statically known, no packet (as in real PT).
	}
	return len(s.buf) - before
}

// pushBit adds one conditional outcome, forming groups of six.
func (s *threadStream) pushBit(taken bool) {
	if taken {
		s.bits |= 1 << s.nbits
	}
	s.nbits++
	if s.nbits < tracefmt.TNTBitsPerPacket {
		return
	}
	group := s.bits
	s.bits, s.nbits = 0, 0
	if !s.runActive {
		s.runPattern, s.runCount, s.runActive = group, 1, true
		return
	}
	if group == s.runPattern {
		s.runCount++
		return
	}
	// A deviating group may be absorbed as an exception when the run is
	// long relative to its exception count — keeping almost-periodic
	// branch behaviour (a check that fails every k-th iteration) in one
	// packet.
	if len(s.runExc) < tracefmt.MaxTNTExceptions &&
		s.runCount+1 >= 4*uint32(len(s.runExc)+1) {
		s.runExc = append(s.runExc, tracefmt.TNTException{Index: s.runCount, Bits: group})
		s.runCount++
		return
	}
	s.emitRun()
	s.runPattern, s.runCount, s.runActive = group, 1, true
}

// emitRun writes the pending full-group run, if any.
func (s *threadStream) emitRun() {
	if !s.runActive {
		return
	}
	switch {
	case len(s.runExc) > 0:
		// The exception list is bounded by MaxTNTExceptions at insertion,
		// so the append cannot fail; if it ever did, the run is dropped —
		// a lossy stream, never a crashed tracer.
		if out, err := tracefmt.AppendTNTRepEx(s.buf, s.runPattern, s.runCount, s.runExc); err == nil {
			s.buf = out
		}
	case s.runCount == 1:
		s.buf = tracefmt.AppendTNT6(s.buf, s.runPattern)
	default:
		s.buf = tracefmt.AppendTNTRep(s.buf, s.runPattern, s.runCount)
	}
	s.runActive = false
	s.runCount = 0
	s.runExc = nil
}

// flushRuns writes pending runs and any partial TNT group, preserving
// branch order before a TIP or TSC packet.
func (s *threadStream) flushRuns() {
	s.emitRun()
	if s.nbits > 0 {
		// nbits is 1..5 here, so the append cannot fail; on an impossible
		// failure the partial group is dropped rather than panicking.
		if out, err := tracefmt.AppendTNT(s.buf, s.bits, s.nbits); err == nil {
			s.buf = out
		}
		s.bits, s.nbits = 0, 0
	}
}

// Begin records a thread's tracing start: a TSC packet followed by a TIP
// carrying the start address — the equivalent of real PT's TIP.PGE packet
// on entering a filter region. The decoder uses it to anchor the walk.
func (u *Unit) Begin(tid int32, pc, tsc uint64) {
	s := u.stream(tid)
	s.buf = tracefmt.AppendTSC(s.buf, tsc)
	s.lastTSC = tsc
	s.tscEmitted = true
	s.lastPSB = tsc // the anchor TIP below serves as the first sync point
	s.buf = tracefmt.AppendTIP(s.buf, pc)
}

// Mark injects a TSC packet at the current stream position. The driver
// calls it from the PEBS interrupt path at every stored sample, so the
// offline decoder can place the sample exactly on the decoded path: all
// branch outcomes retired before the sample precede the marker in the
// stream. This is the simulation's equivalent of PEBS and PT sharing one
// timestamp domain (paper §4.2).
func (u *Unit) Mark(tid int32, tsc uint64) {
	s := u.stream(tid)
	s.flushRuns()
	s.buf = tracefmt.AppendTSC(s.buf, tsc)
	s.lastTSC = tsc
	s.tscEmitted = true
}

// Finish flushes every thread's pending state and terminates the streams,
// returning them keyed by thread.
func (u *Unit) Finish() map[int32][]byte {
	out := map[int32][]byte{}
	for tid, s := range u.threads {
		if s == nil {
			continue
		}
		s.flushRuns()
		s.buf = tracefmt.AppendEnd(s.buf)
		out[int32(tid)] = s.buf
	}
	return out
}

// PendingBytes returns unflushed stream bytes for a thread, advancing the
// flush cursor. The driver uses it to account PT buffer flushes to the
// file bus.
func (u *Unit) PendingBytes(tid int32) int {
	s := u.stream(tid)
	n := len(s.buf) - s.flushedLen
	s.flushedLen = len(s.buf)
	return n
}

// TotalBytes returns the current total stream volume across threads.
func (u *Unit) TotalBytes() int {
	n := 0
	for _, s := range u.threads {
		if s != nil {
			n += len(s.buf)
		}
	}
	return n
}
