// Package ptdecode reconstructs each thread's executed instruction path
// from its PT packet stream and the program binary — the offline "Decode &
// Synthesis" stage of the paper's Figure 1.
//
// The decoder walks the text segment from the stream's anchor TIP,
// consuming TNT bits at conditional branches and TIP targets at indirect
// branches, exactly as a hardware PT decoder does. It walks a straight-line
// run at a time: everything from a pc up to the next block-ending
// instruction executes unconditionally, so packets are consulted only at
// that terminator, and the path records the run rather than each step.
// TSC packets do not affect control flow; each becomes a Marker recording
// the decode position at which it was observed. Because the online driver
// injects a TSC packet at every stored PEBS sample (PMI-synchronised),
// these markers let the synthesis stage pin every sample onto the path.
//
// Decoding comes in two flavours. Strict decoding (the default) stops at
// the first malformed packet and returns a *tracefmt.ErrCorrupt. Lenient
// decoding survives damage: it records a Gap, scans forward to the next
// PSB sync point (tracefmt.PTReader.Resync) and resumes the walk at the
// anchor pc the PSB carries — the analogue of a real PT decoder recovering
// at a PSB after packet loss or an OVF. The region between the damage and
// the sync point is lost; everything after it is decoded normally.
package ptdecode

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"prorace/internal/isa"
	"prorace/internal/prog"
	"prorace/internal/tracefmt"
)

// Marker is a TSC packet observed at a decode position: every branch
// outcome retired before the packet is consumed by steps at indices
// < StepIndex, so the instruction the packet timestamps lies in the
// straight-line run ending at StepIndex.
type Marker struct {
	TSC       uint64
	StepIndex int
}

// Gap is a region of the stream a lenient decode had to skip: corrupt
// packets, a desynchronised walk, or a wild jump, healed by scanning to
// the next PSB sync point.
type Gap struct {
	// StepIndex is the decode position at which the damage was detected;
	// path steps immediately before it may belong to a desynced walk.
	StepIndex int
	// Offset is the stream byte offset of the damage.
	Offset int
	// Skipped is how many stream bytes were lost to reach the sync point.
	Skipped int
	// Reason describes the damage.
	Reason string
}

// Run is a straight-line stretch of a decoded path: Len instructions at
// consecutive text-segment indices from Inst, executed as consecutive
// steps. A run's first step is the total length of the runs before it;
// Path.RunAt finds it.
type Run struct {
	Inst uint32 // text-segment index of the run's first instruction
	Len  uint32 // number of steps, at least 1
}

// Path is one thread's decoded execution.
//
// The executed instructions are stored run-length encoded. Runs partition
// the steps [0, Len()) in order, and each is a maximal PC-contiguous
// stretch: a run ends only where the next step's instruction is not the
// next one in the text segment (a taken branch, a call, a return, or a
// lenient re-anchor). Every step names a real instruction of the program:
// the decoder checks an address before it records a step, so consumers
// index prog.Program.Insts by a run's Inst without a validity check.
type Path struct {
	TID int32
	// Markers are the TSC packets in decode order (ascending StepIndex).
	Markers []Marker
	// Truncated is true when decoding stopped because the stream ended
	// before the program did (normal: tracing stops at run end).
	Truncated bool
	// Gaps are the regions a lenient decode skipped (empty on a clean
	// stream or in strict mode).
	Gaps []Gap
	// CorruptPackets counts malformed packets and sync-point mismatches
	// encountered (lenient mode; strict mode stops at the first).
	CorruptPackets int
	// Packets counts the well-formed packets consumed from the stream —
	// deterministic per stream, feeding the prorace_ptdecode_packets_total
	// telemetry series.
	Packets int
	// Resyncs counts recovery events that re-anchored the walk at a PSB
	// sync point (scans after damage plus in-place PSB re-anchors).
	Resyncs int

	runs   []Run
	steps  int      // the total length of runs
	starts []uint32 // starts[k] is the first step of run k*runIndexStride
}

// runIndexStride is how many runs share one entry of Path.starts: RunAt
// searches the entries, then adds up at most this many runs' lengths.
const runIndexStride = 16

// NewPath returns the path of thread tid executing runs, which it keeps.
func NewPath(tid int32, runs []Run) *Path {
	p := &Path{TID: tid}
	p.setRuns(runs)
	return p
}

// setRuns makes runs the path's and indexes their first steps.
func (p *Path) setRuns(runs []Run) {
	p.runs = runs
	p.starts = make([]uint32, 0, (len(runs)+runIndexStride-1)/runIndexStride)
	step := 0
	for lo := 0; lo < len(runs); lo += runIndexStride {
		p.starts = append(p.starts, uint32(step))
		for _, r := range runs[lo:min(lo+runIndexStride, len(runs))] {
			step += int(r.Len)
		}
	}
	p.steps = step
}

// Runs returns the executed instruction sequence, one entry per run. The
// slice is the path's own; callers must not modify it.
func (p *Path) Runs() []Run { return p.runs }

// Len returns the number of decoded steps.
func (p *Path) Len() int { return p.steps }

// RunAt returns the index of the run holding step, for 0 <= step < Len(),
// and that run's first step.
func (p *Path) RunAt(step int) (ri, first int) {
	k := sort.Search(len(p.starts), func(k int) bool { return int(p.starts[k]) > step }) - 1
	ri, first = k*runIndexStride, int(p.starts[k])
	for first+int(p.runs[ri].Len) <= step {
		first += int(p.runs[ri].Len)
		ri++
	}
	return ri, first
}

// Degraded reports whether the decode lost any part of the stream.
func (p *Path) Degraded() bool { return len(p.Gaps) > 0 || p.CorruptPackets > 0 }

// SkippedBytes totals the stream bytes lost across all gaps.
func (p *Path) SkippedBytes() int {
	n := 0
	for _, g := range p.Gaps {
		n += g.Skipped
	}
	return n
}

// Options configures a decode.
type Options struct {
	// MaxSteps bounds runaway decodes (0 means a large default; values
	// past math.MaxUint32 are clamped to it, the range of a Run).
	MaxSteps int
	// Lenient enables gap recovery instead of first-error abort.
	Lenient bool
	// Scratch lends the decode a warm run buffer and the stretches earlier
	// decodes of the program walked. Nil gives the decode its own.
	Scratch *Scratch
}

// queue is a FIFO over a reused backing array: pop advances a read index,
// and the array is rewound once the queue drains, so steady-state decoding
// stops reallocating it.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }
func (q *queue[T]) push(v T) { q.buf = append(q.buf, v) }
func (q *queue[T]) clear()   { q.buf, q.head = q.buf[:0], 0 }
func (q *queue[T]) release() { q.buf, q.head = nil, 0 }
func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.clear()
	}
	return v
}

// Scratch holds the buffers walks collect their runs in, each with the
// stretches (stretchMemo) the walks that used it recorded. A walk appends
// to a warm buffer, so it rarely regrows, and finish copies the runs once
// into the path at their exact size. Share one Scratch across the decodes
// of one analysis: a buffer is reused exactly when an earlier decode has
// handed it back, so the analysis allocates the same on every run, which a
// sync.Pool (per-P caches, emptied by the collector) does not give, and
// the threads of a program, which run the same loops, replay each other's
// stretches. A Scratch keeps the runs of the paths it decoded reachable,
// so it should not outlive the analysis. The zero value is ready to use;
// it is safe for concurrent use, each decode in flight holding a buffer of
// its own.
type Scratch struct {
	mu   sync.Mutex
	free []*walkBuf
}

// walkBuf is what a walk borrows from a Scratch: the buffer it collects
// its runs in, and the stretches earlier walks of the program recorded.
type walkBuf struct {
	runs []Run
	memo stretchMemo
}

// get returns a free walkBuf, or a new one when there is none.
func (s *Scratch) get() *walkBuf {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return &walkBuf{}
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b
}

// put hands a walkBuf back for the next decode.
func (s *Scratch) put(b *walkBuf) {
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// A stretch is the part of the walk from one instruction through every
// conditional branch whose outcome is already pending, up to the first
// terminator the walk must handle itself. What it records depends only on
// where it starts and on the pending outcomes (stretchKey), so the
// stretchMemo replays a stretch seen before, run for run, instead of
// walking it again. A thread's loop iterates with the same outcome words
// over and over, so most stretches repeat.
type stretchKey struct {
	tnt  uint64
	idx  int32
	tntN uint8
}

// stretch is one memoised stretch. Its first run starts at the key's idx
// and is firstLen steps long (the walk may have added them to the run
// before). Then come runs[off : off+n] of the walk that recorded it, and
// last, unless its Len is 0. The walk may extend the last run it recorded
// afterwards, so a stretch keeps its own copy of its last run, and reads
// only the runs between from the walk. It also holds its steps, the
// terminator it stopped at, and the outcomes it left pending.
type stretch struct {
	walk, off, n uint32
	firstLen     uint32 // 0 marks a free slot
	last         Run
	steps        uint32
	term         int32
	tnt          uint64
	tntN         uint8
}

// stretchMemo holds the stretches of one program's walks in an
// open-addressed hash table (linear probing, at most half full). A stretch
// keeps no runs of its own: they are read from the runs of the walk that
// recorded it, the walk's buffer while that walk goes on and its path's
// runs after, which the path keeps unchanged. The memo holds at most
// maxStretches stretches.
type stretchMemo struct {
	prog  *prog.Program
	slots []stretchSlot // a power of two of them
	used  int
	// walks[w] are the runs of walk w once it has finished; cur is the
	// walk in progress.
	walks [][]Run
	cur   uint32
}

type stretchSlot struct {
	key stretchKey
	st  stretch
}

// slot returns the slot of key: the one holding it, or the free slot
// where it belongs. The table must have a free slot.
func (m *stretchMemo) slot(key stretchKey) *stretchSlot {
	h := (key.tnt ^ uint64(key.idx)<<32 ^ uint64(key.tntN)<<56) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	mask := uint64(len(m.slots) - 1)
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.st.firstLen == 0 || s.key == key {
			return s
		}
	}
}

// lookup returns the stretch memoised for key, nil if none.
func (m *stretchMemo) lookup(key stretchKey) *stretch {
	if m.used == 0 {
		return nil
	}
	if s := m.slot(key); s.st.firstLen > 0 {
		return &s.st
	}
	return nil
}

// insert memoises st for key, growing the table to stay at most half
// full.
func (m *stretchMemo) insert(key stretchKey, st stretch) {
	if 2*(m.used+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]stretchSlot, max(2*len(old), 256))
		for _, s := range old {
			if s.st.firstLen > 0 {
				*m.slot(s.key) = s
			}
		}
	}
	*m.slot(key) = stretchSlot{key, st}
	m.used++
}

// maxStretches bounds the stretches a stretchMemo holds, and so its table
// to 512 KB.
const maxStretches = 1 << 12

// decoder state over one stream.
type decoder struct {
	prog    *prog.Program
	rdr     *tracefmt.PTReader
	path    *Path
	lenient bool
	tips    queue[uint64] // pending TIP targets
	stack   []uint64      // call stack for RET compression
	done    bool
	lastErr error
	// steps is the walk's position: how many steps have been recorded.
	// Markers and gaps take their StepIndex from it.
	steps int
	// runs collects the walk's runs in the buffer of buf, borrowed from
	// scratch for the walk; finish copies them into the path and hands buf
	// back.
	scratch *Scratch
	buf     *walkBuf
	runs    []Run
	runEnd  int // the text index after the last step's instruction

	// tnt holds the pending TNT outcomes of one packet or of up to
	// tntGroups run groups, the next outcome in bit 0; tntN of them are
	// left.
	tnt  uint64
	tntN uint8

	// pending run-length-encoded TNT state, at most tntGroups groups loaded
	// into tnt at a time. TNTRep counts are attacker-controlled in a
	// corrupt stream; loading groups lazily keeps the pending state small
	// no matter what the packet claims.
	runPattern uint8
	runNBits   uint8
	runLeft    uint32 // groups not yet loaded
	runIdx     uint32 // next group's index within the run
	runExc     []tracefmt.TNTException
	runEi      int

	// anchor is a pending resync target discovered during refill.
	anchor   uint64
	anchorOK bool
	// draining is set while collecting trailing markers after the walk
	// has stopped; recovery is pointless then.
	draining bool
	// maxSteps is the walk's step budget, used to reject TNT runs no walk
	// could consume (lenient mode only).
	maxSteps int
}

// tntGroups is how many run groups load into tnt at once: as many as fit
// in its 64 bits.
const tntGroups = 64 / tracefmt.TNTBitsPerPacket

// nextGroups loads up to tntGroups of the pending run's groups into the
// empty tnt, so a long run costs one refill per tntGroups groups, not per
// group.
func (d *decoder) nextGroups() {
	mask := uint8(1)<<d.runNBits - 1 // a group's bits past runNBits are not outcomes
	var bits uint64
	var n uint8
	for k := 0; k < tntGroups && d.runLeft > 0; k++ {
		group := d.runPattern
		if d.runEi < len(d.runExc) && d.runExc[d.runEi].Index == d.runIdx {
			group = d.runExc[d.runEi].Bits
			d.runEi++
		}
		bits |= uint64(group&mask) << n
		n += d.runNBits
		d.runIdx++
		d.runLeft--
	}
	d.tnt, d.tntN = bits, n
}

// clearPending drops all queued decode state; it is poisoned once the
// stream position is known to be damaged.
func (d *decoder) clearPending() {
	d.tntN = 0
	d.tips.clear()
	d.stack = d.stack[:0]
	d.runLeft, d.runExc, d.runEi = 0, nil, 0
}

// refill pulls packets until at least one TNT bit or TIP is pending, a
// resync anchor is queued, or the stream ends. TSC packets become markers
// at the current position.
func (d *decoder) refill() {
	for d.tntN == 0 && d.tips.len() == 0 && !d.done && !d.anchorOK {
		if d.runLeft > 0 {
			if d.draining {
				d.runLeft = 0 // bits are being discarded anyway
				continue
			}
			d.nextGroups()
			continue
		}
		pkt, done, err := d.rdr.Next()
		if err != nil {
			d.path.CorruptPackets++
			if !d.lenient {
				d.lastErr = err
				d.done = true
				return
			}
			off := d.rdr.Offset()
			d.stack = d.stack[:0]
			pc, skipped, ok := d.rdr.Resync()
			d.path.Gaps = append(d.path.Gaps, Gap{
				StepIndex: d.steps, Offset: off, Skipped: skipped, Reason: err.Error(),
			})
			if !ok {
				d.done = true
				return
			}
			d.path.Resyncs++
			if !d.draining {
				d.anchor, d.anchorOK = pc, true
			}
			continue
		}
		if done {
			d.done = true
			return
		}
		d.path.Packets++
		switch pkt.Kind {
		case tracefmt.PktTNT, tracefmt.PktTNT6:
			d.tnt, d.tntN = uint64(pkt.Bits), pkt.NBits
		case tracefmt.PktTNTRep, tracefmt.PktTNTRepEx:
			// Each step consumes at most one TNT bit, so a run the walk
			// could never finish within its remaining step budget cannot be
			// real control flow — it is framing damage (garbage bytes
			// parsing as a huge repeat count). Resync instead of spinning
			// the walk for millions of steps on a fiction.
			if d.lenient && !d.draining &&
				uint64(pkt.Count)*uint64(pkt.NBits) > uint64(d.maxSteps-d.steps) {
				d.path.CorruptPackets++
				off := d.rdr.Offset()
				d.stack = d.stack[:0]
				pc, skipped, ok := d.rdr.Resync()
				d.path.Gaps = append(d.path.Gaps, Gap{
					StepIndex: d.steps, Offset: off, Skipped: skipped,
					Reason: fmt.Sprintf("TNT run of %d bits exceeds step budget", uint64(pkt.Count)*uint64(pkt.NBits)),
				})
				if !ok {
					d.done = true
					return
				}
				d.path.Resyncs++
				d.anchor, d.anchorOK = pc, true
				continue
			}
			d.runPattern, d.runNBits = pkt.Bits, pkt.NBits
			d.runLeft, d.runIdx = pkt.Count, 0
			d.runExc, d.runEi = pkt.Exceptions, 0
		case tracefmt.PktTIP:
			d.tips.push(pkt.Target)
		case tracefmt.PktTSC:
			d.path.Markers = append(d.path.Markers, Marker{TSC: pkt.TSC, StepIndex: d.steps})
		case tracefmt.PktPSB:
			// Sync point. On a clean stream the refill that reads it is
			// requested by exactly the instruction the encoder anchored it
			// at, so a mismatch means the walk silently desynced (flipped
			// TNT bits produce a plausible but wrong path). Re-anchor.
			if d.lenient && !d.draining && d.steps > 0 && pkt.Target != d.walkPC() {
				d.path.CorruptPackets++
				d.path.Gaps = append(d.path.Gaps, Gap{
					StepIndex: d.steps, Offset: d.rdr.Offset(),
					Reason: fmt.Sprintf("PSB anchor %#x disagrees with walk at %#x", pkt.Target, d.walkPC()),
				})
				d.stack = d.stack[:0] // the encoder reset its stack at the PSB
				d.path.Resyncs++
				d.anchor, d.anchorOK = pkt.Target, true
			}
		}
	}
}

// walkPC is the pc of the instruction currently requesting a packet, the
// last step recorded; the walk must have recorded one. A PSB whose anchor
// disagrees with it reveals a silently desynced walk (plausible-but-wrong
// path from flipped TNT bits).
func (d *decoder) walkPC() uint64 { return isa.IndexToAddr(d.runEnd - 1) }

// takeBit consumes the next pending outcome; tntN must be positive. It is
// small enough to inline, so the walk takes a pending outcome without a
// call.
func (d *decoder) takeBit() bool {
	taken := d.tnt&1 != 0
	d.tnt >>= 1
	d.tntN--
	return taken
}

// nextTIP consumes one indirect target; ok is false at stream end.
func (d *decoder) nextTIP() (uint64, bool) {
	if d.tips.len() == 0 {
		d.refill()
	}
	if d.tips.len() == 0 {
		return 0, false
	}
	return d.tips.pop(), true
}

// reanchor attempts lenient recovery after the walk failed to get the
// packet it needed (or jumped off the text segment). It consumes a pending
// resync anchor if one is queued; otherwise, if the stream has not ended,
// the pending state is untrustworthy (a desync, e.g. a TIP where a TNT bit
// was needed), so it is dropped and the reader scans to the next sync
// point. ok is false when recovery is impossible — strict mode, or no sync
// point remains — in which case the caller truncates as before.
func (d *decoder) reanchor(reason string) (uint64, bool) {
	if !d.lenient {
		return 0, false
	}
	if d.anchorOK {
		d.anchorOK = false
		return d.anchor, true
	}
	if d.done {
		return 0, false
	}
	off := d.rdr.Offset()
	d.clearPending()
	pc, skipped, ok := d.rdr.Resync()
	d.path.Gaps = append(d.path.Gaps, Gap{
		StepIndex: d.steps, Offset: off, Skipped: skipped, Reason: reason,
	})
	if !ok {
		d.done = true
		return 0, false
	}
	d.path.Resyncs++
	return pc, true
}

// DecodeWith reconstructs the path of one thread from its packet stream.
func DecodeWith(p *prog.Program, tid int32, stream []byte, opts Options) (*Path, error) {
	d := newDecoder(p, tid, stream, opts)
	pc, ok := d.anchorPC()
	if !ok {
		if d.lastErr != nil {
			return nil, fmt.Errorf("ptdecode: tid %d: %w", tid, d.lastErr)
		}
		return d.path, nil // empty stream: thread traced nothing
	}

	insts := p.Insts
	exits := p.Exits()
	d.borrow()
	memo := &d.buf.memo
walk:
	for d.steps < d.maxSteps {
		idx, okIdx := isa.AddrToIndex(pc)
		if !okIdx || idx >= len(insts) {
			if pc == 0 {
				// A return from a thread's outermost frame targets address
				// 0 — the machine's thread-exit convention, encoded as a
				// TIP to 0. This is the normal end of a spawned thread's
				// trace, not a wild jump: end cleanly in both modes so a
				// lenient decode of a clean stream records no gap.
				d.finish()
				return d.path, d.lastErr
			}
			if pc2, okR := d.reanchor(fmt.Sprintf("wild jump to %#x", pc)); okR {
				pc = pc2
				continue
			}
			// Ran off the text segment (wild jump in the workload);
			// tracing of this thread ends here, like a real decoder losing
			// sync at an unmapped address.
			d.path.Truncated = true
			break
		}

		// Everything from idx through the next terminator executes
		// unconditionally. While that terminator is a conditional branch
		// whose outcome is already pending (the common case), the exit
		// table gives the next run's index: no packet to read, no address
		// to convert.
		var term int
		key := stretchKey{tnt: d.tnt, idx: int32(idx), tntN: d.tntN}
		if st := memo.lookup(key); st != nil && d.steps+int(st.steps) < d.maxSteps {
			d.replayStretch(memo, idx, st)
			term = int(st.term)
		} else {
			k0, runEnd0, steps0 := len(d.runs), d.runEnd, d.steps
			var len0 uint32 // the length of the run the stretch may extend
			if k0 > 0 {
				len0 = d.runs[k0-1].Len
			}
			for {
				x := exits[idx]
				term = int(x.Term)
				n := min(term+1, len(insts)) - idx
				if len(d.runs) == cap(d.runs) {
					d.growRuns()
				}
				if left := d.maxSteps - d.steps; n > left {
					d.appendRun(idx, left) // the budget ends the walk mid-run
					break walk
				}
				d.appendRun(idx, n)
				if x.Taken < 0 || d.tntN == 0 {
					break
				}
				idx = term + 1
				if d.takeBit() {
					idx = int(x.Taken)
				}
				if idx == len(insts) || d.steps == d.maxSteps {
					// The fall-through leaves the text segment, or the budget
					// is spent: the checks above see to both.
					pc = isa.IndexToAddr(idx)
					continue walk
				}
			}
			// The stretch extended run k0-1 if it started where that run
			// ended, as appendRun decides.
			memo.record(d, key, k0, k0 > 0 && int(key.idx) == runEnd0, len0, d.steps-steps0, term)
		}
		pc = isa.IndexToAddr(term)
		if term == len(insts) {
			// No terminator before the end of the text segment: the walk
			// runs off it, which the check above treats as a wild jump.
			continue
		}

		in := &insts[term]
		switch {
		case in.IsCondBranch():
			if d.tntN == 0 {
				d.refill()
			}
			if d.tntN == 0 {
				if pc2, okR := d.reanchor("missing TNT bit"); okR {
					pc = pc2
					continue
				}
				d.finish()
				d.path.Truncated = true
				return d.path, d.lastErr
			}
			if d.takeBit() {
				pc = uint64(in.Imm)
			} else {
				pc += isa.InstSize
			}
		case in.Op == isa.JMP:
			pc = uint64(in.Imm)
		case in.Op == isa.CALL:
			d.stack = append(d.stack, pc+isa.InstSize)
			pc = uint64(in.Imm)
		case in.Op == isa.CALLR:
			d.stack = append(d.stack, pc+isa.InstSize)
			target, okTip := d.nextTIP()
			if !okTip {
				if pc2, okR := d.reanchor("missing TIP target"); okR {
					pc = pc2
					continue
				}
				d.finish()
				d.path.Truncated = true
				return d.path, d.lastErr
			}
			pc = target
		case in.Op == isa.RET:
			// RET compression: the stream carries either a taken bit
			// (target = tracked call stack top) or a TIP. Stream order
			// disambiguates: whichever the next pending item is belongs
			// to this return.
			if d.tntN == 0 && d.tips.len() == 0 {
				d.refill()
			}
			switch {
			case d.tntN > 0:
				n := len(d.stack)
				if !d.takeBit() || n == 0 {
					// Desync: a compressed return must be a taken bit with
					// a tracked frame.
					if pc2, okR := d.reanchor("return desync"); okR {
						pc = pc2
						continue
					}
					d.finish()
					d.path.Truncated = true
					return d.path, d.lastErr
				}
				pc = d.stack[n-1]
				d.stack = d.stack[:n-1]
			case d.tips.len() > 0:
				target, _ := d.nextTIP()
				pc = target
				d.stack = d.stack[:0] // encoder reset its stack too
			default:
				if pc2, okR := d.reanchor("missing return packet"); okR {
					pc = pc2
					continue
				}
				d.finish()
				d.path.Truncated = true
				return d.path, d.lastErr
			}
		case in.IsIndirectBranch():
			target, okTip := d.nextTIP()
			if !okTip {
				if pc2, okR := d.reanchor("missing TIP target"); okR {
					pc = pc2
					continue
				}
				d.finish()
				d.path.Truncated = true
				return d.path, d.lastErr
			}
			pc = target
		default: // HALT, or the exit syscall
			d.finish()
			return d.path, d.lastErr
		}
	}
	d.finish()
	return d.path, d.lastErr
}

// newDecoder prepares a decode of one stream.
func newDecoder(p *prog.Program, tid int32, stream []byte, opts Options) *decoder {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100_000_000
	}
	if uint64(maxSteps) > math.MaxUint32 {
		maxSteps = math.MaxUint32 // a Run's steps are 32-bit
	}
	scratch := opts.Scratch
	if scratch == nil {
		scratch = new(Scratch)
	}
	return &decoder{
		prog:     p,
		rdr:      tracefmt.NewPTReader(stream),
		path:     &Path{TID: tid},
		lenient:  opts.Lenient,
		scratch:  scratch,
		maxSteps: maxSteps,
	}
}

// anchorPC consumes the walk's starting pc: the stream must start with
// (TSC,) TIP carrying the entry. ok is false when there is nothing to walk:
// an empty stream, or a corrupt one (lastErr set in strict mode).
func (d *decoder) anchorPC() (uint64, bool) {
	if pc, ok := d.nextTIP(); ok {
		return pc, true
	}
	return d.reanchor("missing anchor TIP")
}

// appendRun records n steps executing the instructions from text index idx
// on, extending the last run when they continue it. The caller makes room
// for a new run first (growRuns), which keeps appendRun small enough to
// inline.
func (d *decoder) appendRun(idx, n int) {
	if k := len(d.runs); idx != d.runEnd || k == 0 {
		d.runs = d.runs[:k+1]
		d.runs[k] = Run{Inst: uint32(idx)}
	}
	d.runs[len(d.runs)-1].Len += uint32(n)
	d.steps += n
	d.runEnd = idx + n
}

// growRuns makes room for another run in a full buffer: it doubles it,
// rather than take append's gentler growth for large slices, so a cold
// buffer reaches a thread's size in fewer copies.
func (d *decoder) growRuns() {
	grown := make([]Run, len(d.runs), max(2*cap(d.runs), 64))
	copy(grown, d.runs)
	d.runs = grown
}

// borrow takes a walkBuf from scratch for the walk, dropping its memo if
// that was of another program.
func (d *decoder) borrow() {
	d.buf = d.scratch.get()
	d.runs = d.buf.runs[:0]
	m := &d.buf.memo
	if m.prog != d.prog {
		*m = stretchMemo{prog: d.prog}
	}
	m.cur = uint32(len(m.walks))
	m.walks = append(m.walks, nil)
}

// record memoises the stretch the walk just took from key: the runs from
// k0 on, and, if extended is set, the part of run k0-1 past its length
// len0 before the stretch.
func (m *stretchMemo) record(d *decoder, key stretchKey, k0 int, extended bool, len0 uint32, steps, term int) {
	if m.used >= maxStretches {
		return
	}
	st := stretch{
		walk: m.cur, off: uint32(k0), steps: uint32(steps),
		term: int32(term), tnt: d.tnt, tntN: d.tntN,
	}
	if extended {
		st.firstLen = d.runs[k0-1].Len - len0
	} else {
		st.firstLen = d.runs[k0].Len
		st.off++
	}
	if end := uint32(len(d.runs)); end > st.off {
		st.n, st.last = end-1-st.off, d.runs[end-1]
	}
	m.insert(key, st)
}

// replayStretch records the memoised stretch st from idx as the walk
// would: its first run extends the last run if that ends at idx.
func (d *decoder) replayStretch(m *stretchMemo, idx int, st *stretch) {
	src := m.walks[st.walk]
	if st.walk == m.cur {
		src = d.runs
	}
	mid := src[st.off : st.off+st.n]
	for cap(d.runs)-len(d.runs) < len(mid)+2 {
		d.growRuns()
	}
	if k := len(d.runs); k > 0 && idx == d.runEnd {
		d.runs[k-1].Len += st.firstLen
	} else {
		d.runs = append(d.runs, Run{Inst: uint32(idx), Len: st.firstLen})
	}
	d.runs = append(d.runs, mid...)
	if st.last.Len > 0 {
		d.runs = append(d.runs, st.last)
	}
	last := d.runs[len(d.runs)-1]
	d.runEnd = int(last.Inst + last.Len)
	d.steps += int(st.steps)
	d.tnt, d.tntN = st.tnt, st.tntN
}

// finish ends the walk: it assembles the path's runs and drains any
// packets left so trailing TSC markers are recorded at the final position.
func (d *decoder) finish() {
	if d.buf != nil {
		if len(d.runs) > 0 {
			d.path.setRuns(slices.Clone(d.runs))
		}
		d.buf.memo.walks[d.buf.memo.cur] = d.path.runs
		d.buf.runs = d.runs[:0]
		d.scratch.put(d.buf)
		d.buf, d.runs = nil, nil
	}
	d.draining = true
	d.anchorOK = false
	d.runLeft, d.runExc, d.runEi = 0, nil, 0
	for !d.done {
		d.tntN = 0
		d.tips.clear()
		d.refill()
	}
	d.tips.release()
}

// DecodeAll decodes every thread stream of a trace in strict mode, the
// decodes sharing one Scratch. maxSteps bounds runaway decodes (0 means a
// large default).
func DecodeAll(p *prog.Program, streams map[int32][]byte, maxSteps int) (map[int32]*Path, error) {
	opts := Options{MaxSteps: maxSteps, Scratch: new(Scratch)}
	out := map[int32]*Path{}
	for tid, stream := range streams {
		path, err := DecodeWith(p, tid, stream, opts)
		if err != nil {
			return nil, err
		}
		out[tid] = path
	}
	return out, nil
}
