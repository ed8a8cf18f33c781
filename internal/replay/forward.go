package replay

import (
	"math"
	"slices"
	"sort"
	"sync"

	"prorace/internal/isa"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// fact is one backward-derived register value for a step's pre-state, 16
// bytes. A step may have several entries, and two entries for the same
// register at the same step always carry the same value (DESIGN.md §10,
// "Pre-decoded replay ops").
type fact struct {
	step uint32
	reg  isa.Reg
	val  uint64
}

// pathState carries the per-path working arrays shared by the forward and
// backward passes of one reconstruction. States are pooled by the
// engine and reset per thread, so steady-state reconstruction reuses the
// slices and map buckets of earlier threads instead of reallocating them.
type pathState struct {
	tt *synthesis.ThreadTrace
	// known has bit i set once step i's address is recovered.
	known []uint64
	// recs lists the recovered memory steps, one entry per step, as blocks
	// that each ascend by step: every pass appends one block, starting at
	// the offsets in blocks, and collect merges them.
	recs   []recovery
	blocks []int
	ends   []int // collect's scratch
	// fwdAvail records each step's pre-state register availability from
	// the latest full forward pass, so the backward pass can tell which of
	// its facts are new. Every full pass writes every step, so it is never
	// cleared.
	fwdAvail []uint16
	// learned holds backward-derived pre-state register values in
	// ascending step order, applied by the second forward pass through a
	// factCursor.
	learned []fact
	// mem is the forward pass's emulated-memory map, cleared at every pass
	// and reused so its buckets survive across passes and threads.
	mem map[uint64]uint64
	// ckpts are the checkpoints of the latest full forward pass, ascending
	// by step; their emulated-memory entries are stored in ckMem.
	ckpts []checkpoint
	ckMem []memEntry
	// hits lists, when logLoads is set, the addresses emulated memory
	// served an address-known load from, for the thread's LoadLog.
	hits     []uint64
	logLoads bool
	// memSteps is the path's memory-access steps, counted by the latest
	// full forward pass (Stats.MemSteps).
	memSteps int
}

// recovery is one recovered memory step: its address and how it was
// obtained.
type recovery struct {
	addr   uint64
	step   uint32
	origin Origin
}

// resetSlice returns s resized to n and zeroed, reusing capacity.
func resetSlice[T any](s []T, n int) []T {
	s = resizeSlice(s, n)
	clear(s)
	return s
}

// resizeSlice returns s resized to n, reusing capacity; the contents are
// stale.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares a (possibly pooled) state for one thread, logging its
// memory-served loads when logLoads is set.
func (ps *pathState) reset(tt *synthesis.ThreadTrace, logLoads bool) {
	n := tt.Path.Len()
	ps.tt = tt
	ps.known = resetSlice(ps.known, (n+63)/64)
	ps.recs, ps.blocks = ps.recs[:0], ps.blocks[:0]
	ps.fwdAvail = resizeSlice(ps.fwdAvail, n)
	ps.learned = ps.learned[:0]
	if ps.mem == nil {
		ps.mem = map[uint64]uint64{}
	}
	ps.hits = ps.hits[:0]
	ps.logLoads = logLoads
	ps.memSteps = 0
}

// isKnown reports whether step i's address is recovered.
func (ps *pathState) isKnown(i int) bool { return ps.known[i>>6]&(1<<(i&63)) != 0 }

// recover records step i's address, unless it is already known, in the
// current pass's block.
func (ps *pathState) recover(i int, addr uint64, origin Origin) {
	w, b := i>>6, uint64(1)<<(i&63)
	if ps.known[w]&b != 0 {
		return
	}
	ps.known[w] |= b
	ps.recs = append(ps.recs, recovery{addr: addr, step: uint32(i), origin: origin})
}

// beginBlock starts a pass's block of recoveries.
func (ps *pathState) beginBlock() { ps.blocks = append(ps.blocks, len(ps.recs)) }

// sampleCursor walks a thread's pinned samples in step order alongside a
// pass over the path; syncCursor does the same for its sync records. Both
// rely on the synthesis order: samples ascend by StepIndex, and so do the
// pinned sync records (StepIndex >= 0) among the unpinned ones.
type sampleCursor struct {
	s    []synthesis.Sample
	k    int
	next int // StepIndex of s[k]; math.MaxInt past the end
}

func newSampleCursor(s []synthesis.Sample) sampleCursor {
	c := sampleCursor{s: s, next: math.MaxInt}
	if len(s) > 0 {
		c.next = s[0].StepIndex
	}
	return c
}

// at returns the record pinned to step, nil if none. Steps must be asked
// in ascending order. When several records share the step, the last one
// wins. Most steps carry no sample, so that case is one comparison.
func (c *sampleCursor) at(step int) *tracefmt.PEBSRecord {
	if step < c.next {
		return nil
	}
	return c.seek(step)
}

func (c *sampleCursor) seek(step int) *tracefmt.PEBSRecord {
	var rec *tracefmt.PEBSRecord
	for ; c.k < len(c.s) && c.s[c.k].StepIndex <= step; c.k++ {
		if c.s[c.k].StepIndex == step {
			rec = &c.s[c.k].Rec
		}
	}
	c.next = math.MaxInt
	if c.k < len(c.s) {
		c.next = c.s[c.k].StepIndex
	}
	return rec
}

type syncCursor struct {
	s []synthesis.SyncStep
	k int
}

// at is sampleCursor.at for sync records. It is asked only at syscall
// steps, so it needs no fast path.
func (c *syncCursor) at(step int) *tracefmt.SyncRecord {
	var rec *tracefmt.SyncRecord
	for ; c.k < len(c.s) && c.s[c.k].StepIndex <= step; c.k++ {
		if c.s[c.k].StepIndex == step {
			rec = &c.s[c.k].Rec
		}
	}
	return rec
}

// factCursor walks the learned facts alongside a forward pass, like
// sampleCursor; the facts must ascend by step.
type factCursor struct {
	f    []fact
	next int // step of f[0]; math.MaxInt past the end
}

func newFactCursor(f []fact) factCursor {
	c := factCursor{f: f}
	c.advance(0)
	return c
}

// at returns the facts learned for step, none if there are none. Steps
// must be asked in ascending order, every step of the path.
func (c *factCursor) at(step int) []fact {
	if step != c.next {
		return nil
	}
	n := 1
	for n < len(c.f) && int(c.f[n].step) == step {
		n++
	}
	fs := c.f[:n]
	c.advance(n)
	return fs
}

func (c *factCursor) advance(n int) {
	c.f = c.f[n:]
	c.next = math.MaxInt
	if len(c.f) > 0 {
		c.next = int(c.f[0].step)
	}
}

// learn records a learned fact at step.
func (ps *pathState) learn(step int, r isa.Reg, v uint64) {
	ps.learned = append(ps.learned, fact{step: uint32(step), reg: r, val: v})
}

// checkpointEvery is the spacing, in steps, of the regular checkpoints a
// full forward pass saves; it also saves one right after every sample.
const checkpointEvery = 512

// maxCheckpointMem bounds the emulated-memory entries a checkpoint may
// hold. A full pass saves no checkpoint where its memory is larger, so a
// workload that fills emulated memory cannot make checkpoints cost more
// than the per-step arrays; the second pass then walks on to a sample
// where one was saved.
const maxCheckpointMem = 16

// checkpoint is a full forward pass's state in the pre-state of step: its
// register file and its emulated memory, ckMem[memOff : memOff+memLen].
type checkpoint struct {
	step           int
	rf             regFile
	memOff, memLen int
}

type memEntry struct{ addr, val uint64 }

// saveCheckpoint records the pass's state in the pre-state of step, unless
// its emulated memory is over maxCheckpointMem.
func (ps *pathState) saveCheckpoint(step int, rf *regFile, mem map[uint64]uint64) {
	if len(mem) > maxCheckpointMem {
		return
	}
	off := len(ps.ckMem)
	for addr, v := range mem {
		ps.ckMem = append(ps.ckMem, memEntry{addr, v})
	}
	ps.ckpts = append(ps.ckpts, checkpoint{step: step, rf: *rf, memOff: off, memLen: len(mem)})
}

// inSyncAt reports whether a second forward pass whose emulated memory
// holds memLen entries after the sample at step-1 is in the first pass's
// state at step. Its registers are the sample's in both passes, and its
// memory contains the first pass's with equal values, so equal sizes mean
// equal maps (DESIGN.md §10). Without a checkpoint at step it is not.
func (ps *pathState) inSyncAt(step, memLen int) bool {
	k := sort.Search(len(ps.ckpts), func(k int) bool { return ps.ckpts[k].step >= step })
	return k < len(ps.ckpts) && ps.ckpts[k].step == step && ps.ckpts[k].memLen == memLen
}

// resume loads the last checkpoint at or before step into rf and mem and
// returns the step it was taken at. The first full-pass step always has
// one, since memory is empty there.
func (ps *pathState) resume(step int, rf *regFile, mem map[uint64]uint64) int {
	ck := &ps.ckpts[sort.Search(len(ps.ckpts), func(k int) bool { return ps.ckpts[k].step > step })-1]
	*rf = ck.rf
	clear(mem)
	for _, en := range ps.ckMem[ck.memOff : ck.memOff+ck.memLen] {
		mem[en.addr] = en.val
	}
	return ck.step
}

// release drops every reference into the thread's trace so a pooled state
// never pins decoded paths or samples beyond its use.
func (ps *pathState) release() {
	ps.tt = nil
	clear(ps.mem)
}

// statePool is a free list of pathStates. Unlike a sync.Pool (per-P
// caches, emptied by the collector), it reuses a state exactly when an
// earlier reconstruction has handed it back, so an analysis allocates the
// same on every run. It is safe for concurrent use.
type statePool struct {
	mu   sync.Mutex
	free []*pathState
}

// get returns a free state, or a new one when there is none.
func (sp *statePool) get() *pathState {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := len(sp.free)
	if n == 0 {
		return &pathState{}
	}
	ps := sp.free[n-1]
	sp.free = sp.free[:n-1]
	return ps
}

// put hands a released state back.
func (sp *statePool) put(ps *pathState) {
	sp.mu.Lock()
	sp.free = append(sp.free, ps)
	sp.mu.Unlock()
}

// loadLog freezes the logged hit addresses, with the thread's accesses,
// into its LoadLog.
func (ps *pathState) loadLog(acc []Access) *LoadLog {
	slices.Sort(ps.hits)
	log := &LoadLog{acc: acc}
	if hits := slices.Compact(ps.hits); len(hits) > 0 {
		log.hits = slices.Clone(hits)
	}
	return log
}

// reconstructPath runs the path-guided modes (Forward, ForwardBackward)
// with the given pass schedule, returning the thread's LoadLog when
// logLoads is set.
func (e *Engine) reconstructPath(tt *synthesis.ThreadTrace, logLoads bool, passes func(*Engine, *pathState)) ([]Access, Stats, *LoadLog) {
	ps := e.states.get()
	if ps.known != nil {
		e.met.recycles.Inc() // warm state: prior capacity is being reused
	}
	defer func() {
		ps.release()
		e.states.put(ps)
	}()
	ps.reset(tt, logLoads)
	passes(e, ps)
	st := Stats{PathSteps: tt.Path.Len(), MemSteps: ps.memSteps}
	accesses := e.collect(ps, &st)

	// Samples that could not be pinned to the path still contribute. On a
	// complete path every instruction was already visited, so the
	// block-relative TSC guesses bbForRecord fabricates for a sample's
	// neighbours would only duplicate path recoveries — and a static block
	// can span a sync syscall, so a guessed timestamp can drop an access on
	// the wrong side of its own thread's acquire or release, manufacturing
	// a race the execution never had. Emit just the sampled access itself
	// (exact address, exact TSC); fall back to full block reconstruction
	// only when the path is missing or degraded and may genuinely lack the
	// sample's block.
	pathComplete := tt.Path.Len() > 0 && !tt.Path.Degraded()
	for i := range tt.UnpinnedSamples {
		rec := &tt.UnpinnedSamples[i]
		if pathComplete {
			accesses = append(accesses, e.sampleAccess(rec, &st))
			continue
		}
		accesses = append(accesses, e.bbForRecord(rec, &st)...)
	}
	var log *LoadLog
	if logLoads {
		log = ps.loadLog(accesses)
	}
	return accesses, st, log
}

// replayPasses is the pass schedule of the path-guided modes. ModeForward
// runs one forward pass (F1). ModeForwardBackward runs F1, one backward
// pass (B1) that learns register facts F1 lacked, and a second forward
// pass (F2) that applies them. That is the fixed point: F2's state
// contains F1's at every step, so a further backward pass would learn no
// new fact and recover no new access, and a third forward pass would
// repeat F2 (DESIGN.md §10). F2 walks only where it can differ from F1.
func (e *Engine) replayPasses(ps *pathState) {
	e.forwardPass(ps, true)
	if e.cfg.Mode == ModeForwardBackward {
		e.backwardPass(ps, (*Engine).backwardSegment)
		e.forwardPass(ps, false)
	}
}

// sampleAccess converts one PEBS record into the access it directly
// witnessed, with no reconstruction around it.
func (e *Engine) sampleAccess(rec *tracefmt.PEBSRecord, st *Stats) Access {
	store := false
	if in, ok := e.p.InstAt(rec.IP); ok {
		store = in.IsStore()
	}
	st.Sampled++
	return Access{
		TID:    rec.TID,
		PC:     rec.IP,
		Addr:   rec.Addr,
		Store:  store,
		TSC:    rec.TSC,
		Step:   -1,
		Origin: OriginSampled,
	}
}

// forwardPass is the §5.1 forward replay over the path: registers are
// restored at every sample, availability is tracked in the program map,
// and every memory operand whose address becomes computable is recovered.
//
// A full pass walks every step, records fwdAvail and saves checkpoints.
// The fixed schedule's second pass (full false) walks only where it can
// differ from the full pass before it. Wherever it is in that pass's
// state, it resumes from the last checkpoint at or before the next learned
// fact and walks until a sample puts it back in that state; it stops once
// no fact is left (DESIGN.md §10). It returns the steps it walked. A full
// pass also counts the path's memory-access steps into ps.memSteps.
//
// A step pays for its own instruction and one comparison: checkpoints,
// learned facts and samples are handled only at ev, the first step at
// which one of them is due.
func (e *Engine) forwardPass(ps *pathState, full bool) (walked int) {
	var rf regFile // all-unavailable before the first sample
	memSteps := 0
	mem := ps.mem
	clear(mem) // each pass starts with no trusted emulated memory
	memDrop := func() {
		if len(mem) > 0 {
			clear(mem)
		}
	}
	// invalidAddr avoids a map probe per memory step in the common case of
	// no §5.1 invalidations yet. Emulated memory never holds an
	// invalidated address, so a load it serves needs no such check.
	invalid := e.cfg.InvalidAddrs
	hasInvalid := len(invalid) > 0
	invalidAddr := func(addr uint64) bool { return hasInvalid && invalid[addr] }

	samples := newSampleCursor(ps.tt.Samples)
	syncs := syncCursor{s: ps.tt.Sync}
	learned := newFactCursor(ps.learned)
	ckNext := math.MaxInt // the next step to checkpoint at
	if full {
		ps.ckpts, ps.ckMem = ps.ckpts[:0], ps.ckMem[:0]
		ckNext = 0
	}
	nextEvent := func() int { return min(ckNext, learned.next, samples.next) }
	ev := nextEvent()
	ps.beginBlock()
	runs := ps.tt.Path.Runs()
	n := ps.tt.Path.Len()
stretches:
	for from := 0; from < n; {
		if !full {
			// The pass is in the first pass's state at from.
			if learned.next == math.MaxInt {
				return walked
			}
			from = ps.resume(learned.next, &rf, mem)
			ev = nextEvent()
		}
		ri, start := ps.tt.Path.RunAt(from) // runs[ri] holds steps [start, start+Len)
		for ; ri < len(runs); ri++ {
			run := runs[ri]
			base := int(run.Inst) - start // step i executes Insts[base+i]
			first := max(from, start)
			start += int(run.Len)
			ops := e.ops[base+first : base+start]
			for k := range ops {
				// Read the op in place, not as a per-step copy (DESIGN.md
				// §10, "Reading instructions in place").
				o := &ops[k]
				i := first + k
				if i >= ev {
					if i == ckNext {
						ps.saveCheckpoint(i, &rf, mem)
						ckNext = (i/checkpointEvery + 1) * checkpointEvery
					}
					// Apply backward-derived facts for this step's pre-state.
					for _, f := range learned.at(i) {
						if !rf.has(f.reg) {
							rf.set(f.reg, f.val)
						}
					}
					// A sampled step: the record supplies the exact address
					// and the full post-retirement register file.
					if rec := samples.at(i); rec != nil {
						if full {
							ps.fwdAvail[i] = rf.avail
						}
						switch o.kind {
						case opLoad, opStore:
							memSteps++
							ps.recover(i, rec.Addr, OriginSampled)
						case opBad:
							e.badOp(base + i)
						}
						rf = regFileFromSample(rec)
						if e.emulateMemory && !invalidAddr(rec.Addr) {
							if o.kind == opLoad {
								// The loaded value is the post-state of rd.
								mem[rec.Addr] = rf.get(o.rd)
							} else if o.kind == opStore {
								mem[rec.Addr] = rf.get(o.rs)
							}
						}
						if full {
							ckNext = i + 1
						} else if ps.inSyncAt(i+1, len(mem)) {
							walked += i + 1 - from
							from = i + 1
							continue stretches
						}
						ev = nextEvent()
						continue
					}
					ev = nextEvent()
				}
				if full {
					ps.fwdAvail[i] = rf.avail
				}

				switch o.kind {
				case opLoad:
					memSteps++
					if !o.known(rf.avail) {
						rf.clear(o.rd)
						break
					}
					addr := o.addr(&rf)
					ps.recover(i, addr, OriginForward)
					if v, hit := mem[addr]; hit {
						if ps.logLoads {
							ps.logHit(addr)
						}
						rf.set(o.rd, v)
					} else {
						rf.clear(o.rd)
					}
				case opStore:
					memSteps++
					if !o.known(rf.avail) {
						// A store to an unknown location may clobber
						// anything: conservatively invalidate the emulated
						// memory (§5.1).
						memDrop()
						break
					}
					addr := o.addr(&rf)
					ps.recover(i, addr, OriginForward)
					if e.emulateMemory && rf.has(o.rs) && !invalidAddr(addr) {
						mem[addr] = rf.get(o.rs)
					} else {
						delete(mem, addr)
					}
				case opLea:
					if o.known(rf.avail) {
						rf.set(o.rd, o.addr(&rf))
					} else {
						rf.clear(o.rd)
					}

				case opMovi:
					rf.set(o.rd, o.imm)
				case opMov:
					if rf.has(o.rs) {
						rf.set(o.rd, rf.get(o.rs))
					} else {
						rf.clear(o.rd)
					}
				case opALU:
					if rf.has(o.rd) && rf.has(o.rs) {
						v, _ := isa.ALU(o.alu, rf.get(o.rd), rf.get(o.rs))
						rf.set(o.rd, v)
					} else {
						rf.clear(o.rd)
					}
				case opALUImm:
					if rf.has(o.rd) {
						v, _ := isa.ALU(o.alu, rf.get(o.rd), o.imm)
						rf.set(o.rd, v)
					} else {
						rf.clear(o.rd)
					}
				case opSyscall:
					// Emulated memory cannot be trusted across a syscall
					// (§5.1).
					memDrop()
					if rec := syncs.at(i); rec != nil {
						switch rec.Kind {
						case tracefmt.SyncMalloc, tracefmt.SyncThreadCreate:
							// The sync log records the result, so the replay
							// can restore it — this is how heap pointers
							// obtained from malloc become available offline.
							rf.set(isa.R0, rec.Addr)
						case tracefmt.SyncThreadJoin:
							rf.clear(isa.R0) // exit code not logged
						default:
							rf.set(isa.R0, 0)
						}
					} else {
						rf.clear(isa.R0)
					}
				case opBad:
					e.badOp(base + i)
				default:
					// CMP/CMPI set flags only; branches are path-driven.
				}
			}
		}
		if full {
			ps.memSteps = memSteps
		}
		return walked + n - from
	}
	return walked
}

// logHit records that emulated memory served a load of addr. Runs of hits
// on one address are logged once; loadLog sorts out the rest.
func (ps *pathState) logHit(addr uint64) {
	if n := len(ps.hits); n == 0 || ps.hits[n-1] != addr {
		ps.hits = append(ps.hits, addr)
	}
}

// collect turns the recovered steps into the access list, merging the
// passes' ascending blocks and advancing a run cursor alongside them, so
// it costs O(recovered + runs), not O(steps). It counts InvalidHits: the
// recovered unsampled loads of an InvalidAddrs address.
func (e *Engine) collect(ps *pathState, st *Stats) []Access {
	out := make([]Access, 0, len(ps.recs))
	// heads[b] is block b's next entry, ends[b] one past its last.
	heads := ps.blocks
	ps.ends = resizeSlice(ps.ends, len(heads))
	ends := ps.ends
	for b := range ends {
		ends[b] = len(ps.recs)
		if b+1 < len(heads) {
			ends[b] = heads[b+1]
		}
	}
	samples := newSampleCursor(ps.tt.Samples)
	runs := ps.tt.Path.Runs()
	ri, first := 0, 0 // runs[ri] holds steps [first, first+Len)
	for {
		best := -1
		for b, h := range heads {
			if h < ends[b] && (best < 0 || ps.recs[h].step < ps.recs[heads[best]].step) {
				best = b
			}
		}
		if best < 0 {
			break
		}
		r := &ps.recs[heads[best]]
		heads[best]++
		i := int(r.step)
		for first+int(runs[ri].Len) <= i {
			first += int(runs[ri].Len)
			ri++
		}
		idx := int(runs[ri].Inst) + i - first
		a := Access{
			TID:    ps.tt.TID,
			Store:  e.ops[idx].kind == opStore,
			Origin: r.origin,
			PC:     isa.IndexToAddr(idx),
			Addr:   r.addr,
			Step:   i,
		}
		switch r.origin {
		case OriginSampled:
			a.TSC = samples.at(i).TSC
			st.Sampled++
		case OriginForward:
			a.TSC = ps.tt.EstimateTSC(i)
			st.Forward++
		case OriginBackward:
			a.TSC = ps.tt.EstimateTSC(i)
			st.Backward++
		}
		out = append(out, a)
	}
	st.InvalidHits = invalidLoads(out, e.cfg.InvalidAddrs)
	return out
}
