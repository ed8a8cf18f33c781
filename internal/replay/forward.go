package replay

import (
	"cmp"
	"math"
	"slices"

	"prorace/internal/isa"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// regFacts is a flat register-fact set: the backward-derived pre-state
// values to apply at one step. A fixed array instead of a nested map keeps
// the learned-fact bookkeeping allocation-free on the replay hot path.
type regFacts struct {
	avail uint16 // bit i set = a fact for register i
	val   [isa.NumRegs]uint64
}

// stepFacts is the regFacts learned for one step's pre-state.
type stepFacts struct {
	step  int
	facts regFacts
}

func (f *regFacts) set(r isa.Reg, v uint64) {
	f.val[r] = v
	f.avail |= 1 << r
}

// pathState carries the per-path working arrays shared by the forward and
// backward passes of one reconstruction. States are pooled by the
// engine and reset per thread, so steady-state reconstruction reuses the
// slices and map buckets of earlier threads instead of reallocating them.
type pathState struct {
	tt     *synthesis.ThreadTrace
	origin []Origin // per step; originNone when unrecovered
	known  []bool   // per step; true once the address is recovered
	addrs  []uint64 // recovered address per step
	// fwdAvail records each step's pre-state register availability from
	// the latest forward pass, so the backward pass can tell which of its
	// facts are new.
	fwdAvail []uint16
	// learned holds backward-derived pre-state register values, one entry
	// per step in ascending step order, applied by the second forward pass
	// through a factCursor.
	learned []stepFacts
	// mem is the forward pass's emulated-memory map, cleared at every pass
	// and reused so its buckets survive across passes and threads.
	mem map[uint64]uint64
	// loads tallies address-known loads per address for the thread's
	// LoadLog when logLoads is set. Reused like mem.
	loads    map[uint64]loadEntry
	logLoads bool
	// recovered counts steps with known[i] set — the exact capacity the
	// access list needs (upper-bounded by Stats.MemSteps).
	recovered int
}

// resetSlice returns s resized to n and zeroed, reusing capacity.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset prepares a (possibly pooled) state for one thread, tallying its
// loads when logLoads is set.
func (ps *pathState) reset(tt *synthesis.ThreadTrace, logLoads bool) {
	n := tt.Path.Len()
	ps.tt = tt
	ps.origin = resetSlice(ps.origin, n)
	ps.known = resetSlice(ps.known, n)
	ps.addrs = resetSlice(ps.addrs, n)
	ps.fwdAvail = resetSlice(ps.fwdAvail, n)
	ps.learned = ps.learned[:0]
	if ps.mem == nil {
		ps.mem = map[uint64]uint64{}
	}
	if logLoads && ps.loads == nil {
		ps.loads = map[uint64]loadEntry{}
	}
	ps.logLoads = logLoads
	ps.recovered = 0
}

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
// sampleCursor; the facts must ascend by step with one entry per step.
type factCursor struct {
	f    []stepFacts
	next int // step of f[0]; math.MaxInt past the end
}

func newFactCursor(f []stepFacts) factCursor {
	c := factCursor{f: f, next: math.MaxInt}
	if len(f) > 0 {
		c.next = f[0].step
	}
	return c
}

// at returns the facts learned for step, nil if none. Steps must be asked
// in ascending order, every step of the path.
func (c *factCursor) at(step int) *regFacts {
	if step != c.next {
		return nil
	}
	f := &c.f[0].facts
	c.f = c.f[1:]
	c.next = math.MaxInt
	if len(c.f) > 0 {
		c.next = c.f[0].step
	}
	return f
}

// learnedSlot returns the step's fact slot, creating it if needed. A
// backward walk asks for steps in non-increasing order, so the step's slot,
// if any, is the last entry. The pointer is only valid until the next
// learnedSlot call — the slice may grow under it.
func (ps *pathState) learnedSlot(step int) *regFacts {
	if n := len(ps.learned); n > 0 && ps.learned[n-1].step == step {
		return &ps.learned[n-1].facts
	}
	ps.learned = append(ps.learned, stepFacts{step: step})
	return &ps.learned[len(ps.learned)-1].facts
}

// release drops every reference into the thread's trace so a pooled state
// never pins decoded paths or samples beyond its use.
func (ps *pathState) release() {
	ps.tt = nil
	clear(ps.mem)
	clear(ps.loads)
}

// loadLog freezes the tallied loads into the thread's LoadLog.
func (ps *pathState) loadLog() *LoadLog {
	log := &LoadLog{entries: make([]loadEntry, 0, len(ps.loads))}
	for addr, en := range ps.loads {
		en.addr = addr
		log.entries = append(log.entries, en)
	}
	slices.SortFunc(log.entries, func(a, b loadEntry) int { return cmp.Compare(a.addr, b.addr) })
	return log
}

// reconstructPath runs the path-guided modes (Forward, ForwardBackward)
// with the given pass schedule, returning the thread's LoadLog when
// logLoads is set.
func (e *Engine) reconstructPath(tt *synthesis.ThreadTrace, logLoads bool, passes func(*Engine, *pathState, *Stats)) ([]Access, Stats, *LoadLog) {
	ps := e.states.Get().(*pathState)
	if ps.origin != nil {
		e.met.recycles.Inc() // warm state: prior capacity is being reused
	}
	defer func() {
		ps.release()
		e.states.Put(ps)
	}()
	ps.reset(tt, logLoads)
	var st Stats
	st.PathSteps = tt.Path.Len()
	for _, r := range tt.Path.Runs {
		st.MemSteps += e.p.MemAccessesIn(int(r.Inst), int(r.Inst+r.Len))
	}

	passes(e, ps, &st)
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
		log = ps.loadLog()
	}
	return accesses, st, log
}

// replayPasses is the pass schedule of the path-guided modes. ModeForward
// runs one forward pass (F1). ModeForwardBackward runs F1, one backward
// pass (B1) that learns register facts F1 lacked, and a second forward
// pass (F2) that applies them. That is the fixed point: F2's state
// contains F1's at every step, so a further backward pass would learn no
// new fact and recover no new access, and a third forward pass would
// repeat F2 (DESIGN.md §10).
func (e *Engine) replayPasses(ps *pathState, st *Stats) {
	e.forwardPass(ps, st)
	if e.cfg.Mode == ModeForwardBackward {
		e.backwardPass(ps, (*Engine).backwardSegment)
		e.forwardPass(ps, st)
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

// forwardPass is the §5.1 forward replay over the whole path: registers are
// restored at every sample, availability is tracked in the program map, and
// every memory operand whose address becomes computable is recovered.
func (e *Engine) forwardPass(ps *pathState, st *Stats) {
	var rf regFile // all-unavailable before the first sample
	mem := ps.mem
	clear(mem) // each pass starts with no trusted emulated memory
	memDrop := func() {
		if len(mem) > 0 {
			clear(mem)
		}
	}
	// invalidAddr avoids a map probe per memory step in the common case of
	// no §5.1 invalidations yet.
	invalid := e.cfg.InvalidAddrs
	hasInvalid := len(invalid) > 0
	invalidAddr := func(addr uint64) bool { return hasInvalid && invalid[addr] }

	samples := newSampleCursor(ps.tt.Samples)
	syncs := syncCursor{s: ps.tt.Sync}
	learned := newFactCursor(ps.learned)
	for _, run := range ps.tt.Path.Runs {
		insts := e.p.Insts[run.Inst : run.Inst+run.Len]
		for k := range insts {
			// Read the instruction in place: with a per-step copy to the
			// stack, the loop's speed depended on where the goroutine's
			// stack sat (DESIGN.md §10, "Reading instructions in place").
			in := &insts[k]
			i := int(run.Step) + k
			pc := isa.IndexToAddr(int(run.Inst) + k)
			// Apply backward-derived facts for this step's pre-state.
			if facts := learned.at(i); facts != nil {
				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					if facts.avail&(1<<r) != 0 && !rf.has(r) {
						rf.set(r, facts.val[r])
					}
				}
			}
			ps.fwdAvail[i] = rf.avail

			// A sampled step: the record supplies the exact address and the
			// full post-retirement register file.
			if rec := samples.at(i); rec != nil {
				if !ps.known[i] {
					ps.known[i] = true
					ps.origin[i] = OriginSampled
					ps.addrs[i] = rec.Addr
					ps.recovered++
				}
				rf = regFileFromSample(rec)
				if e.emulateMemory && !invalidAddr(rec.Addr) {
					if in.Op == isa.LOAD {
						// The loaded value is the post-state of rd.
						mem[rec.Addr] = rf.get(in.Rd)
					} else if in.Op == isa.STORE {
						mem[rec.Addr] = rf.get(in.Rs)
					}
				}
				continue
			}

			switch in.Op {
			case isa.LOAD, isa.STORE, isa.LEA:
				addr, okAddr := addrOf(in, &rf, pc)
				if okAddr && in.IsMemAccess() && !ps.known[i] {
					ps.known[i] = true
					ps.origin[i] = OriginForward
					ps.addrs[i] = addr
					ps.recovered++
				}
				switch in.Op {
				case isa.LOAD:
					v, hit := mem[addr]
					if okAddr && ps.logLoads {
						en := ps.loads[addr]
						en.loads++
						en.memHit = en.memHit || hit
						ps.loads[addr] = en
					}
					if okAddr && hit && e.emulateMemory && !invalidAddr(addr) {
						rf.set(in.Rd, v)
					} else {
						if okAddr && invalidAddr(addr) {
							st.InvalidHits++
						}
						rf.clear(in.Rd)
					}
				case isa.STORE:
					if !okAddr {
						// A store to an unknown location may clobber anything:
						// conservatively invalidate the emulated memory (§5.1).
						memDrop()
					} else if e.emulateMemory && rf.has(in.Rs) && !invalidAddr(addr) {
						mem[addr] = rf.get(in.Rs)
					} else {
						delete(mem, addr)
					}
				case isa.LEA:
					if okAddr {
						rf.set(in.Rd, addr)
					} else {
						rf.clear(in.Rd)
					}
				}

			case isa.MOVI:
				rf.set(in.Rd, uint64(in.Imm))
			case isa.MOV:
				if rf.has(in.Rs) {
					rf.set(in.Rd, rf.get(in.Rs))
				} else {
					rf.clear(in.Rd)
				}
			case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
				if rf.has(in.Rd) && rf.has(in.Rs) {
					v, _ := in.ALU(rf.get(in.Rd), rf.get(in.Rs))
					rf.set(in.Rd, v)
				} else {
					rf.clear(in.Rd)
				}
			case isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
				if rf.has(in.Rd) {
					v, _ := in.ALU(rf.get(in.Rd), 0)
					rf.set(in.Rd, v)
				} else {
					rf.clear(in.Rd)
				}
			case isa.SYSCALL:
				// Emulated memory cannot be trusted across a syscall (§5.1).
				memDrop()
				if rec := syncs.at(i); rec != nil {
					switch rec.Kind {
					case tracefmt.SyncMalloc, tracefmt.SyncThreadCreate:
						// The sync log records the result, so the replay can
						// restore it — this is how heap pointers obtained from
						// malloc become available offline.
						rf.set(isa.R0, rec.Addr)
					case tracefmt.SyncThreadJoin:
						rf.clear(isa.R0) // exit code not logged
					default:
						rf.set(isa.R0, 0)
					}
				} else {
					rf.clear(isa.R0)
				}
			default:
				// CMP/CMPI set flags only; branches are path-driven.
			}
		}
	}
}

// collect turns the per-step recovery state into the access list. The
// slice is sized once from the recovery count (a tight version of the
// Stats.MemSteps upper bound), so appending never regrows it.
func (e *Engine) collect(ps *pathState, st *Stats) []Access {
	out := make([]Access, 0, ps.recovered)
	samples := newSampleCursor(ps.tt.Samples)
	for _, run := range ps.tt.Path.Runs {
		insts := e.p.Insts[run.Inst : run.Inst+run.Len]
		for k := range insts {
			in := &insts[k]
			i := int(run.Step) + k
			if !ps.known[i] || !in.IsMemAccess() {
				continue
			}
			a := Access{
				TID:    ps.tt.TID,
				PC:     isa.IndexToAddr(int(run.Inst) + k),
				Addr:   ps.addrs[i],
				Store:  in.IsStore(),
				Step:   i,
				Origin: ps.origin[i],
			}
			switch ps.origin[i] {
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
	}
	return out
}
