package replay

import (
	"prorace/internal/isa"
	"prorace/internal/synthesis"
	"prorace/internal/tracefmt"
)

// reconstructBB is the RaceZ baseline (paper §2, §7.5): reconstruction is
// confined to the static basic block containing each sample. Forward, the
// sample's register file is propagated with availability tracking but no
// memory emulation across blocks; backward, only trivial backward
// propagation is supported — a register whose value was not redefined
// between an earlier instruction and the sample held the sampled value.
// No PT path is needed (RaceZ does not collect one).
func (e *Engine) reconstructBB(tt *synthesis.ThreadTrace) ([]Access, Stats) {
	var st Stats
	var out []Access
	// In BB mode samples may come either pinned (if a path existed) or
	// unpinned; both reconstruct identically from the static block.
	for i := range tt.Samples {
		out = append(out, e.bbForRecord(&tt.Samples[i].Rec, &st)...)
	}
	for i := range tt.UnpinnedSamples {
		out = append(out, e.bbForRecord(&tt.UnpinnedSamples[i], &st)...)
	}
	return out, st
}

// bbForRecord reconstructs around one sample inside its basic block.
func (e *Engine) bbForRecord(rec *tracefmt.PEBSRecord, st *Stats) []Access {
	blk, ok := e.p.BlockContaining(rec.IP)
	if !ok {
		return nil
	}
	sampleIdx, _ := isa.AddrToIndex(rec.IP)

	var out []Access
	emit := func(instIdx int, addr uint64, origin Origin) {
		o := &e.ops[instIdx]
		if !o.isMem() {
			return
		}
		// TSC estimate: one cycle per instruction around the sample.
		tsc := rec.TSC
		if d := instIdx - sampleIdx; d >= 0 {
			tsc += uint64(d)
		} else {
			du := uint64(-d)
			if du > tsc {
				du = tsc
			}
			tsc -= du
		}
		out = append(out, Access{
			TID:    rec.TID,
			PC:     isa.IndexToAddr(instIdx),
			Addr:   addr,
			Store:  o.kind == opStore,
			TSC:    tsc,
			Step:   -1,
			Origin: origin,
		})
		if origin == OriginSampled {
			st.Sampled++
		} else {
			st.BasicBlock++
		}
	}

	emit(sampleIdx, rec.Addr, OriginSampled)

	// Forward within the block from the sample's post-state.
	rf := regFileFromSample(rec)
	for idx := sampleIdx + 1; idx < blk.End; idx++ {
		o := &e.ops[idx]
		switch o.kind {
		case opLoad, opStore, opLea:
			okAddr := o.known(rf.avail)
			var addr uint64
			if okAddr {
				addr = o.addr(&rf)
				emit(idx, addr, OriginBB)
			}
			switch o.kind {
			case opLoad:
				rf.clear(o.rd) // no memory emulation in RaceZ mode
			case opLea:
				if okAddr {
					rf.set(o.rd, addr)
				} else {
					rf.clear(o.rd)
				}
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
			rf.clear(isa.R0)
		case opBad:
			e.badOp(idx)
		}
	}

	// Trivial backward propagation: walking backwards, a register is known
	// as long as no instruction between it and the sample redefines it.
	// (The sampled values are post-state; un-define the sampled
	// instruction's own def first.)
	rb := regFileFromSample(rec)
	for idx := sampleIdx; idx >= blk.Start; idx-- {
		o := &e.ops[idx]
		if o.kind == opBad {
			e.badOp(idx)
		}
		// The instruction's def was overwritten after this point: its
		// pre-state is unknown (RaceZ has no reverse execution).
		if o.def != isa.NoReg {
			rb.clear(o.def)
		}
		if idx < sampleIdx && o.isMem() && o.known(rb.avail) {
			emit(idx, o.addr(&rb), OriginBB)
		}
	}
	return out
}
