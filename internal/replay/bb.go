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
		in := e.p.Insts[instIdx]
		if !in.IsMemAccess() {
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
			Store:  in.IsStore(),
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
		in := e.p.Insts[idx]
		switch in.Op {
		case isa.LOAD, isa.STORE, isa.LEA:
			addr, okAddr := addrOf(&in, &rf, isa.IndexToAddr(idx))
			if okAddr {
				emit(idx, addr, OriginBB)
			}
			switch in.Op {
			case isa.LOAD:
				rf.clear(in.Rd) // no memory emulation in RaceZ mode
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
			rf.clear(isa.R0)
		}
	}

	// Trivial backward propagation: walking backwards, a register is known
	// as long as no instruction between it and the sample redefines it.
	// (The sampled values are post-state; un-define the sampled
	// instruction's own defs first.)
	rb := regFileFromSample(rec)
	var regBuf [2]isa.Reg
	for _, d := range e.p.Insts[sampleIdx].AppendDefs(regBuf[:0]) {
		rb.clear(d)
	}
	for idx := sampleIdx - 1; idx >= blk.Start; idx-- {
		in := e.p.Insts[idx]
		// The instruction's defs were overwritten after this point: their
		// pre-state is unknown (RaceZ has no reverse execution).
		for _, d := range in.AppendDefs(regBuf[:0]) {
			rb.clear(d)
		}
		if in.IsMemAccess() {
			if addr, okAddr := addrOf(&in, &rb, isa.IndexToAddr(idx)); okAddr {
				emit(idx, addr, OriginBB)
			}
		}
	}
	return out
}
