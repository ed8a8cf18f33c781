package replay

import (
	"math/bits"
	"slices"

	"prorace/internal/isa"
)

// maxBackwardSteps bounds one backward walk.
const maxBackwardSteps = 200_000

// backwardPass implements §5.2: for each segment ending at a PEBS sample,
// walk the path backwards from the sample, propagating the sample's
// register file towards each register's last definition (backward
// propagation) and un-executing invertible instructions (reverse
// execution). Memory operands whose address registers become known are
// recovered; register facts that the forward pass lacked are recorded as
// learned facts for the second forward pass (the paper's "yet another
// forward replay starting from the youngest instruction"). walk is the
// per-segment walk: backwardSegment, or a test's reference.
func (e *Engine) backwardPass(ps *pathState, walk segmentWalk) {
	ps.beginBlock()
	samples := ps.tt.Samples
	for k := range samples {
		hi := samples[k].StepIndex
		lo := 0
		if k > 0 {
			lo = samples[k-1].StepIndex + 1
		}
		if hi-lo > maxBackwardSteps {
			lo = hi - maxBackwardSteps
		}
		// A walk records facts and recoveries in non-increasing step order;
		// reversing its blocks keeps ps.learned and the pass's block of
		// ps.recs ascending, since segments are disjoint and visited in
		// ascending order.
		facts, recs := len(ps.learned), len(ps.recs)
		walk(e, ps, lo, hi, regFileFromSample(&samples[k].Rec))
		slices.Reverse(ps.learned[facts:])
		slices.Reverse(ps.recs[recs:])
	}
}

// segmentWalk walks one segment [lo, hi] backwards from cur, the post-state
// of step hi, and returns the lowest step it walked (hi+1 if none).
type segmentWalk func(e *Engine, ps *pathState, lo, hi int, cur regFile) int

// backwardSegment walks [lo, hi] in reverse. cur enters as the post-state
// of step hi (the sample's register file) and is transformed into earlier
// pre-states step by step. The walk stops where cur's availability is
// contained in the first forward pass's: from there down it can neither
// learn a fact nor recover an access (DESIGN.md §10). That requires
// fwdAvail to come from a forward pass that applied no learned facts.
func (e *Engine) backwardSegment(ps *pathState, lo, hi int, cur regFile) int {
	runs := ps.tt.Path.Runs()
	// runs[ri] holds the steps [first, first+Len).
	ri, first := ps.tt.Path.RunAt(hi)
	for i := hi; i >= lo; i-- {
		// cur is the pre-state of step i+1.
		if i < hi && cur.avail&^ps.fwdAvail[i+1] == 0 {
			return i + 1
		}
		if i < first {
			ri--
			first -= int(runs[ri].Len)
		}
		idx := int(runs[ri].Inst) + i - first
		o := &e.ops[idx]
		if o.kind == opBad {
			e.badOp(idx)
		}

		// Derive the pre-state of step i from its post-state in cur —
		// but first record, for the register this step defines (every
		// instruction defines at most one) if its post-value is known, a
		// learned fact at step i+1 (the pre-state of the following step).
		// The second forward pass restores the value right where backward
		// propagation reached its definition — the paper's "yet another
		// forward replay starting from the youngest instruction".
		var (
			postVal uint64
			postHas bool
		)
		if o.def != isa.NoReg {
			postHas, postVal = cur.has(o.def), cur.get(o.def)
		}
		e.unexecute(&e.p.Insts[idx], &cur)
		if postHas && (!cur.has(o.def) || cur.get(o.def) != postVal) {
			ps.learnFact(hi, i+1, o.def, postVal)
		}
		if i == hi {
			continue // step hi is the sample: its address is already known
		}

		// cur is now the pre-state of step i: evaluate the memory operand.
		if o.isMem() && o.known(cur.avail) && !ps.isKnown(i) {
			ps.recover(i, o.addr(&cur), OriginBackward)
		}

		// Record facts the forward pass lacked, but only where they can
		// pay off: at memory operands forward could not resolve.
		for m := o.need & cur.avail &^ ps.fwdAvail[i]; m != 0; m &= m - 1 {
			r := isa.Reg(bits.TrailingZeros16(m))
			ps.learn(i, r, cur.get(r))
		}
	}
	return lo
}

// learnFact records a learned fact at step for the second forward pass,
// unless the forward pass already had the register there.
func (ps *pathState) learnFact(hi, step int, r isa.Reg, v uint64) {
	if step > hi || ps.fwdAvail[step]&(1<<r) != 0 {
		return
	}
	ps.learn(step, r, v)
}

// unexecute transforms cur from the post-state of in to its pre-state.
// Registers the instruction does not define are unchanged. Defined
// registers are recovered where the paper's reverse execution can
// (§5.2.2): immediate add/sub/xor are bijections; MOV establishes an
// equality; two-register add/sub recover one operand from the other; LEA
// with a base-only operand is an addition by a constant.
func (e *Engine) unexecute(in *isa.Inst, cur *regFile) {
	switch in.Op {
	case isa.MOV:
		// post[rd] == pre[rs]; pre[rd] is lost.
		if cur.has(in.Rd) {
			v := cur.get(in.Rd)
			cur.clear(in.Rd)
			cur.set(in.Rs, v)
		} else {
			cur.clear(in.Rd)
		}
		if in.Rd == in.Rs {
			// mov r, r: value unchanged; restore availability.
			return
		}

	case isa.ADDI, isa.SUBI, isa.XORI:
		if cur.has(in.Rd) {
			if pre, ok := in.Invert(cur.get(in.Rd)); ok {
				cur.set(in.Rd, pre)
			}
		}

	case isa.ADD, isa.SUB, isa.XOR:
		// post = pre OP src. src (Rs) is not modified, so cur[Rs] is its
		// value throughout — unless Rd == Rs.
		if in.Rd == in.Rs {
			// post = pre OP pre: the pre-state is not recoverable (ADD
			// loses a parity bit, SUB and XOR collapse to 0).
			cur.clear(in.Rd)
			return
		}
		if cur.has(in.Rd) && cur.has(in.Rs) {
			post, src := cur.get(in.Rd), cur.get(in.Rs)
			if in.Op == isa.XOR {
				cur.set(in.Rd, post^src)
				return
			}
			if pre, ok := in.InvertRegPair(post, src, true); ok {
				cur.set(in.Rd, pre)
				return
			}
		}
		cur.clear(in.Rd)

	case isa.LEA:
		// rd = base + disp (ModeBase): pre[base] = post[rd] - disp.
		if in.Mode == isa.ModeBase && cur.has(in.Rd) {
			base := cur.get(in.Rd) - uint64(in.Disp)
			if in.Rd != in.Base {
				cur.clear(in.Rd)
			}
			cur.set(in.Base, base)
			return
		}
		cur.clear(in.Rd)

	case isa.MOVI:
		// pre[rd] lost, but going backwards we could even *check* the
		// constant; availability of rd before the write is unknown.
		cur.clear(in.Rd)

	case isa.LOAD:
		cur.clear(in.Rd)

	case isa.MUL, isa.AND, isa.OR, isa.SHL, isa.SHR,
		isa.MULI, isa.ANDI, isa.ORI, isa.SHLI, isa.SHRI:
		cur.clear(in.Rd)

	case isa.SYSCALL:
		cur.clear(isa.R0)
	}
}
