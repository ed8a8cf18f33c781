package replay

import (
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
// forward replay starting from the youngest instruction").
func (e *Engine) backwardPass(ps *pathState) {
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
		e.backwardSegment(ps, lo, hi, regFileFromSample(&samples[k].Rec))
	}
}

// backwardSegment walks [lo, hi] in reverse. cur enters as the post-state
// of step hi (the sample's register file) and is transformed into earlier
// pre-states step by step.
func (e *Engine) backwardSegment(ps *pathState, lo, hi int, cur regFile) {
	pcs := ps.tt.Path.PCs
	var regBuf [2]isa.Reg // stack scratch for AppendDefs/AppendAddrRegs
	for i := hi; i >= lo; i-- {
		in, okInst := e.p.InstAt(pcs[i])
		if !okInst {
			break
		}

		// Derive the pre-state of step i from its post-state in cur —
		// but first record, for each register this step defines and whose
		// post-value we know, a learned fact at step i+1 (the pre-state of
		// the following step). The second forward pass restores the value
		// right where backward propagation reached its definition — the
		// paper's "yet another forward replay starting from the youngest
		// instruction".
		post := cur
		e.unexecute(in, &cur)
		for _, d := range in.AppendDefs(regBuf[:0]) {
			if post.has(d) && (!cur.has(d) || cur.get(d) != post.get(d)) {
				ps.learnFact(hi, i+1, d, post.get(d))
			}
		}

		// cur is now the pre-state of step i: evaluate the memory operand.
		// Step hi itself is the sample — already known.
		if i < hi && in.IsMemAccess() && !ps.known[i] {
			if addr, ok := addrOf(in, &cur, pcs[i]); ok {
				ps.known[i] = true
				ps.origin[i] = OriginBackward
				ps.addrs[i] = addr
				ps.recovered++
			}
		}

		// Record facts the forward pass lacked, but only where they can
		// pay off: at memory operands forward could not resolve.
		if i < hi && in.HasMemOperand() {
			for _, r := range in.AppendAddrRegs(regBuf[:0]) {
				if cur.has(r) && ps.fwdAvail[i]&(1<<r) == 0 {
					ps.learnedSlot(i).set(r, cur.get(r))
				}
			}
		}
	}
}

// learnFact records a learned fact at step for the second forward pass,
// unless the forward pass already had the register there.
func (ps *pathState) learnFact(hi, step int, r isa.Reg, v uint64) {
	if step > hi || ps.fwdAvail[step]&(1<<r) != 0 {
		return
	}
	ps.learnedSlot(step).set(r, v)
}

// unexecute transforms cur from the post-state of in to its pre-state.
// Registers the instruction does not define are unchanged. Defined
// registers are recovered where the paper's reverse execution can
// (§5.2.2): immediate add/sub/xor are bijections; MOV establishes an
// equality; two-register add/sub recover one operand from the other; LEA
// with a base-only operand is an addition by a constant.
func (e *Engine) unexecute(in isa.Inst, cur *regFile) {
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
