package ptdecode

import (
	"fmt"
	"reflect"
	"slices"

	"prorace/internal/isa"
	"prorace/internal/prog"
)

// DiffReference decodes stream with DecodeWith and with the step-at-a-time
// reference walk and describes their first difference ("" if none): the
// error, the expanded PCs, or any other Path field. It also checks the
// run invariants documented on Path. The run decoder's path is returned.
func DiffReference(p *prog.Program, tid int32, stream []byte, opts Options) (*Path, string) {
	got, gotErr := DecodeWith(p, tid, stream, opts)
	wantPCs, want, wantErr := decodeSteps(p, tid, stream, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return got, fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if got == nil || want == nil {
		if got != want {
			return got, fmt.Sprintf("path %v, reference %v", got, want)
		}
		return got, ""
	}
	if msg := runInvariant(p, got); msg != "" {
		return got, msg
	}
	pcs := pcsOf(got)
	if i := firstDiff(pcs, wantPCs); i >= 0 {
		return got, fmt.Sprintf("%d steps, reference %d; first difference at step %d", len(pcs), len(wantPCs), i)
	}
	rest := *got
	rest.runs, rest.steps, rest.starts = nil, 0, nil
	if !reflect.DeepEqual(&rest, want) {
		return got, fmt.Sprintf("path fields %+v, reference %+v", rest, *want)
	}
	return got, ""
}

// pcsOf expands a path into one instruction address per step.
func pcsOf(p *Path) []uint64 {
	out := make([]uint64, 0, p.Len())
	for _, r := range p.Runs() {
		for k := 0; k < int(r.Len); k++ {
			out = append(out, isa.IndexToAddr(int(r.Inst)+k))
		}
	}
	return out
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// runInvariant describes the first broken Path invariant: runs are
// non-empty, stay inside the text segment, and are maximal (no run
// continues its predecessor's instructions), and Len and RunAt agree with
// the runs' lengths.
func runInvariant(p *prog.Program, path *Path) string {
	runs := path.Runs()
	next := 0
	for k, r := range runs {
		switch {
		case r.Len == 0:
			return fmt.Sprintf("run %d is empty", k)
		case int(r.Inst)+int(r.Len) > len(p.Insts):
			return fmt.Sprintf("run %d leaves the text segment", k)
		case k > 0 && runs[k-1].Inst+runs[k-1].Len == r.Inst:
			return fmt.Sprintf("run %d continues run %d", k, k-1)
		}
		// RunAt at both ends of the runs its index entries start and end
		// at: the rest are scans between those.
		if k%runIndexStride == 0 || k%runIndexStride == runIndexStride-1 {
			for _, step := range []int{next, next + int(r.Len) - 1} {
				if ri, first := path.RunAt(step); ri != k || first != next {
					return fmt.Sprintf("RunAt(%d) = %d, %d; want run %d from step %d", step, ri, first, k, next)
				}
			}
		}
		next += int(r.Len)
	}
	if path.Len() != next {
		return fmt.Sprintf("Len() = %d, the runs hold %d steps", path.Len(), next)
	}
	return ""
}

// nextBit consumes one conditional outcome for the reference walk,
// refilling first when none is pending; ok is false at stream end.
func (d *decoder) nextBit() (taken, ok bool) {
	if d.tntN == 0 {
		if d.refill(); d.tntN == 0 {
			return false, false
		}
	}
	return d.takeBit(), true
}

// decodeSteps is the reference walk the run decoder must reproduce: it
// advances one instruction per step, looking each address up in the text
// segment, and records one PC per step. It shares the decoder's packet
// handling, so the two differ only in how they walk. The returned path
// carries everything but the runs; pcs is the executed sequence.
func decodeSteps(p *prog.Program, tid int32, stream []byte, opts Options) (pcs []uint64, path *Path, err error) {
	d := newDecoder(p, tid, stream, opts)
	pc, ok := d.anchorPC()
	if !ok {
		if d.lastErr != nil {
			return nil, nil, fmt.Errorf("ptdecode: tid %d: %w", tid, d.lastErr)
		}
		return nil, d.path, nil
	}
	// stop truncates the walk after the decoder's tail drain.
	stop := func(truncated bool) ([]uint64, *Path, error) {
		d.finish()
		d.path.Truncated = d.path.Truncated || truncated
		return pcs, d.path, d.lastErr
	}

	for d.steps < d.maxSteps {
		in, okInst := p.InstAt(pc)
		if !okInst {
			if pc == 0 {
				return stop(false)
			}
			if pc2, okR := d.reanchor(fmt.Sprintf("wild jump to %#x", pc)); okR {
				pc = pc2
				continue
			}
			d.path.Truncated = true
			break
		}
		idx, _ := isa.AddrToIndex(pc)
		d.runEnd = idx + 1 // the decoder's walkPC is this step's pc
		pcs = append(pcs, pc)
		d.steps++

		switch {
		case in.IsCondBranch():
			taken, okBit := d.nextBit()
			if !okBit {
				if pc2, okR := d.reanchor("missing TNT bit"); okR {
					pc = pc2
					continue
				}
				return stop(true)
			}
			if taken {
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
				return stop(true)
			}
			pc = target
		case in.Op == isa.RET:
			if d.tntN == 0 && d.tips.len() == 0 {
				d.refill()
			}
			switch {
			case d.tntN > 0:
				taken, _ := d.nextBit()
				n := len(d.stack)
				if !taken || n == 0 {
					if pc2, okR := d.reanchor("return desync"); okR {
						pc = pc2
						continue
					}
					return stop(true)
				}
				pc = d.stack[n-1]
				d.stack = d.stack[:n-1]
			case d.tips.len() > 0:
				pc, _ = d.nextTIP()
				d.stack = d.stack[:0]
			default:
				if pc2, okR := d.reanchor("missing return packet"); okR {
					pc = pc2
					continue
				}
				return stop(true)
			}
		case in.IsIndirectBranch():
			target, okTip := d.nextTIP()
			if !okTip {
				if pc2, okR := d.reanchor("missing TIP target"); okR {
					pc = pc2
					continue
				}
				return stop(true)
			}
			pc = target
		case in.Op == isa.HALT, in.Op == isa.SYSCALL && in.Sys == isa.SysExit:
			return stop(false)
		default:
			pc += isa.InstSize
		}
	}
	return stop(false)
}
