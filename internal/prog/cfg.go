package prog

import (
	"prorace/internal/isa"
)

// Block is a basic block: a maximal straight-line sequence of instructions
// with one entry (the first instruction) and one exit (the last).
type Block struct {
	// ID is the block's index in Program.Blocks().
	ID int
	// Start and End delimit the block as instruction indices [Start, End).
	Start, End int
	// Succs lists the IDs of possible successor blocks. Indirect branches
	// (JMPR, CALLR, RET) have no statically known successors here; the PT
	// trace resolves them at decode time.
	Succs []int
}

// StartAddr returns the address of the block's first instruction.
func (b Block) StartAddr() uint64 { return isa.IndexToAddr(b.Start) }

// EndAddr returns the first address past the block.
func (b Block) EndAddr() uint64 { return isa.IndexToAddr(b.End) }

// Len returns the number of instructions in the block.
func (b Block) Len() int { return b.End - b.Start }

// Contains reports whether the instruction address falls inside the block.
func (b Block) Contains(addr uint64) bool {
	idx, ok := isa.AddrToIndex(addr)
	return ok && idx >= b.Start && idx < b.End
}

// Blocks returns the program's basic blocks, computing them on first use.
// It is safe for concurrent use.
func (p *Program) Blocks() []Block {
	p.blocksOnce.Do(p.buildBlocks)
	return p.blocks
}

// buildBlocks computes the basic blocks and the instruction-to-block index.
//
// Leaders are: instruction 0, every direct branch/call target, and every
// instruction following a block-ending instruction. This is the classic
// leader algorithm; it needs no path information, matching what a static
// disassembler of the binary can do — which is all RaceZ's single-basic-
// block reconstruction has to work with.
func (p *Program) buildBlocks() {
	n := len(p.Insts)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for k, in := range p.Insts {
		switch in.Op {
		case isa.JMP, isa.JEQ, isa.JNE, isa.JLT, isa.JLE, isa.JGT, isa.JGE, isa.CALL:
			if idx, ok := isa.AddrToIndex(uint64(in.Imm)); ok && idx < n {
				leader[idx] = true
			}
		}
		if in.EndsBlock() && k+1 < n {
			leader[k+1] = true
		}
	}
	// Function entry points are leaders too (indirect call targets).
	for _, s := range p.Symbols {
		if s.Kind == SymFunc {
			if idx, ok := isa.AddrToIndex(s.Addr); ok && idx < n {
				leader[idx] = true
			}
		}
	}

	p.blockIdx = make([]int32, n)
	var blocks []Block
	start := 0
	for k := 1; k <= n; k++ {
		if k == n || leader[k] {
			b := Block{ID: len(blocks), Start: start, End: k}
			blocks = append(blocks, b)
			for j := start; j < k; j++ {
				p.blockIdx[j] = int32(b.ID)
			}
			start = k
		}
	}

	// Successors.
	addrToBlock := func(addr uint64) (int, bool) {
		idx, ok := isa.AddrToIndex(addr)
		if !ok || idx >= n {
			return 0, false
		}
		return int(p.blockIdx[idx]), true
	}
	for bi := range blocks {
		b := &blocks[bi]
		last := p.Insts[b.End-1]
		addSucc := func(addr uint64) {
			if id, ok := addrToBlock(addr); ok {
				b.Succs = append(b.Succs, id)
			}
		}
		switch {
		case last.Op == isa.JMP:
			addSucc(uint64(last.Imm))
		case last.IsCondBranch():
			addSucc(uint64(last.Imm))
			addSucc(isa.IndexToAddr(b.End)) // fall through
		case last.Op == isa.CALL:
			addSucc(uint64(last.Imm))
		case last.IsIndirectBranch():
			// unknown statically
		case last.FallThrough() && b.End < n:
			addSucc(isa.IndexToAddr(b.End))
		}
	}
	p.blocks = blocks
}

// Exit is where straight-line code starting at an instruction ends.
type Exit struct {
	// Term is the index of the first block-ending instruction
	// (isa.Inst.EndsBlock) at or after the instruction, or len(Insts) when
	// straight-line code runs off the end of the text segment. Everything
	// up to Term executes unconditionally.
	Term int32
	// Taken is the index a conditional branch at Term jumps to when taken,
	// or -1 when Term is no conditional branch or its target is no
	// instruction of the text segment.
	Taken int32
}

// Exits returns the Exit of straight-line code starting at each
// instruction index. It is what lets the PT decoder consume a whole
// straight-line run at once, and follow a conditional branch by index,
// without converting addresses; a decode reads the table once, not
// through its sync.Once per block. The table is shared; callers must not
// modify it. It is safe for concurrent use.
func (p *Program) Exits() []Exit {
	p.exitsOnce.Do(func() {
		n := len(p.Insts)
		p.exits = make([]Exit, n)
		next := Exit{Term: int32(n), Taken: -1}
		for k := n - 1; k >= 0; k-- {
			if in := &p.Insts[k]; in.EndsBlock() {
				next = Exit{Term: int32(k), Taken: -1}
				if t, ok := isa.AddrToIndex(uint64(in.Imm)); ok && t < n && in.IsCondBranch() {
					next.Taken = int32(t)
				}
			}
			p.exits[k] = next
		}
	})
	return p.exits
}

// SyscallsIn returns how many of the instructions at indexes [lo, hi) are
// SYSCALLs, from a per-program prefix count, so a straight-line run
// without one is skipped after two lookups. It is safe
// for concurrent use.
func (p *Program) SyscallsIn(lo, hi int) int {
	p.sysOnce.Do(func() {
		p.sysPrefix = p.prefixCount(func(in *isa.Inst) bool { return in.Op == isa.SYSCALL })
	})
	return int(p.sysPrefix[hi] - p.sysPrefix[lo])
}

// prefixCount returns c with c[k] the number of instructions among
// Insts[:k] that satisfy pred.
func (p *Program) prefixCount(pred func(*isa.Inst) bool) []int32 {
	c := make([]int32, len(p.Insts)+1)
	for k := range p.Insts {
		c[k+1] = c[k]
		if pred(&p.Insts[k]) {
			c[k+1]++
		}
	}
	return c
}

// BlockContaining returns the basic block covering the instruction address.
func (p *Program) BlockContaining(addr uint64) (Block, bool) {
	idx, ok := isa.AddrToIndex(addr)
	if !ok || idx >= len(p.Insts) {
		return Block{}, false
	}
	blocks := p.Blocks()
	return blocks[p.blockIdx[idx]], true
}
