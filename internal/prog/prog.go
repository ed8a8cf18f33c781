// Package prog represents executable programs for the simulated machine:
// a text segment of ISA instructions, an initialised data segment, a symbol
// table, and function boundaries. It is the stand-in for the unmodified
// x86-64 ELF binaries ProRace traces and later re-executes offline.
//
// The package also computes basic blocks and a control-flow graph, which the
// RaceZ baseline (single-basic-block reconstruction) and the PT decoder
// both consume.
package prog

import (
	"fmt"
	"sort"
	"sync"

	"prorace/internal/isa"
)

// SymKind classifies a symbol.
type SymKind uint8

const (
	// SymFunc marks a function entry point in the text segment.
	SymFunc SymKind = iota
	// SymData marks a global object in the data segment.
	SymData
)

// Symbol is one entry of the program's symbol table.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Kind SymKind
}

// Program is a loaded executable image.
type Program struct {
	// Name identifies the program (workload name).
	Name string
	// Insts is the text segment, addressed from isa.CodeBase.
	Insts []isa.Inst
	// Data is the initial content of the data segment at isa.DataBase.
	Data []byte
	// Symbols is the symbol table, sorted by address within each kind.
	Symbols []Symbol
	// Entry is the address of the first instruction thread 0 executes.
	Entry uint64

	// Lazily built indexes. Each is built once under its sync.Once, so
	// concurrent analyses of one program may share it.
	blocksOnce sync.Once
	blocks     []Block // basic blocks
	blockIdx   []int32 // instruction index -> block number
	funcsOnce  sync.Once
	funcsByAd  []Symbol // function symbols sorted by address
	exitsOnce  sync.Once
	exits      []Exit // instruction index -> where its straight-line code ends
	sysOnce    sync.Once
	sysPrefix  []int32 // k -> SYSCALL instructions among Insts[:k]
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 {
	return isa.CodeBase + uint64(len(p.Insts))*isa.InstSize
}

// TextRegion returns the [start, end) address range of the text segment —
// what ProRace programs into a PT address-range filter to trace only the
// main executable (paper §4.2).
func (p *Program) TextRegion() (start, end uint64) {
	return isa.CodeBase, p.TextEnd()
}

// InstAt returns the instruction at an address; ok is false if the address
// is not a valid instruction address of this program.
func (p *Program) InstAt(addr uint64) (isa.Inst, bool) {
	idx, ok := isa.AddrToIndex(addr)
	if !ok || idx >= len(p.Insts) {
		return isa.Inst{}, false
	}
	return p.Insts[idx], true
}

// MustInstAt is InstAt for addresses known to be valid; it panics otherwise.
func (p *Program) MustInstAt(addr uint64) isa.Inst {
	in, ok := p.InstAt(addr)
	if !ok {
		panic(fmt.Sprintf("prog: no instruction at %#x", addr))
	}
	return in
}

// Lookup finds a symbol by name.
func (p *Program) Lookup(name string) (Symbol, bool) {
	for _, s := range p.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// MustLookup is Lookup for symbols known to exist; it panics otherwise.
func (p *Program) MustLookup(name string) Symbol {
	s, ok := p.Lookup(name)
	if !ok {
		panic("prog: unknown symbol " + name)
	}
	return s
}

// FuncContaining returns the function symbol whose range covers addr.
func (p *Program) FuncContaining(addr uint64) (Symbol, bool) {
	p.funcsOnce.Do(func() {
		for _, s := range p.Symbols {
			if s.Kind == SymFunc {
				p.funcsByAd = append(p.funcsByAd, s)
			}
		}
		sort.Slice(p.funcsByAd, func(i, j int) bool { return p.funcsByAd[i].Addr < p.funcsByAd[j].Addr })
	})
	i := sort.Search(len(p.funcsByAd), func(i int) bool { return p.funcsByAd[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	f := p.funcsByAd[i-1]
	if f.Size > 0 && addr >= f.Addr+f.Size {
		return Symbol{}, false
	}
	return f, true
}

// SymbolizeAddr renders an address as "func+0xoff" when possible, for race
// reports.
func (p *Program) SymbolizeAddr(addr uint64) string {
	if f, ok := p.FuncContaining(addr); ok {
		if addr == f.Addr {
			return f.Name
		}
		return fmt.Sprintf("%s+%#x", f.Name, addr-f.Addr)
	}
	return fmt.Sprintf("%#x", addr)
}

// SymbolizeData renders a data address as "global+off" when a data symbol
// covers it.
func (p *Program) SymbolizeData(addr uint64) string {
	for _, s := range p.Symbols {
		if s.Kind == SymData && addr >= s.Addr && addr < s.Addr+s.Size {
			if addr == s.Addr {
				return s.Name
			}
			return fmt.Sprintf("%s+%d", s.Name, addr-s.Addr)
		}
	}
	return fmt.Sprintf("%#x", addr)
}

// Validate checks structural invariants: direct branch and call targets fall
// on instruction boundaries inside the text segment, the entry point is
// valid, memory-operand scales are legal, and symbols do not collide.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("prog %s: empty text segment", p.Name)
	}
	if _, ok := p.InstAt(p.Entry); !ok {
		return fmt.Errorf("prog %s: entry point %#x invalid", p.Name, p.Entry)
	}
	for k, in := range p.Insts {
		switch in.Op {
		case isa.JMP, isa.JEQ, isa.JNE, isa.JLT, isa.JLE, isa.JGT, isa.JGE, isa.CALL:
			tgt := uint64(in.Imm)
			if _, ok := p.InstAt(tgt); !ok {
				return fmt.Errorf("prog %s: instruction %d (%v) targets invalid address %#x", p.Name, k, in, tgt)
			}
		}
		if in.HasMemOperand() && in.Mode == isa.ModeBaseIndex {
			switch in.Scale {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("prog %s: instruction %d has invalid scale %d", p.Name, k, in.Scale)
			}
		}
	}
	seen := map[string]bool{}
	for _, s := range p.Symbols {
		if seen[s.Name] {
			return fmt.Errorf("prog %s: duplicate symbol %q", p.Name, s.Name)
		}
		seen[s.Name] = true
		if s.Kind == SymFunc {
			if _, ok := p.InstAt(s.Addr); !ok {
				return fmt.Errorf("prog %s: function symbol %q at invalid address %#x", p.Name, s.Name, s.Addr)
			}
		}
	}
	return nil
}

// LoadStoreDensity returns the fraction of text-segment instructions that
// access memory. This is what determines the PEBS event rate of a workload.
func (p *Program) LoadStoreDensity() float64 {
	if len(p.Insts) == 0 {
		return 0
	}
	n := 0
	for _, in := range p.Insts {
		if in.IsMemAccess() {
			n++
		}
	}
	return float64(n) / float64(len(p.Insts))
}
