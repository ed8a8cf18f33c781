package prog

import (
	"slices"
	"testing"

	"prorace/internal/isa"
)

// tinyProgram builds a small two-function program by hand:
//
//	main:
//	  0: movi r0, 10
//	  1: cmpi r0, 0
//	  2: jeq  +5 (exit)
//	  3: subi r0, 1
//	  4: jmp  1
//	  5: movi r0, 0
//	  6: syscall exit
//	helper:
//	  7: load r1, 0(pc)
//	  8: ret
func tinyProgram() *Program {
	insts := []isa.Inst{
		{Op: isa.MOVI, Rd: isa.R0, Imm: 10},
		{Op: isa.CMPI, Rd: isa.R0, Imm: 0},
		{Op: isa.JEQ, Imm: int64(isa.IndexToAddr(5))},
		{Op: isa.SUBI, Rd: isa.R0, Imm: 1},
		{Op: isa.JMP, Imm: int64(isa.IndexToAddr(1))},
		{Op: isa.MOVI, Rd: isa.R0, Imm: 0},
		{Op: isa.SYSCALL, Sys: isa.SysExit},
		{Op: isa.LOAD, Rd: isa.R1, Mode: isa.ModePCRel, Disp: 0x100},
		{Op: isa.RET},
	}
	return &Program{
		Name:  "tiny",
		Insts: insts,
		Data:  make([]byte, 64),
		Entry: isa.CodeBase,
		Symbols: []Symbol{
			{Name: "main", Addr: isa.IndexToAddr(0), Size: 7 * isa.InstSize, Kind: SymFunc},
			{Name: "helper", Addr: isa.IndexToAddr(7), Size: 2 * isa.InstSize, Kind: SymFunc},
			{Name: "g", Addr: isa.DataBase, Size: 16, Kind: SymData},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := tinyProgram()
	p.Insts[2].Imm = int64(isa.CodeBase + 3) // unaligned
	if err := p.Validate(); err == nil {
		t.Error("unaligned branch target must fail validation")
	}
	p = tinyProgram()
	p.Insts[4].Imm = int64(isa.IndexToAddr(100)) // out of range
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch target must fail validation")
	}
}

func TestValidateCatchesBadEntryAndDuplicates(t *testing.T) {
	p := tinyProgram()
	p.Entry = 0
	if err := p.Validate(); err == nil {
		t.Error("bad entry must fail")
	}
	p = tinyProgram()
	p.Symbols = append(p.Symbols, Symbol{Name: "main", Addr: isa.CodeBase, Kind: SymFunc})
	if err := p.Validate(); err == nil {
		t.Error("duplicate symbol must fail")
	}
	p = &Program{Name: "empty", Entry: isa.CodeBase}
	if err := p.Validate(); err == nil {
		t.Error("empty program must fail")
	}
}

func TestInstAt(t *testing.T) {
	p := tinyProgram()
	in, ok := p.InstAt(isa.IndexToAddr(3))
	if !ok || in.Op != isa.SUBI {
		t.Fatalf("InstAt(3) = %v, %v", in, ok)
	}
	if _, ok := p.InstAt(isa.IndexToAddr(9)); ok {
		t.Error("address past text must fail")
	}
	if _, ok := p.InstAt(isa.CodeBase + 1); ok {
		t.Error("unaligned address must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInstAt must panic on bad address")
		}
	}()
	p.MustInstAt(0)
}

func TestLookupAndSymbolize(t *testing.T) {
	p := tinyProgram()
	s, ok := p.Lookup("helper")
	if !ok || s.Addr != isa.IndexToAddr(7) {
		t.Fatalf("Lookup(helper) = %+v, %v", s, ok)
	}
	if _, ok := p.Lookup("nothere"); ok {
		t.Error("Lookup of a missing symbol must fail")
	}
	if got := p.SymbolizeAddr(isa.IndexToAddr(8)); got != "helper+0x20" {
		t.Errorf("SymbolizeAddr = %q", got)
	}
	if got := p.SymbolizeAddr(isa.IndexToAddr(0)); got != "main" {
		t.Errorf("SymbolizeAddr(entry) = %q", got)
	}
	if got := p.SymbolizeData(isa.DataBase + 8); got != "g+8" {
		t.Errorf("SymbolizeData = %q", got)
	}
	if got := p.SymbolizeData(isa.DataBase + 1000); got == "g" {
		t.Errorf("SymbolizeData out of symbol = %q", got)
	}
}

func TestFuncContaining(t *testing.T) {
	p := tinyProgram()
	f, ok := p.FuncContaining(isa.IndexToAddr(4))
	if !ok || f.Name != "main" {
		t.Fatalf("FuncContaining(4) = %+v, %v", f, ok)
	}
	f, ok = p.FuncContaining(isa.IndexToAddr(8))
	if !ok || f.Name != "helper" {
		t.Fatalf("FuncContaining(8) = %+v, %v", f, ok)
	}
	if _, ok := p.FuncContaining(isa.CodeBase - isa.InstSize); ok {
		t.Error("address before any function must fail")
	}
}

func TestBlocks(t *testing.T) {
	p := tinyProgram()
	blocks := p.Blocks()
	// Expected leaders: 0 (entry), 1 (branch target of 4), 3 (after jeq),
	// 5 (target of jeq / after jmp), 7 (after exit + function entry).
	wantStarts := []int{0, 1, 3, 5, 7}
	if len(blocks) != len(wantStarts) {
		t.Fatalf("got %d blocks, want %d: %+v", len(blocks), len(wantStarts), blocks)
	}
	for i, ws := range wantStarts {
		if blocks[i].Start != ws {
			t.Errorf("block %d starts at %d, want %d", i, blocks[i].Start, ws)
		}
	}
	// Conditional block (insts 1-2) has two successors: block at 5 and
	// fall-through block at 3.
	b1 := blocks[1]
	if len(b1.Succs) != 2 {
		t.Fatalf("cond block succs = %v", b1.Succs)
	}
	// Block containing inst 4 (jmp) goes to block starting at 1.
	b2 := blocks[2]
	if len(b2.Succs) != 1 || blocks[b2.Succs[0]].Start != 1 {
		t.Errorf("jmp block succs = %v", b2.Succs)
	}
	// RET block has no static successors.
	last := blocks[len(blocks)-1]
	if len(last.Succs) != 0 {
		t.Errorf("ret block must have no static successors, got %v", last.Succs)
	}
	// BlockContaining agreement.
	blk, ok := p.BlockContaining(isa.IndexToAddr(4))
	if !ok || !blk.Contains(isa.IndexToAddr(4)) || blk.Start != 3 {
		t.Errorf("BlockContaining(4) = %+v, %v", blk, ok)
	}
	if _, ok := p.BlockContaining(0); ok {
		t.Error("BlockContaining outside text must fail")
	}
	if blk.StartAddr() != isa.IndexToAddr(3) || blk.EndAddr() != isa.IndexToAddr(5) || blk.Len() != 2 {
		t.Errorf("block geometry wrong: %+v", blk)
	}
}

func TestTextRegionAndDensity(t *testing.T) {
	p := tinyProgram()
	start, end := p.TextRegion()
	if start != isa.CodeBase || end != isa.CodeBase+9*isa.InstSize {
		t.Errorf("TextRegion = %#x..%#x", start, end)
	}
	got := p.LoadStoreDensity()
	want := 1.0 / 9.0 // one LOAD among nine instructions
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("LoadStoreDensity = %v, want %v", got, want)
	}
	if (&Program{}).LoadStoreDensity() != 0 {
		t.Error("empty program density must be 0")
	}
}

func TestSyscallsIn(t *testing.T) {
	p := tinyProgram()
	for lo := 0; lo <= len(p.Insts); lo++ {
		for hi := lo; hi <= len(p.Insts); hi++ {
			sys := 0
			for _, in := range p.Insts[lo:hi] {
				if in.Op == isa.SYSCALL {
					sys++
				}
			}
			if got := p.SyscallsIn(lo, hi); got != sys {
				t.Errorf("SyscallsIn(%d, %d) = %d, want %d", lo, hi, got, sys)
			}
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := tinyProgram()
	img := EncodeImage(p)
	q, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Entry != p.Entry || len(q.Insts) != len(p.Insts) ||
		len(q.Data) != len(p.Data) || len(q.Symbols) != len(p.Symbols) {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	for i := range p.Insts {
		if q.Insts[i] != p.Insts[i] {
			t.Fatalf("instruction %d mismatch", i)
		}
	}
	for i := range p.Symbols {
		if q.Symbols[i] != p.Symbols[i] {
			t.Fatalf("symbol %d mismatch: %+v vs %+v", i, q.Symbols[i], p.Symbols[i])
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImageErrors(t *testing.T) {
	p := tinyProgram()
	img := EncodeImage(p)
	if _, err := DecodeImage(img[:10]); err == nil {
		t.Error("truncated image must fail")
	}
	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	if _, err := DecodeImage(bad); err == nil {
		t.Error("bad magic must fail")
	}
	bad = append([]byte(nil), img...)
	bad[4] = 99 // version
	if _, err := DecodeImage(bad); err == nil {
		t.Error("bad version must fail")
	}
}

func TestExits(t *testing.T) {
	p := tinyProgram()
	want := []Exit{
		{Term: 2, Taken: 5}, {Term: 2, Taken: 5}, {Term: 2, Taken: 5},
		{Term: 4, Taken: -1}, {Term: 4, Taken: -1},
		{Term: 6, Taken: -1}, {Term: 6, Taken: -1},
		{Term: 8, Taken: -1}, {Term: 8, Taken: -1},
	}
	if got := p.Exits(); !slices.Equal(got, want) {
		t.Fatalf("Exits() = %v, want %v", got, want)
	}

	// A conditional branch out of the text segment has no Taken index, and
	// straight-line code off its end has no terminator.
	p = tinyProgram()
	p.Insts[2].Imm = int64(isa.IndexToAddr(100))
	p.Insts = p.Insts[:8] // ends in the helper's load
	want = []Exit{
		{Term: 2, Taken: -1}, {Term: 2, Taken: -1}, {Term: 2, Taken: -1},
		{Term: 4, Taken: -1}, {Term: 4, Taken: -1},
		{Term: 6, Taken: -1}, {Term: 6, Taken: -1},
		{Term: 8, Taken: -1},
	}
	if got := p.Exits(); !slices.Equal(got, want) {
		t.Fatalf("Exits() = %v, want %v", got, want)
	}
}
