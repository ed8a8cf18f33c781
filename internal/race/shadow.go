package race

import (
	"math/bits"

	"prorace/internal/vc"
)

// This file is the detector's shadow memory: a flat, slab-allocated
// open-addressing table holding every variable's FastTrack state inline.
//
// The previous representation — map[varKey]*varState with two
// map[int32]uint64 provenance tables materialising per read-shared
// variable — pays a pointer dereference plus hash-map overhead per access
// and roughly 300+ heap bytes per variable before sharing even starts; at
// millions of variables the detector is bound by allocator pressure and
// cache misses, not by the O(1) epoch comparisons. The flat table stores
// the complete per-variable state in one 72-byte slot of a single slice:
// a probe lands on the slot and every field the access check needs is on
// the same cache line or its neighbour. Shared-read vector clocks live in
// the deduplicating vc.Interner (identical vectors across variables share
// one slab region), and shared-read provenance (per-thread last PC/TSC)
// lives in the provPool slab — both addressed by 4-byte handles, so the
// slot stays flat and table growth is a plain memmove of inline values.
//
// The table never deletes: variables accumulate for the detector's
// lifetime exactly as the map did, so reports are unaffected by the
// representation. Growth doubles the slot array at 80% load and reinserts;
// interner/provenance handles move with their slots without refcount
// traffic (the number of referencing slots is unchanged).

// slotFlags packs the varState booleans plus slot occupancy.
type slotFlags uint8

const (
	slotUsed slotFlags = 1 << iota
	slotHasWrite
	slotHasRead
	slotShared // read state inflated: rvc/prov valid, r/rPC/rTSC dormant
)

// shadowSlot is one variable's complete FastTrack state, stored inline.
type shadowSlot struct {
	addr  uint64
	w     vc.Epoch // last-write epoch
	wPC   uint64
	wTSC  uint64
	r     vc.Epoch // last-read epoch (exclusive representation)
	rPC   uint64
	rTSC  uint64
	gen   uint32  // malloc/free generation (varKey.gen)
	rvc   vc.Ref  // interned shared-read vector clock
	prov  provRef // shared-read provenance row
	flags slotFlags
}

// shadowSlotSize is the accounting size of one slot (72 bytes: 7×8 inline
// words + gen/rvc/prov/flags padded to the 8-byte alignment of addr).
const shadowSlotSize = 72

// defaultShadowCap is the initial slot count without a capacity hint.
const defaultShadowCap = 1 << 10

// shadowTable is the open-addressing table. Capacity is a power of two;
// linear probing; no deletion.
type shadowTable struct {
	slots []shadowSlot
	shift uint // 64 - log2(len(slots)), for Fibonacci slot hashing
	used  int
	peak  uint64 // high-water table bytes (slot array only)
}

// newShadowTable sizes the initial slot array: capacityHint names the
// expected live variable count (rounded up so the hint fits under the
// load factor), 0 the small default.
func newShadowTable(capacityHint int) shadowTable {
	n := defaultShadowCap
	if capacityHint > 0 {
		// Hint is variables; keep load ≤ 0.8 at the hinted population.
		want := capacityHint + capacityHint/4
		n = 1 << bits.Len(uint(want-1))
		if n < defaultShadowCap {
			n = defaultShadowCap
		}
	}
	t := shadowTable{
		slots: make([]shadowSlot, n),
		shift: uint(64 - bits.Len(uint(n-1))),
	}
	t.peak = t.bytes()
	return t
}

// slotHash mixes address and allocation generation; Fibonacci hashing
// spreads the regular strides of array workloads across the table.
func slotHash(addr uint64, gen uint32) uint64 {
	h := addr ^ (uint64(gen) * 0x9E3779B97F4A7C15)
	return h * 0x9E3779B97F4A7C15
}

// slot returns the variable's state slot, inserting an empty one on first
// access. The pointer is valid until the next slot call (growth may move
// the array).
func (t *shadowTable) slot(addr uint64, gen uint32) *shadowSlot {
	// Grow at 80% load: Fibonacci hashing keeps linear-probe runs short
	// enough that the memory saved beats the extra probe or two, and the
	// hint sizing above targets the same bound.
	if t.used >= len(t.slots)*4/5 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := slotHash(addr, gen) >> t.shift
	for {
		s := &t.slots[i&mask]
		if s.flags == 0 {
			s.addr, s.gen = addr, gen
			s.flags = slotUsed
			t.used++
			return s
		}
		if s.addr == addr && s.gen == gen {
			return s
		}
		i++
	}
}

func (t *shadowTable) grow() {
	old := t.slots
	t.slots = make([]shadowSlot, len(old)*2)
	t.shift = uint(64 - bits.Len(uint(len(t.slots)-1)))
	mask := uint64(len(t.slots) - 1)
	for oi := range old {
		s := &old[oi]
		if s.flags == 0 {
			continue
		}
		i := slotHash(s.addr, s.gen) >> t.shift
		for {
			ns := &t.slots[i&mask]
			if ns.flags == 0 {
				*ns = *s
				break
			}
			i++
		}
	}
	if b := t.bytes(); b > t.peak {
		t.peak = b
	}
}

func (t *shadowTable) bytes() uint64 { return uint64(len(t.slots)) * shadowSlotSize }

// provRef addresses one provenance row in a provPool; 0 is nil.
type provRef uint32

// provEntry is one thread's last shared-read site on one variable. Rows
// are sparse — entries carry their TID — because shared variables have few
// readers but those readers may have high TIDs: a dense-by-TID layout
// would cost pow2(maxTID) entries per variable on wide-thread workloads
// where sparse costs one entry per actual reader.
type provEntry struct {
	pc, tsc uint64
	tid     int32
}

// provRow is the header of one sparse provenance row.
type provRow struct {
	off  uint32
	n    uint32  // live entry count
	cap  uint32  // region capacity (power of two)
	next provRef // free-list chain when retired
}

// provSlabEntries is the slab allocation unit: 32Ki entries = 768KiB.
const provSlabEntries = 1 << 15

// provEntrySize is the accounting size of one entry (two words + tid,
// padded to 8-byte alignment).
const provEntrySize = 24

// provPool slab-allocates provenance rows for read-shared variables: a
// row holds one (tid, PC, TSC) entry per thread that has read the variable
// since it went shared, updated in place on re-reads. Rows are unique per
// variable (unlike the interned clock vectors, provenance rarely repeats
// across variables), but slab storage plus power-of-two size-class
// recycling removes the two Go maps the old varState allocated per shared
// variable. Single-owner, like the detector's interner.
type provPool struct {
	rows  []provRow // rows[0] is a sentinel so provRef 0 stays nil
	slabs [][]provEntry
	free  [33]provRef // retired rows by log2(cap)
}

func newProvPool() provPool {
	return provPool{rows: make([]provRow, 1, 16)}
}

// newRow allocates an empty row with space for capHint entries.
func (p *provPool) newRow(capHint uint32) provRef {
	capE, class := sizeClass(capHint)
	if fr := p.free[class]; fr != 0 {
		p.free[class] = p.rows[fr].next
		r := &p.rows[fr]
		r.n, r.next = 0, 0
		return fr
	}
	off := p.alloc(capE)
	p.rows = append(p.rows, provRow{off: off, cap: capE})
	return provRef(len(p.rows) - 1)
}

// alloc carves capE entries from the tail slab and returns a packed
// (slab, offset) location.
func (p *provPool) alloc(capE uint32) uint32 {
	if len(p.slabs) == 0 {
		p.slabs = append(p.slabs, make([]provEntry, 0, provSlabEntries))
	}
	cur := len(p.slabs) - 1
	tail := p.slabs[cur]
	need := int(capE)
	if need > provSlabEntries {
		p.slabs = append(p.slabs, make([]provEntry, capE))
		return packRowLoc(len(p.slabs)-1, 0)
	}
	if len(tail)+need > cap(tail) {
		p.slabs = append(p.slabs, make([]provEntry, 0, provSlabEntries))
		cur++
		tail = p.slabs[cur]
	}
	off := len(tail)
	p.slabs[cur] = tail[:off+need]
	return packRowLoc(cur, off)
}

// Row locations pack (slab, offset) into 32 bits: 16-bit slab index and
// 16-bit entry offset (slabs hold 2^15 entries, so offsets fit).
func packRowLoc(slab, off int) uint32 { return uint32(slab)<<16 | uint32(off) }
func rowSlab(loc uint32) int          { return int(loc >> 16) }
func rowOff(loc uint32) uint32        { return loc & 0xffff }

// set records thread tid's read site in the row: an existing entry for
// tid is updated in place, a new reader is inserted (growing — and
// possibly replacing — the row when full; ref is updated in place). A row
// is sorted by tid, so finding a reader takes a binary search: a variable
// every thread reads has a row as long as the thread count, and a scan of
// it cost a fifth of detection on a 39-thread trace.
func (p *provPool) set(ref *provRef, tid int32, pc, tsc uint64) {
	if *ref == 0 {
		*ref = p.newRow(2)
	}
	r := &p.rows[*ref]
	region := p.slabs[rowSlab(r.off)][rowOff(r.off) : rowOff(r.off)+r.n]
	i, found := searchTID(region, tid)
	if found {
		region[i].pc, region[i].tsc = pc, tsc
		return
	}
	if r.n == r.cap {
		// Grow: allocate the next class, copy, retire the old row.
		old := *ref
		or := p.rows[old]
		nref := p.newRow(or.cap * 2)
		r = &p.rows[nref]
		newRegion := p.slabs[rowSlab(r.off)][rowOff(r.off) : rowOff(r.off)+or.n]
		copy(newRegion, region)
		r.n = or.n
		p.release(old)
		*ref = nref
	}
	row := p.slabs[rowSlab(r.off)][rowOff(r.off) : rowOff(r.off)+r.n+1]
	copy(row[i+1:], row[i:r.n])
	row[i] = provEntry{pc: pc, tsc: tsc, tid: tid}
	r.n++
}

// searchTID returns where tid's entry is, or belongs, in a row sorted by
// tid, and whether it is there.
func searchTID(row []provEntry, tid int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].tid < tid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].tid == tid
}

// get returns thread tid's recorded read site (zero when absent).
func (p *provPool) get(ref provRef, tid int32) (pc, tsc uint64) {
	if ref == 0 {
		return 0, 0
	}
	r := &p.rows[ref]
	region := p.slabs[rowSlab(r.off)][rowOff(r.off) : rowOff(r.off)+r.n]
	if i, found := searchTID(region, tid); found {
		return region[i].pc, region[i].tsc
	}
	return 0, 0
}

// release retires a row into its size-class free list.
func (p *provPool) release(ref provRef) {
	r := &p.rows[ref]
	_, class := sizeClass(r.cap)
	r.next = p.free[class]
	p.free[class] = ref
}

// bytes is the pool's resident footprint: slab capacity plus headers.
func (p *provPool) bytes() uint64 {
	var slabBytes uint64
	for _, s := range p.slabs {
		slabBytes += uint64(cap(s)) * provEntrySize
	}
	const rowSize = 16 // provRow: 4×4
	return slabBytes + uint64(cap(p.rows))*rowSize
}

// sizeClass returns the power-of-two capacity covering n and its log2
// (n = 0 shares class 0 with n = 1).
func sizeClass(n uint32) (capacity uint32, class int) {
	capacity = 1
	for capacity < n {
		capacity <<= 1
		class++
	}
	return capacity, class
}
