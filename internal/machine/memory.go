package machine

import "encoding/binary"

// pageBits/pageSize define the sparse-memory granularity.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]byte

// pageCacheSize is the number of entries in Memory's direct-mapped cache
// of recently used pages (a power of two).
const pageCacheSize = 64

type pageCacheEntry struct {
	pn uint64
	p  *page
}

// Memory is the machine's byte-addressable sparse memory. Reads of unmapped
// pages return zeroes; writes allocate pages on demand. All threads share
// one Memory — data races in the workload are real races on these bytes
// (made deterministic per run by the seeded scheduler).
type Memory struct {
	pages map[uint64]*page
	// cache fronts pages, indexed by the page number's low bits, so a load
	// or store to a recently used page skips the map. Pages are never
	// freed, so an entry stays valid once filled.
	cache [pageCacheSize]pageCacheEntry
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageBits
	e := &m.cache[pn&(pageCacheSize-1)]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(page)
		m.pages[pn] = p
	}
	e.pn, e.p = pn, p
	return p
}

// Load8 reads the 64-bit little-endian word at addr. Unaligned and
// page-straddling accesses are supported.
func (m *Memory) Load8(addr uint64) uint64 {
	if addr&pageMask <= pageSize-8 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[addr&pageMask:])
	}
	var b [8]byte
	m.ReadBytes(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Store8 writes the 64-bit little-endian word at addr.
func (m *Memory) Store8(addr uint64, v uint64) {
	if addr&pageMask <= pageSize-8 {
		p := m.pageFor(addr, true)
		binary.LittleEndian.PutUint64(p[addr&pageMask:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:])
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := pageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		p := m.pageFor(addr, false)
		if p == nil {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:off+n])
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := pageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		p := m.pageFor(addr, true)
		copy(p[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// MappedBytes returns the number of bytes in allocated pages, for tests and
// diagnostics.
func (m *Memory) MappedBytes() uint64 {
	return uint64(len(m.pages)) * pageSize
}
