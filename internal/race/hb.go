package race

import (
	"prorace/internal/tracefmt"
	"prorace/internal/vc"
)

// hbState is the happens-before bookkeeping every detector in this package
// shares: per-thread vector clocks, the clocks of synchronization objects
// (locks, condition variables, barriers), thread create/exit snapshots for
// the fork/join edges, and the malloc/free generation map that keeps two
// objects reusing one address apart (§4.3). Detector, PairOracle and the
// tests' DjitDetector embed it so the sync semantics are defined exactly
// once — a divergence here would silently break their equivalence.
type hbState struct {
	trackAlloc bool

	// threads holds each thread's clock, indexed by TID and grown on
	// demand. A clock is looked up for every access, so this is an index,
	// not a map; a vector clock is itself dense by TID, so the table costs
	// about what one clock does.
	threads []*vc.VC
	locks   map[uint64]*vc.VC
	conds   map[uint64]*vc.VC
	bars    map[uint64]*vc.VC
	exited  map[int32]*vc.VC
	created map[int32]*vc.VC // child tid -> parent clock at create

	// allocation generation per 16-byte granule
	allocGen map[uint64]uint32
}

func newHBState(trackAllocations bool) hbState {
	return hbState{
		trackAlloc: trackAllocations,
		locks:      map[uint64]*vc.VC{},
		conds:      map[uint64]*vc.VC{},
		bars:       map[uint64]*vc.VC{},
		exited:     map[int32]*vc.VC{},
		created:    map[int32]*vc.VC{},
		allocGen:   map[uint64]uint32{},
	}
}

const granule = 16

func (s *hbState) clock(tid int32) *vc.VC {
	if int(tid) >= len(s.threads) {
		s.threads = append(s.threads, make([]*vc.VC, int(tid)+1-len(s.threads))...)
	}
	c := s.threads[tid]
	if c == nil {
		c = vc.New()
		c.Set(tid, 1)
		s.threads[tid] = c
	}
	return c
}

// genOf returns the allocation generation covering addr.
func (s *hbState) genOf(addr uint64) uint32 {
	if !s.trackAlloc {
		return 0
	}
	return s.allocGen[addr&^uint64(granule-1)]
}

// HandleSync processes one synchronization record, updating the thread and
// object clocks with the paper's §4.3 happens-before edges: lock release →
// acquire, condition signal → wake, barrier all-to-all, thread create →
// begin, and exit → join.
func (s *hbState) HandleSync(rec *tracefmt.SyncRecord) {
	tid := rec.TID
	c := s.clock(tid)
	switch rec.Kind {
	case tracefmt.SyncLock:
		if l := s.locks[rec.Addr]; l != nil {
			c.Join(l)
		}
	case tracefmt.SyncUnlock:
		l := s.locks[rec.Addr]
		if l == nil {
			l = vc.New()
			s.locks[rec.Addr] = l
		}
		l.Assign(c)
		c.Tick(tid)
	case tracefmt.SyncCondWait:
		// The waiter releases its mutex at the wait (the paired wake edge
		// arrives as SyncCondWake).
		l := s.locks[rec.Aux]
		if l == nil {
			l = vc.New()
			s.locks[rec.Aux] = l
		}
		l.Assign(c)
		c.Tick(tid)
	case tracefmt.SyncCondSignal, tracefmt.SyncCondBroadcast:
		sig := s.conds[rec.Addr]
		if sig == nil {
			sig = vc.New()
			s.conds[rec.Addr] = sig
		}
		sig.Join(c)
		c.Tick(tid)
	case tracefmt.SyncCondWake:
		if sig := s.conds[rec.Addr]; sig != nil {
			c.Join(sig)
		}
		if l := s.locks[rec.Aux]; l != nil {
			c.Join(l) // mutex reacquired on wake
		}
	case tracefmt.SyncBarrier:
		b := s.bars[rec.Addr]
		if b == nil {
			b = vc.New()
			s.bars[rec.Addr] = b
		}
		b.Join(c)
		c.Tick(tid)
	case tracefmt.SyncBarrierWake:
		if b := s.bars[rec.Addr]; b != nil {
			c.Join(b)
		}
	case tracefmt.SyncThreadCreate:
		child := int32(rec.Addr)
		s.created[child] = c.Copy()
		c.Tick(tid)
	case tracefmt.SyncThreadBegin:
		if parent := s.created[tid]; parent != nil {
			c.Join(parent)
		}
	case tracefmt.SyncThreadExit:
		s.exited[tid] = c.Copy()
	case tracefmt.SyncThreadJoin:
		if ev := s.exited[int32(rec.Addr)]; ev != nil {
			c.Join(ev)
		}
	case tracefmt.SyncMalloc:
		if s.trackAlloc {
			end := rec.Addr + rec.Aux
			for a := rec.Addr &^ uint64(granule-1); a < end; a += granule {
				s.allocGen[a]++
			}
		}
	case tracefmt.SyncFree:
		// Generation bumps on malloc; free needs no action.
	}
}
