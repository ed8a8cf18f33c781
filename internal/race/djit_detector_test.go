package race

import (
	"prorace/internal/replay"
	"prorace/internal/tracefmt"
	"prorace/internal/vc"
)

// DjitDetector implements DJIT+ (Pozniansky & Schuster), the full
// vector-clock race detector FastTrack was designed to improve upon: every
// variable keeps a complete read vector clock and write vector clock, so
// each access costs O(threads) where FastTrack's adaptive epochs cost O(1)
// in the common case. It detects exactly the same races. It lives in the
// package's tests: the equivalence suite holds FastTrack to it, and
// BenchmarkDetectorFastTrackVsDjit shows FastTrack's speedup over it on the
// same extended trace.
type DjitDetector struct {
	opts Options

	hbState // shared sync-clock machinery (hb.go)

	vars map[varKey]*djitVar

	reports []Report
	seen    map[[2]uint64]bool
	// RacyAddrs mirrors Detector's feedback output.
	RacyAddrs map[uint64]bool
}

// djitVar is DJIT+'s per-variable state: full vector clocks for reads and
// writes, plus the last PC per thread for reporting.
type djitVar struct {
	r, w       *vc.VC
	rPCs, wPCs map[int32]uint64
}

// NewDjitDetector creates a DJIT+ detector.
func NewDjitDetector(opts Options) *DjitDetector {
	if opts.MaxReports == 0 {
		opts.MaxReports = 10000
	}
	return &DjitDetector{
		opts:      opts,
		hbState:   newHBState(opts.TrackAllocations),
		vars:      map[varKey]*djitVar{},
		seen:      map[[2]uint64]bool{},
		RacyAddrs: map[uint64]bool{},
	}
}

// DetectDjit runs DJIT+ over a trace, through the same event merge as
// Detect.
func DetectDjit(sync []tracefmt.SyncRecord, accesses map[int32][]replay.Access, opts Options) *DjitDetector {
	d := NewDjitDetector(opts)
	Feed(d, sync, accesses)
	return d
}

// Reports returns the deduplicated race reports.
func (d *DjitDetector) Reports() []Report { return d.reports }

// Finish is a no-op, satisfying ReportSink.
func (d *DjitDetector) Finish() {}

// RacyAddrSet returns the distinct racy addresses, for the §5.1 feedback.
func (d *DjitDetector) RacyAddrSet() map[uint64]bool { return d.RacyAddrs }

// HandleAccess processes one memory access: full vector-clock comparison
// on every access, DJIT+ style.
func (d *DjitDetector) HandleAccess(a *replay.Access) {
	tid := a.TID
	c := d.clock(tid)
	key := varKey{addr: a.Addr, gen: d.genOf(a.Addr)}
	v := d.vars[key]
	if v == nil {
		v = &djitVar{r: vc.New(), w: vc.New(), rPCs: map[int32]uint64{}, wPCs: map[int32]uint64{}}
		d.vars[key] = v
	}
	me := c.Get(tid)

	// Conflicts with prior writes (any access) and prior reads (writes).
	d.checkAgainst(a, v.w, v.wPCs, true, c)
	if a.Store {
		d.checkAgainst(a, v.r, v.rPCs, false, c)
		v.w.Set(tid, me)
		v.wPCs[tid] = a.PC
	} else {
		v.r.Set(tid, me)
		v.rPCs[tid] = a.PC
	}
}

// checkAgainst reports a race for every thread whose entry in the
// variable's clock is not covered by the current thread's clock. The scan
// covers the vector's true length (it used to clamp at TID 64, silently
// skipping readers beyond — the same unclamping is applied to every
// detector so they stay equivalent on wide traces).
func (d *DjitDetector) checkAgainst(a *replay.Access, varVC *vc.VC, pcs map[int32]uint64, priorIsWrite bool, c *vc.VC) {
	for t := int32(0); int(t) < varVC.Len(); t++ {
		cl := varVC.Get(t)
		if cl == 0 || t == a.TID {
			continue
		}
		if cl > c.Get(t) {
			d.report(a, AccessInfo{TID: t, PC: pcs[t], Write: priorIsWrite})
		}
	}
}

func (d *DjitDetector) report(a *replay.Access, prior AccessInfo) {
	d.RacyAddrs[a.Addr] = true
	r := Report{
		Addr:   a.Addr,
		First:  prior,
		Second: AccessInfo{TID: a.TID, PC: a.PC, Write: a.Store, TSC: a.TSC},
	}
	if d.seen[r.Key()] || len(d.reports) >= d.opts.MaxReports {
		return
	}
	d.seen[r.Key()] = true
	d.reports = append(d.reports, r)
}
