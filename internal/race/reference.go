package race

import (
	"prorace/internal/replay"
	"prorace/internal/tracefmt"
	"prorace/internal/vc"
)

// ReferenceDetector is the pre-flat-table FastTrack implementation,
// preserved verbatim as the differential baseline for the slab shadow
// table: per-variable state in map[varKey]*varState with heap vector
// clocks and two provenance maps per read-shared variable. It exists for
// two jobs only — byte-identical differential tests against Detector, and
// the memscale experiment's before/after memory measurement — and is not
// on any production path.
//
// The one deliberate delta from the historical code: the shared-read scan
// runs over the vector's true length instead of clamping at TID 64, the
// same unclamping applied to Detector and the tests' DjitDetector; on
// traces with TIDs below 64 (every sanitized trace the pipeline produced
// to date) the behaviour is bit-identical.
type ReferenceDetector struct {
	opts Options

	hbState // shared sync-clock machinery (hb.go)

	vars map[varKey]*varState

	reports []Report
	seen    map[[2]uint64]bool
	// RacyAddrs mirrors Detector's feedback output.
	RacyAddrs map[uint64]bool
}

// varState is the reference per-variable state: a write epoch and an
// adaptive read representation (epoch or heap vector clock plus two
// provenance maps).
type varState struct {
	w        vc.Epoch
	wPC      uint64
	wTSC     uint64
	r        vc.Epoch
	rPC      uint64
	rTSC     uint64
	rShared  *vc.VC
	rPCs     map[int32]uint64 // per-thread read PCs when shared
	rTSCs    map[int32]uint64
	hasWrite bool
	hasRead  bool
}

// NewReferenceDetector creates the map-based baseline detector.
func NewReferenceDetector(opts Options) *ReferenceDetector {
	if opts.MaxReports == 0 {
		opts.MaxReports = 10000
	}
	return &ReferenceDetector{
		opts:      opts,
		hbState:   newHBState(opts.TrackAllocations),
		vars:      map[varKey]*varState{},
		seen:      map[[2]uint64]bool{},
		RacyAddrs: map[uint64]bool{},
	}
}

// HandleSync processes one synchronization record.
func (d *ReferenceDetector) HandleSync(rec *tracefmt.SyncRecord) {
	d.hbState.HandleSync(rec)
}

// HandleAccess processes one memory access with the historical map-based
// state representation.
func (d *ReferenceDetector) HandleAccess(a *replay.Access) {
	tid := a.TID
	c := d.clock(tid)
	key := varKey{addr: a.Addr, gen: d.genOf(a.Addr)}
	v := d.vars[key]
	if v == nil {
		v = &varState{}
		d.vars[key] = v
	}
	me := c.EpochOf(tid)

	if a.Store {
		if v.hasWrite && v.w.TID() != tid && !v.w.LEQ(c) {
			d.report(a, AccessInfo{TID: v.w.TID(), PC: v.wPC, Write: true, TSC: v.wTSC})
		}
		if v.hasRead {
			if v.rShared != nil {
				for t := int32(0); int(t) < v.rShared.Len(); t++ {
					cl := v.rShared.Get(t)
					if cl == 0 || t == tid {
						continue
					}
					if cl > c.Get(t) {
						d.report(a, AccessInfo{TID: t, PC: v.rPCs[t], Write: false, TSC: v.rTSCs[t]})
					}
				}
			} else if v.r.TID() != tid && !v.r.LEQ(c) {
				d.report(a, AccessInfo{TID: v.r.TID(), PC: v.rPC, Write: false, TSC: v.rTSC})
			}
		}
		v.hasWrite = true
		v.w = me
		v.wPC, v.wTSC = a.PC, a.TSC
		return
	}

	if v.hasWrite && v.w.TID() != tid && !v.w.LEQ(c) {
		d.report(a, AccessInfo{TID: v.w.TID(), PC: v.wPC, Write: true, TSC: v.wTSC})
	}
	if v.rShared != nil {
		v.rShared.Set(tid, me.Clock())
		v.rPCs[tid], v.rTSCs[tid] = a.PC, a.TSC
		return
	}
	if !v.hasRead || v.r.TID() == tid || v.r.LEQ(c) {
		v.hasRead = true
		v.r = me
		v.rPC, v.rTSC = a.PC, a.TSC
		return
	}
	v.rShared = vc.New()
	v.rShared.Set(v.r.TID(), v.r.Clock())
	v.rShared.Set(tid, me.Clock())
	v.rPCs = map[int32]uint64{v.r.TID(): v.rPC, tid: a.PC}
	v.rTSCs = map[int32]uint64{v.r.TID(): v.rTSC, tid: a.TSC}
}

func (d *ReferenceDetector) report(a *replay.Access, prior AccessInfo) {
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

// Reports returns the deduplicated race reports.
func (d *ReferenceDetector) Reports() []Report { return d.reports }

// Finish is a no-op, satisfying ReportSink.
func (d *ReferenceDetector) Finish() {}

// RacyAddrSet returns the distinct racy addresses.
func (d *ReferenceDetector) RacyAddrSet() map[uint64]bool { return d.RacyAddrs }

// Variables returns the live variable count, for bytes-per-variable
// accounting in the memscale experiment.
func (d *ReferenceDetector) Variables() int { return len(d.vars) }
