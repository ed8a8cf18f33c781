// Package pebs simulates Intel's Precise Event Based Sampling as ProRace
// uses it (paper §4.1): counting retired load/store events per thread,
// capturing {IP, data address, TSC, full register file} every k-th event
// into a Debug Store (DS) buffer, and raising an interrupt when the buffer
// is nearly full.
//
// Two throttling behaviours of the real kernel/hardware stack are modelled
// because the paper's results depend on them:
//
//   - a minimum spacing between *stored* samples: when samples arrive
//     faster than the kernel can bank them, records are discarded even
//     though the sampling work was done. This is why the paper's Figure 8
//     shows a *smaller* trace at period 10 than at period 100.
//   - a handler-time throttle: when too large a fraction of recent cycles
//     went to sampling work, the counter is suspended until the window
//     ends, bounding worst-case slowdown (the 50x / 7.5x plateaus of
//     Figure 10).
package pebs

import (
	"math/rand"

	"prorace/internal/machine"
	"prorace/internal/tracefmt"
)

// Config parameterises the sampling unit.
type Config struct {
	// Period is the number of retired load/store events between samples.
	Period uint64
	// RandomFirstPeriod staggers each thread's first sample uniformly in
	// [1, Period] — the ProRace driver's sampling-diversity feature
	// (paper §4.1.2). The vanilla driver starts every thread at Period.
	RandomFirstPeriod bool
	// Seed drives the random first period.
	Seed int64
	// DSBufferRecords is the DS-area capacity in records before an
	// interrupt fires (default: 64 KB / record size).
	DSBufferRecords int
	// MinStoreSpacingCycles is the minimum TSC distance between two stored
	// samples of one thread; closer samples are dropped (default 900).
	MinStoreSpacingCycles uint64
	// ThrottleWindowCycles and MaxBusyFrac define the handler-time
	// throttle: within each window, once sampling-work cycles exceed
	// MaxBusyFrac*window, sampling is suspended until the window ends.
	ThrottleWindowCycles uint64
	MaxBusyFrac          float64
}

func (c *Config) setDefaults() {
	if c.Period == 0 {
		c.Period = 10000
	}
	if c.DSBufferRecords == 0 {
		c.DSBufferRecords = 64 * 1024 / tracefmt.PEBSRecordSize
	}
	if c.MinStoreSpacingCycles == 0 {
		c.MinStoreSpacingCycles = 900
	}
	if c.ThrottleWindowCycles == 0 {
		c.ThrottleWindowCycles = 2_000_000
	}
	if c.MaxBusyFrac == 0 {
		c.MaxBusyFrac = 0.9
	}
}

type threadState struct {
	remaining   uint64 // events until next sample
	buf         []tracefmt.PEBSRecord
	hasStored   bool
	lastStore   uint64 // TSC of last stored sample
	winStart    uint64
	busyInWin   uint64
	throttledTo uint64
}

// Unit is the per-run sampling state across all threads.
type Unit struct {
	cfg Config
	rng *rand.Rand
	// threads is indexed by TID; an entry is created at the thread's first
	// event, when its random first period is drawn, so the rng's draw
	// order follows the order in which threads first touch the unit.
	threads []*threadState
	// Dropped counts samples discarded by the store-spacing rule.
	Dropped uint64
	// Throttled counts events skipped while the counter was suspended by
	// the handler-time throttle.
	Throttled uint64
}

// New creates a sampling unit.
func New(cfg Config) *Unit {
	cfg.setDefaults()
	return &Unit{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Period returns the configured sampling period.
func (u *Unit) Period() uint64 { return u.cfg.Period }

func (u *Unit) state(tid int32) *threadState {
	if int(tid) < len(u.threads) {
		if ts := u.threads[tid]; ts != nil {
			return ts
		}
	}
	for int(tid) >= len(u.threads) {
		u.threads = append(u.threads, nil)
	}
	first := u.cfg.Period
	if u.cfg.RandomFirstPeriod {
		first = 1 + uint64(u.rng.Int63n(int64(u.cfg.Period)))
	}
	ts := &threadState{remaining: first}
	u.threads[tid] = ts
	return ts
}

// Result describes what happened for one counted event.
type Result struct {
	// Sampled is true if this event hit the sampling period.
	Sampled bool
	// Stored is true if the record was banked into the DS buffer
	// (false when dropped by the store-spacing rule).
	Stored bool
	// Interrupt is true when the DS buffer filled and must be drained:
	// the caller (the driver) collects Drain() and pays the handler cost.
	Interrupt bool
}

// OnMemEvent counts one retired load/store. If the period expires it
// captures a record from the event. The caller charges costs according to
// the Result and its driver model, and reports those costs back via
// AddBusyCycles so the throttle sees them.
func (u *Unit) OnMemEvent(ev *machine.InstEvent) Result {
	ts := u.state(int32(ev.TID))

	// Handler-time throttle: while suspended the counter does not tick.
	if ev.TSC < ts.throttledTo {
		u.Throttled++
		return Result{}
	}
	if ev.TSC-ts.winStart >= u.cfg.ThrottleWindowCycles {
		ts.winStart = ev.TSC
		ts.busyInWin = 0
	}

	ts.remaining--
	if ts.remaining > 0 {
		return Result{}
	}
	ts.remaining = u.cfg.Period

	res := Result{Sampled: true}
	if ts.hasStored && ev.TSC-ts.lastStore < u.cfg.MinStoreSpacingCycles {
		u.Dropped++
		return res
	}
	rec := tracefmt.PEBSRecord{
		TID:   int32(ev.TID),
		Core:  int32(ev.Core),
		TSC:   ev.TSC,
		IP:    ev.PC,
		Addr:  ev.MemAddr,
		Store: ev.IsStore,
		Regs:  *ev.Regs, // hardware snapshot: copy, not alias
	}
	ts.buf = append(ts.buf, rec)
	ts.hasStored = true
	ts.lastStore = ev.TSC
	res.Stored = true
	if len(ts.buf) >= u.cfg.DSBufferRecords {
		res.Interrupt = true
	}
	return res
}

// AddBusyCycles reports sampling-work cycles (assist, handler, copy) spent
// on behalf of a thread, feeding the handler-time throttle.
func (u *Unit) AddBusyCycles(tid int32, tsc uint64, cycles uint64) {
	ts := u.state(tid)
	ts.busyInWin += cycles
	if float64(ts.busyInWin) > u.cfg.MaxBusyFrac*float64(u.cfg.ThrottleWindowCycles) {
		ts.throttledTo = ts.winStart + u.cfg.ThrottleWindowCycles
		if ts.throttledTo <= tsc {
			ts.throttledTo = tsc + u.cfg.ThrottleWindowCycles/4
		}
	}
}

// Drain removes and returns the thread's DS buffer contents (the interrupt
// handler's job).
func (u *Unit) Drain(tid int32) []tracefmt.PEBSRecord {
	ts := u.state(tid)
	out := ts.buf
	ts.buf = nil
	return out
}

// DrainAll returns every thread's outstanding records (end of run).
func (u *Unit) DrainAll() map[int32][]tracefmt.PEBSRecord {
	out := map[int32][]tracefmt.PEBSRecord{}
	for tid, ts := range u.threads {
		if ts != nil && len(ts.buf) > 0 {
			out[int32(tid)] = ts.buf
			ts.buf = nil
		}
	}
	return out
}
