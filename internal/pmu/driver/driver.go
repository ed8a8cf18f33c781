// Package driver implements the two PEBS driver stacks the paper compares
// (Figure 10):
//
//   - Vanilla — the stock Linux perf path of the paper's Figure 2: per
//     sample, the interrupt handler synthesises metadata (wall-clock time,
//     size, period) and copies the record from the DS area into a second
//     ring buffer shared with the user-land perf tool, which processes and
//     writes it out. The perf tool polls continuously.
//   - ProRace — the paper's redesigned driver (§4.1.2, Figure 3): a single
//     aux ring buffer handed to PEBS one 64 KB segment at a time; on
//     interrupt the handler merely swaps segments (no copy, no metadata),
//     and the perf tool dumps raw segments to the trace file. The first
//     sampling period is randomised per thread for sampling diversity.
//
// The driver implements machine.Tracer: every cost in the model is charged
// as stall cycles on the core that incurred it, so the difference between
// the two drivers is directly measurable as run slowdown — the same
// methodology as the paper's evaluation.
package driver

import (
	"prorace/internal/machine"
	"prorace/internal/pmu/pebs"
	"prorace/internal/pmu/pt"
	"prorace/internal/synctrace"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// Kind selects the driver model.
type Kind int

const (
	// Vanilla is the stock Linux PEBS driver path.
	Vanilla Kind = iota
	// ProRace is the paper's redesigned driver.
	ProRace
)

// String names the kind.
func (k Kind) String() string {
	if k == Vanilla {
		return "vanilla"
	}
	return "prorace"
}

// Costs is the cycle-cost model of one driver stack. Defaults (see
// DefaultCosts) were calibrated so the five sampling periods of the paper
// land in its overhead bands; see DESIGN.md §6.
type Costs struct {
	// PEBSAssist is the hardware cost of capturing one record into the DS
	// area (microcode assist), paid for every sample, stored or dropped.
	PEBSAssist uint64
	// PerSampleKernel is the kernel handler's per-record processing cost
	// (metadata synthesis in the vanilla driver; zero for ProRace).
	PerSampleKernel uint64
	// CopyPerByte is the kernel-to-user copy cost per record byte
	// (vanilla only; ProRace's single-buffer design eliminates it).
	CopyPerByte float64
	// InterruptEntry is the fixed PMI entry/exit cost per DS drain.
	InterruptEntry uint64
	// SegmentSwap is the ProRace handler's aux-buffer segment swap cost
	// per interrupt.
	SegmentSwap uint64
	// PerfCPUPerByte is the user-land perf tool's CPU cost per trace byte
	// (event processing and writev for vanilla; raw dump for ProRace).
	PerfCPUPerByte float64
	// PollIntervalCycles / PollCost model the perf tool's periodic ring
	// buffer polling per thread.
	PollIntervalCycles uint64
	PollCost           uint64
	// PTPerByte is the bandwidth-induced cost per PT stream byte.
	PTPerByte float64
	// SyncShim is the LD_PRELOAD interposition cost per traced
	// synchronization call.
	SyncShim uint64
	// MaxBusyFrac bounds the fraction of a throttle window spent on
	// sampling work before the kernel suspends the counter; it determines
	// each driver's worst-case slowdown plateau.
	MaxBusyFrac float64
}

// DefaultCosts returns the calibrated cost model for a driver kind.
func DefaultCosts(k Kind) Costs {
	if k == Vanilla {
		return Costs{
			PEBSAssist:         600,
			PerSampleKernel:    4000,
			CopyPerByte:        1.0,
			InterruptEntry:     1500,
			SegmentSwap:        0,
			PerfCPUPerByte:     0.5,
			PollIntervalCycles: 20_000,
			PollCost:           9_600,
			PTPerByte:          0.15,
			SyncShim:           25,
			MaxBusyFrac:        0.98,
		}
	}
	return Costs{
		PEBSAssist:         600,
		PerSampleKernel:    0,
		CopyPerByte:        0,
		InterruptEntry:     1200,
		SegmentSwap:        300,
		PerfCPUPerByte:     0.03,
		PollIntervalCycles: 20_000,
		PollCost:           800,
		PTPerByte:          0.15,
		SyncShim:           25,
		MaxBusyFrac:        0.875,
	}
}

// Options configures a driver instance.
type Options struct {
	// Kind selects vanilla or ProRace behaviour.
	Kind Kind
	// Period is the PEBS sampling period.
	Period uint64
	// Seed randomises the first sampling period (ProRace only).
	Seed int64
	// EnablePT turns on control-flow tracing (ProRace always runs with PT;
	// the RaceZ baseline runs without).
	EnablePT bool
	// Filters are the PT address filters; when empty and EnablePT is set,
	// the driver installs one filter over the program's text region.
	Filters []pt.Range
	// Costs overrides the cost model; nil selects DefaultCosts(Kind).
	Costs *Costs
	// DisableRandomFirstPeriod turns off the ProRace driver's per-thread
	// sampling-phase randomisation (§4.1.2) — the ablation showing its
	// contribution to detection diversity.
	DisableRandomFirstPeriod bool
	// PSBIntervalCycles overrides how often the PT unit emits sync-point
	// packets (0 selects the unit's default). Robustness tests lower it to
	// get PSB-dense streams whose corruption-recovery behaviour they can
	// observe.
	PSBIntervalCycles uint64
	// DSBufferRecords overrides the DS-area capacity in records (0 selects
	// the unit's 64 KB default). Tests shrink it to force frequent
	// interrupt-driven segment swaps.
	DSBufferRecords int
	// Telemetry receives the driver's prorace_driver_* counters, published
	// once in Finish so the hot tracing path stays untouched. Nil disables
	// publication.
	Telemetry *telemetry.Registry
}

// Driver is the online tracing stack attached to one machine run.
type Driver struct {
	m     *machine.Machine
	kind  Kind
	costs Costs

	pebs *pebs.Unit
	pt   *pt.Unit
	sync *synctrace.Collector

	trace *tracefmt.Trace

	nextPoll uint64
	pollDebt uint64
	// threads is the per-thread state, indexed by TID: the machine numbers
	// threads densely from 0.
	threads []threadState

	tel        *telemetry.Registry
	interrupts uint64 // DS drains with records: ring wraps / segment swaps
}

// threadState is the driver's per-thread state.
type threadState struct {
	pollCharged bool    // charged its share of the current poll debt
	ptBegun     bool    // PT stream has its anchor
	ptFraction  float64 // accumulated fractional PT cost
}

// New builds a driver for the machine. Attach it with m.SetTracer before
// calling m.Run.
func New(m *machine.Machine, opts Options) *Driver {
	costs := DefaultCosts(opts.Kind)
	if opts.Costs != nil {
		costs = *opts.Costs
	}
	d := &Driver{
		m:     m,
		kind:  opts.Kind,
		costs: costs,
		pebs: pebs.New(pebs.Config{
			Period:            opts.Period,
			RandomFirstPeriod: opts.Kind == ProRace && !opts.DisableRandomFirstPeriod,
			Seed:              opts.Seed,
			MaxBusyFrac:       costs.MaxBusyFrac,
			DSBufferRecords:   opts.DSBufferRecords,
		}),
		sync:  synctrace.New(),
		trace: tracefmt.NewTrace(m.Program().Name, opts.Period, opts.Seed),
		tel:   opts.Telemetry,
	}
	if opts.EnablePT {
		filters := opts.Filters
		if len(filters) == 0 {
			start, end := m.Program().TextRegion()
			filters = []pt.Range{{Start: start, End: end}}
		}
		d.pt = pt.New(pt.Config{Filters: filters, PSBIntervalCycles: opts.PSBIntervalCycles})
	}
	return d
}

// InstRetired implements machine.Tracer.
func (d *Driver) InstRetired(ev *machine.InstEvent) uint64 {
	var stall uint64
	tid := int32(ev.TID)
	for int(tid) >= len(d.threads) {
		d.threads = append(d.threads, threadState{})
	}
	ts := &d.threads[tid]

	// Perf tool polling: one poller process per machine. When a core is
	// idle the poll runs there for free; on a saturated machine it steals
	// cycles from the application — which is why CPU-bound workloads pay
	// a fixed tracing tax that I/O-bound ones do not. The stolen cycles
	// are spread over distinct running threads (the scheduler would not
	// victimise one core).
	if ev.TSC >= d.nextPoll {
		if d.nextPoll != 0 && !d.m.HasIdleCore() {
			d.pollDebt = d.costs.PollCost
			for i := range d.threads {
				d.threads[i].pollCharged = false
			}
		}
		if d.nextPoll != 0 && d.pt != nil {
			// Flush accumulated PT bytes to the trace file in one batched
			// write: occupies the file bus but is asynchronous.
			total := 0
			for t := range d.threads {
				if d.threads[t].ptBegun {
					total += d.pt.PendingBytes(int32(t))
				}
			}
			if total > 0 {
				d.m.OccupyFileBus(uint64(total))
			}
		}
		d.nextPoll = ev.TSC + d.costs.PollIntervalCycles
	}
	if d.pollDebt > 0 && !ts.pollCharged {
		chunk := d.costs.PollCost / uint64(d.m.Cores())
		if chunk == 0 || chunk > d.pollDebt {
			chunk = d.pollDebt
		}
		stall += chunk
		d.pollDebt -= chunk
		ts.pollCharged = true
	}

	// PT control-flow tracing.
	if d.pt != nil {
		if !ts.ptBegun {
			// TIP.PGE equivalent: anchor the stream at the thread's first
			// traced instruction.
			d.pt.Begin(tid, ev.PC, ev.TSC)
			ts.ptBegun = true
		}
		if ev.Inst.IsBranch() {
			n := d.pt.OnBranch(ev)
			if n > 0 {
				f := ts.ptFraction + float64(n)*d.costs.PTPerByte
				if whole := uint64(f); whole > 0 {
					stall += whole
					f -= float64(whole)
				}
				ts.ptFraction = f
			}
		}
	}

	// PEBS sampling.
	if ev.IsMem {
		res := d.pebs.OnMemEvent(ev)
		if res.Sampled {
			cost := d.costs.PEBSAssist + d.costs.PerSampleKernel
			if d.costs.CopyPerByte > 0 {
				cost += uint64(d.costs.CopyPerByte * float64(tracefmt.PEBSRecordSize+tracefmt.VanillaMetadataSize))
			}
			stall += cost
			d.pebs.AddBusyCycles(tid, ev.TSC, cost)
		}
		if res.Stored && d.pt != nil {
			// PMI-synchronised marker: lets the offline decoder pin this
			// sample onto the decoded path.
			d.pt.Mark(tid, ev.TSC)
		}
		if res.Interrupt {
			stall += d.handleInterrupt(tid, ev.TSC)
		}
	}
	return stall
}

// handleInterrupt drains the DS buffer into the trace and returns the
// handler + perf tool cost.
func (d *Driver) handleInterrupt(tid int32, tsc uint64) uint64 {
	recs := d.pebs.Drain(tid)
	if len(recs) == 0 {
		return 0
	}
	d.interrupts++
	d.trace.PEBS[tid] = append(d.trace.PEBS[tid], recs...)

	bytes := uint64(len(recs)) * tracefmt.PEBSRecordSize
	cost := d.costs.InterruptEntry + d.costs.SegmentSwap
	cost += uint64(d.costs.PerfCPUPerByte * float64(bytes))
	d.m.OccupyFileBus(bytes)
	d.pebs.AddBusyCycles(tid, tsc, cost)
	return cost
}

// SyscallRetired implements machine.Tracer.
func (d *Driver) SyscallRetired(ev *machine.SyscallEvent) uint64 {
	if d.sync.OnSyscall(ev) {
		return d.costs.SyncShim
	}
	return 0
}

// ThreadStarted implements machine.Tracer.
func (d *Driver) ThreadStarted(tid machine.TID, tsc uint64) {
	d.sync.OnThreadStart(tid, tsc)
}

// ThreadExited implements machine.Tracer.
func (d *Driver) ThreadExited(tid machine.TID, tsc uint64) {
	d.sync.OnThreadExit(tid, tsc)
}

// Finish drains all outstanding buffers and returns the completed trace.
// Call it after machine.Run returns.
func (d *Driver) Finish() *tracefmt.Trace {
	for tid, recs := range d.pebs.DrainAll() {
		d.trace.PEBS[tid] = append(d.trace.PEBS[tid], recs...)
	}
	if d.pt != nil {
		for tid, stream := range d.pt.Finish() {
			d.trace.PT[tid] = stream
		}
	}
	d.trace.Sync = d.sync.Records()
	d.trace.WallCycles = d.m.Now()
	d.trace.DroppedSamples = d.pebs.Dropped
	d.publish()
	return d.trace
}

// publish folds the completed trace's counters into the telemetry
// registry: one batch of Adds per traced run, nothing on the per-event
// path. Stored+dropped equals samples emitted, and every emitted sample
// implies one counter rearm — the period_resets series.
func (d *Driver) publish() {
	if d.tel == nil {
		return
	}
	var stored, ptBytes uint64
	for _, recs := range d.trace.PEBS {
		stored += uint64(len(recs))
	}
	for _, stream := range d.trace.PT {
		ptBytes += uint64(len(stream))
	}
	tel := d.tel
	tel.Counter("prorace_driver_traces_total", "Completed online tracing runs.").Inc()
	tel.Counter("prorace_driver_samples_emitted_total", "PEBS samples captured by the counter (stored + dropped).").Add(stored + d.pebs.Dropped)
	tel.Counter("prorace_driver_samples_stored_total", "PEBS records written to the trace file.").Add(stored)
	tel.Counter("prorace_driver_samples_dropped_total", "PEBS records lost to the store-spacing rule.").Add(d.pebs.Dropped)
	tel.Counter("prorace_driver_period_resets_total", "PEBS counter rearms after a period expiry.").Add(stored + d.pebs.Dropped)
	tel.Counter("prorace_driver_ring_wraps_total", "DS-buffer drains (vanilla ring copies / ProRace segment swaps).").Add(d.interrupts)
	tel.Counter("prorace_driver_throttled_events_total", "Memory events skipped while the counter was throttle-suspended.").Add(d.pebs.Throttled)
	tel.Counter("prorace_driver_pt_bytes_total", "Intel PT stream bytes collected.").Add(ptBytes)
	tel.Counter("prorace_driver_sync_records_total", "Synchronization shim records collected.").Add(uint64(len(d.trace.Sync)))
	tel.Histogram("prorace_trace_bytes", "Per-run collected trace size in bytes (PEBS + PT).", telemetry.SizeBuckets).Observe(float64(stored*tracefmt.PEBSRecordSize + ptBytes))
}

// DroppedSamples reports PEBS records lost to the store-spacing rule.
func (d *Driver) DroppedSamples() uint64 { return d.pebs.Dropped }

// ThrottledEvents reports events skipped while the counter was suspended.
func (d *Driver) ThrottledEvents() uint64 { return d.pebs.Throttled }
