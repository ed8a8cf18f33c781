// Package machine implements the deterministic multicore simulator on which
// the ProRace reproduction runs its workloads. It stands in for the paper's
// 4-core Skylake + Linux testbed.
//
// The machine executes programs built from the internal/isa instruction set
// on a configurable number of cores with a seeded, preemptive scheduler, so
// thread interleavings — and hence data-race manifestation — are random
// across seeds but exactly reproducible for a given seed.
//
// Time is counted in cycles of an invariant timestamp counter (TSC) shared
// by all cores, as on the paper's hardware (§4.3). One instruction retires
// per core per cycle; syscalls, lock contention, and I/O latencies charge
// additional cycles. An attached Tracer (the simulated PMU driver stack)
// may charge further stall cycles per event — that is how tracing overhead
// becomes measurable: run once with NopTracer, once with the PMU attached,
// and compare total cycles.
//
// I/O model: network I/O blocks the calling thread but occupies no core, so
// tracing work hides under it (the paper's Figure 7 observation that
// network-bound applications see <1% overhead even at period 10). File I/O
// occupies a shared file bus that trace writes also consume, so file-I/O
// heavy workloads cannot hide tracing (§7.2).
package machine

import (
	"errors"
	"fmt"
	"math/rand"

	"prorace/internal/isa"
	"prorace/internal/prog"
)

// Config parameterises a machine.
type Config struct {
	// Cores is the number of cores (default 4, as in the paper's i7-6700K).
	Cores int
	// Seed drives the scheduler and SysRand. Different seeds produce
	// different interleavings; the same seed reproduces a run exactly.
	Seed int64
	// Quantum is the number of instructions a thread may retire before it
	// can be preempted (default 61; a prime, to decorrelate from loops).
	Quantum int
	// NetLatencyCycles is the fixed latency of one network I/O operation
	// (default 60000 cycles = 15µs at 4 GHz, a LAN round trip).
	NetLatencyCycles uint64
	// NetCyclesPerByte is the per-byte network cost (default 0.35,
	// ~ gigabit ethernet at 4 GHz).
	NetCyclesPerByte float64
	// FileLatencyCycles is the fixed latency of one file I/O operation
	// (default 8000).
	FileLatencyCycles uint64
	// FileCyclesPerByte is the per-byte file-bus occupancy (default 0.01,
	// ~400 MB/s after page cache).
	FileCyclesPerByte float64
	// MaxCycles aborts runaway executions (default 2e9).
	MaxCycles uint64
	// Tracer observes the run; nil means NopTracer.
	Tracer Tracer
	// SchedObserver, when non-nil, receives every scheduler decision as it
	// is made — the decision-log hook internal/witness records through.
	// Observation never perturbs the run.
	SchedObserver func(SchedDecision)
	// SchedDirector, when non-nil, may override the scheduler's
	// seeded-random pick: it receives the decision ordinal, the runnable
	// queue and the index the seeded rng chose, and returns the index to
	// run instead. The rng is drawn exactly as in an undirected run
	// regardless of the override, so directed and undirected executions
	// consume the machine's random stream identically — a director that
	// returns pick unchanged reproduces the undirected run bit for bit.
	// Out-of-range returns fall back to pick.
	SchedDirector func(pos uint64, runq []TID, pick int) int
}

func (c *Config) setDefaults() {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.Quantum <= 0 {
		c.Quantum = 61
	}
	if c.NetLatencyCycles == 0 {
		c.NetLatencyCycles = 60000
	}
	if c.NetCyclesPerByte == 0 {
		c.NetCyclesPerByte = 0.35
	}
	if c.FileLatencyCycles == 0 {
		c.FileLatencyCycles = 8000
	}
	if c.FileCyclesPerByte == 0 {
		c.FileCyclesPerByte = 0.01
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	if c.Tracer == nil {
		c.Tracer = NopTracer{}
	}
}

type threadState uint8

const (
	stRunnable threadState = iota
	stRunning
	stBlocked  // waiting for a lock, cond, barrier or join
	stSleeping // waiting for an I/O completion time
	stExited
)

// Thread is one simulated thread.
type Thread struct {
	ID    TID
	Regs  [isa.NumRegs]uint64
	Flags isa.Flags
	PC    uint64

	state     threadState
	callStack []uint64
	wakeAt    uint64
	joiners   []TID
	exitCode  uint64
	retired   uint64 // instructions retired
	memOps    uint64 // loads+stores retired
}

type coreState struct {
	tid        TID // -1 when idle
	stallUntil uint64
	quantum    int
}

type lockState struct {
	owner   TID // -1 when free
	waiters []lockWaiter
}

// lockWaiter queues a thread on a mutex. cond is nonzero when the thread is
// a condition waiter re-acquiring the mutex after a signal: on hand-off the
// machine notifies the tracer with SysCondWake, the moment the user-level
// cond_wait returns.
type lockWaiter struct {
	tid  TID
	cond uint64
}

type condState struct {
	waiters []condWaiter
}

type condWaiter struct {
	tid   TID
	mutex uint64
}

type barrierState struct {
	arrived []TID
}

// Machine executes one program to completion.
type Machine struct {
	cfg  Config
	prog *prog.Program
	Mem  *Memory

	threads []*Thread
	cores   []coreState
	runq    []TID
	rng     *rand.Rand

	cycle    uint64
	liveCnt  int
	locks    map[uint64]*lockState
	conds    map[uint64]*condState
	barriers map[uint64]*barrierState

	heapNext  uint64
	allocSize map[uint64]uint64
	freeLists map[uint64][]uint64

	fileBusFree uint64
	logBytes    uint64

	schedPos uint64

	// sleepNext is the earliest wakeAt among threads in stSleeping
	// (noSleeper when there are none), so wakeSleepers scans the threads
	// only when a wake is due. Only wakeSleepers moves a thread out of
	// stSleeping, so the value stays exact.
	sleepNext uint64

	// ev is the event step fills for every retired instruction.
	ev InstEvent

	stats Stats
}

// SchedDecision describes one pick of the machine's seeded preemptive
// scheduler: at decision point Pos (the run-wide ordinal of picks made with
// more than one runnable candidate), thread TID was chosen out of Queue
// candidates and dispatched onto core Core at TSC. Single-candidate picks
// carry no scheduling freedom and are not decision points. The decision stream is the run's interleaving in compressed form:
// given the program, the Config and the Seed, forcing the same picks at the
// same ordinals (via Config.SchedDirector) reproduces the same execution —
// the mechanism behind internal/witness's deterministic race reproduction.
type SchedDecision struct {
	Pos   uint64
	TID   TID
	Core  int
	Queue int
	TSC   uint64
}

// Stats summarises a completed run.
type Stats struct {
	// Cycles is the total wall-clock duration in TSC cycles.
	Cycles uint64
	// Retired is the total retired instruction count across threads.
	Retired uint64
	// MemOps is the number of retired loads and stores — the PEBS event
	// count of the run.
	MemOps uint64
	// SyncOps counts completed synchronization syscalls.
	SyncOps uint64
	// Threads is the number of threads created (including main).
	Threads int
	// IdleCoreCycles accumulates cycles during which a core had no thread.
	IdleCoreCycles uint64
	// LogBytes is the number of bytes written via SysLog.
	LogBytes uint64
}

// Seconds converts the run duration to seconds at the paper's 4 GHz clock.
func (s Stats) Seconds() float64 { return float64(s.Cycles) / ClockHz }

// ClockHz is the simulated clock rate: 4 GHz, the paper's i7-6700K.
const ClockHz = 4e9

// New creates a machine loaded with the program: the data segment is
// materialised at isa.DataBase and thread 0 is placed at the entry point.
func New(p *prog.Program, cfg Config) *Machine {
	cfg.setDefaults()
	m := &Machine{
		cfg:       cfg,
		prog:      p,
		Mem:       NewMemory(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		locks:     map[uint64]*lockState{},
		conds:     map[uint64]*condState{},
		barriers:  map[uint64]*barrierState{},
		heapNext:  isa.HeapBase,
		allocSize: map[uint64]uint64{},
		freeLists: map[uint64][]uint64{},
		sleepNext: noSleeper,
	}
	m.Mem.WriteBytes(isa.DataBase, p.Data)
	m.cores = make([]coreState, cfg.Cores)
	for i := range m.cores {
		m.cores[i].tid = -1
	}
	m.spawn(p.Entry, 0)
	return m
}

// Program returns the loaded program.
func (m *Machine) Program() *prog.Program { return m.prog }

// SetTracer attaches a tracer after construction. Drivers that need a
// reference to the machine (for the file bus and TSC) are built against the
// machine and then attached with this before Run.
func (m *Machine) SetTracer(t Tracer) {
	if t == nil {
		t = NopTracer{}
	}
	m.cfg.Tracer = t
}

// Now returns the current TSC value.
func (m *Machine) Now() uint64 { return m.cycle }

// Rand returns the machine's deterministic random stream (used by SysRand
// and by the scheduler).
func (m *Machine) Rand() *rand.Rand { return m.rng }

// Cores returns the machine's core count.
func (m *Machine) Cores() int { return len(m.cores) }

// HasIdleCore reports whether any core is currently idle. The PMU driver
// uses it to decide whether background tracing work (the perf tool's
// polling) competes with the application or runs for free — the mechanism
// behind the paper's observation that network-bound applications hide
// tracing overhead almost entirely (Figure 7).
func (m *Machine) HasIdleCore() bool {
	for i := range m.cores {
		if m.cores[i].tid < 0 && m.cores[i].stallUntil <= m.cycle {
			return true
		}
	}
	return false
}

// OccupyFileBus reserves the shared file bus for writing n bytes, returning
// the number of cycles the reservation extends past now. The PMU driver's
// perf tool calls this for trace flushes: the reservation delays the
// application's own file I/O, which is how tracing overhead shows up on
// file-I/O-bound workloads even though the trace write itself is
// asynchronous.
func (m *Machine) OccupyFileBus(n uint64) uint64 {
	start := m.fileBusFree
	if start < m.cycle {
		start = m.cycle
	}
	// Trace writes are buffered appends: they cost bandwidth, not the
	// per-operation latency the application's own file I/O pays.
	dur := 50 + uint64(float64(n)*m.cfg.FileCyclesPerByte)
	m.fileBusFree = start + dur
	return m.fileBusFree - m.cycle
}

// spawn creates a thread starting at pc with arg in R0.
func (m *Machine) spawn(pc uint64, arg uint64) TID {
	tid := TID(len(m.threads))
	t := &Thread{ID: tid, PC: pc, state: stRunnable}
	t.Regs[isa.R0] = arg
	t.Regs[isa.SP] = isa.StackTop - uint64(tid)*isa.StackStride
	m.threads = append(m.threads, t)
	m.runq = append(m.runq, tid)
	m.liveCnt++
	m.stats.Threads++
	m.cfg.Tracer.ThreadStarted(tid, m.cycle)
	return tid
}

// ErrDeadlock is returned when live threads remain but none can make
// progress.
var ErrDeadlock = errors.New("machine: deadlock: live threads but none runnable")

// ErrCycleLimit is returned when MaxCycles elapses before completion.
var ErrCycleLimit = errors.New("machine: cycle limit exceeded")

// Run executes the program until every thread exits, returning run
// statistics. It is single-shot: create a new Machine per run.
func (m *Machine) Run() (Stats, error) {
	for m.liveCnt > 0 {
		if m.cycle >= m.cfg.MaxCycles {
			return m.stats, fmt.Errorf("%w at %d", ErrCycleLimit, m.cycle)
		}
		progress := false
		for ci := range m.cores {
			c := &m.cores[ci]
			if c.stallUntil > m.cycle {
				progress = true // core busy stalling, time must advance
				continue
			}
			if c.tid < 0 {
				m.scheduleOn(ci)
			}
			if c.tid < 0 {
				m.stats.IdleCoreCycles++
				continue
			}
			m.step(ci)
			progress = true
		}
		if !progress {
			next, ok := m.nextWake()
			if !ok {
				return m.stats, ErrDeadlock
			}
			if next <= m.cycle {
				next = m.cycle + 1
			}
			m.cycle = next
			m.wakeSleepers()
			continue
		}
		m.cycle++
		m.wakeSleepers()
	}
	m.stats.Cycles = m.cycle
	m.stats.LogBytes = m.logBytes
	for _, t := range m.threads {
		m.stats.Retired += t.retired
		m.stats.MemOps += t.memOps
	}
	return m.stats, nil
}

// scheduleOn assigns a runnable thread to core ci. Selection is seeded-
// random among the run queue, which is the source of cross-run interleaving
// diversity. A SchedDirector may override the pick; the rng draw happens
// either way so the SysRand stream (which shares m.rng) is unperturbed.
func (m *Machine) scheduleOn(ci int) {
	if len(m.runq) == 0 {
		return
	}
	k := 0
	if len(m.runq) > 1 {
		// Only multi-candidate picks are decision points: with one runnable
		// thread the scheduler has no freedom, so those picks are neither
		// numbered, observed nor directable.
		k = m.rng.Intn(len(m.runq))
		pos := m.schedPos
		m.schedPos++
		if d := m.cfg.SchedDirector; d != nil {
			if fk := d(pos, m.runq, k); fk >= 0 && fk < len(m.runq) {
				k = fk
			}
		}
		if o := m.cfg.SchedObserver; o != nil {
			o(SchedDecision{Pos: pos, TID: m.runq[k], Core: ci, Queue: len(m.runq), TSC: m.cycle})
		}
	}
	tid := m.runq[k]
	m.runq = append(m.runq[:k], m.runq[k+1:]...)
	t := m.threads[tid]
	t.state = stRunning
	m.cores[ci].tid = tid
	m.cores[ci].quantum = m.cfg.Quantum
}

// preempt moves the thread running on core ci back to the run queue.
func (m *Machine) preempt(ci int) {
	c := &m.cores[ci]
	if c.tid < 0 {
		return
	}
	t := m.threads[c.tid]
	t.state = stRunnable
	m.runq = append(m.runq, c.tid)
	c.tid = -1
}

// block removes the current thread from its core without requeueing it.
func (m *Machine) blockCurrent(ci int) *Thread {
	c := &m.cores[ci]
	t := m.threads[c.tid]
	t.state = stBlocked
	c.tid = -1
	return t
}

// sleepCurrent removes the current thread and schedules a wakeup.
func (m *Machine) sleepCurrent(ci int, wakeAt uint64) {
	c := &m.cores[ci]
	t := m.threads[c.tid]
	t.state = stSleeping
	t.wakeAt = wakeAt
	c.tid = -1
	m.sleepNext = min(m.sleepNext, wakeAt)
}

// wake moves a blocked or sleeping thread back to the run queue.
func (m *Machine) wake(tid TID) {
	t := m.threads[tid]
	if t.state == stExited {
		return
	}
	t.state = stRunnable
	m.runq = append(m.runq, tid)
}

// noSleeper is sleepNext's value while no thread sleeps.
const noSleeper = ^uint64(0)

// wakeSleepers wakes, in thread-ID order, every sleeper whose wake time
// has come. It returns at once until the earliest wake time is due.
func (m *Machine) wakeSleepers() {
	if m.sleepNext > m.cycle {
		return
	}
	m.sleepNext = noSleeper
	for _, t := range m.threads {
		if t.state != stSleeping {
			continue
		}
		if t.wakeAt <= m.cycle {
			m.wake(t.ID)
		} else {
			m.sleepNext = min(m.sleepNext, t.wakeAt)
		}
	}
}

// nextWake returns the earliest future time at which anything can run.
func (m *Machine) nextWake() (uint64, bool) {
	var next uint64
	found := false
	consider := func(c uint64) {
		if !found || c < next {
			next, found = c, true
		}
	}
	if m.sleepNext != noSleeper {
		consider(m.sleepNext)
	}
	for i := range m.cores {
		if m.cores[i].tid >= 0 && m.cores[i].stallUntil > m.cycle {
			consider(m.cores[i].stallUntil)
		}
	}
	if len(m.runq) > 0 {
		consider(m.cycle + 1)
	}
	return next, found
}

// exitThread terminates the thread on core ci.
func (m *Machine) exitThread(ci int, code uint64) {
	c := &m.cores[ci]
	t := m.threads[c.tid]
	t.state = stExited
	t.exitCode = code
	c.tid = -1
	m.liveCnt--
	for _, j := range t.joiners {
		m.wake(j)
	}
	t.joiners = nil
	m.cfg.Tracer.ThreadExited(t.ID, m.cycle)
}

// Thread returns the thread with the given ID, for tests and diagnostics.
func (m *Machine) Thread(tid TID) *Thread {
	if int(tid) < len(m.threads) {
		return m.threads[tid]
	}
	return nil
}

// ExitCode returns a thread's exit code after the run.
func (m *Machine) ExitCode(tid TID) uint64 { return m.threads[tid].exitCode }
