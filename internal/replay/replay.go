// Package replay implements ProRace's offline memory-access reconstruction
// (paper §5): re-executing the program binary around each PEBS sample along
// the PT-decoded path to recover the addresses of unsampled loads and
// stores.
//
// Three reconstruction modes are provided, matching the paper's Figure 11
// comparison:
//
//   - ModeBasicBlock — RaceZ's approach: reconstruction confined to the
//     static basic block containing each sample, with only trivial
//     backward propagation inside that block. Needs no PT.
//   - ModeForward — ProRace's forward replay (§5.1): from each sample,
//     restore the PEBS register file and execute forward along the decoded
//     path, tracking register/memory availability in a program map,
//     until the next sample.
//   - ModeForwardBackward — full ProRace (§5.2): forward replay plus
//     backward replay (backward propagation of the next sample's register
//     file to each register's last definition, and reverse execution of
//     invertible instructions): a forward pass, a backward pass, and a
//     second forward pass that applies the register facts the backward
//     pass learned — a schedule that reaches the fixed point (DESIGN.md
//     §10).
//
// PC-relative and absolute addresses are recoverable wherever the path is
// known, even with no live register — the reason the paper's Table 2 shows
// 100% detection for the PC-relative bugs.
package replay

import (
	"prorace/internal/isa"
	"prorace/internal/prog"
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// Mode selects the reconstruction algorithm. The zero value is full
// ProRace, so a configuration that names no mode never silently runs the
// RaceZ baseline.
type Mode int

const (
	// ModeForwardBackward runs forward, backward, then forward replay
	// again, which reaches the fixed point (full ProRace).
	ModeForwardBackward Mode = iota
	// ModeForward runs path-guided forward replay only.
	ModeForward
	// ModeBasicBlock confines reconstruction to each sample's static basic
	// block (the RaceZ baseline).
	ModeBasicBlock
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBasicBlock:
		return "basicblock"
	case ModeForward:
		return "forward"
	case ModeForwardBackward:
		return "forward+backward"
	}
	return "mode?"
}

// Config parameterises the engine.
type Config struct {
	Mode Mode
	// InvalidAddrs are addresses whose emulated-memory contents must not
	// be trusted — the detector feeds back racy locations here and
	// reconstruction is re-run, implementing §5.1's trace regeneration.
	InvalidAddrs map[uint64]bool
	// Telemetry receives the prorace_replay_* series. Metric handles are
	// resolved once at NewEngine and flushed once per reconstructed thread;
	// nil leaves every handle nil, making the instrumented calls no-ops
	// with zero allocations (see alloc_test.go).
	Telemetry *telemetry.Registry
}

// How an access was obtained, for the Figure 11 breakdown.
type Origin uint8

const (
	// OriginSampled: directly from a PEBS record.
	OriginSampled Origin = iota
	// OriginForward: recovered by forward replay (includes PC-relative).
	OriginForward
	// OriginBackward: recovered only by backward replay.
	OriginBackward
	// OriginBB: recovered by static basic-block reconstruction.
	OriginBB
)

// Access is one memory access of the extended trace (paper Figure 1:
// "Extended Memory Trace").
type Access struct {
	TID    int32
	Store  bool
	Origin Origin
	PC     uint64
	Addr   uint64
	TSC    uint64 // exact for sampled, estimated otherwise
	Step   int    // path index; -1 when reconstructed without a path
}

// Stats summarises one thread's reconstruction.
type Stats struct {
	Sampled    int
	Forward    int
	Backward   int
	BasicBlock int
	PathSteps  int
	MemSteps   int // memory-access instructions on the path
	// InvalidHits counts the recovered unsampled loads (Forward or
	// Backward) of an InvalidAddrs address, each once. It is non-zero
	// exactly when a forward pass knew the address of such a load
	// (DESIGN.md §10).
	InvalidHits int
}

// Merge folds another thread's stats into s; every field is a counter and
// adds. Every aggregation path must go through here so newly added fields
// are never silently dropped by a hand-rolled merge.
func (s *Stats) Merge(o Stats) {
	s.Sampled += o.Sampled
	s.Forward += o.Forward
	s.Backward += o.Backward
	s.BasicBlock += o.BasicBlock
	s.PathSteps += o.PathSteps
	s.MemSteps += o.MemSteps
	s.InvalidHits += o.InvalidHits
}

// Total returns the number of accesses in the extended trace.
func (s Stats) Total() int { return s.Sampled + s.Forward + s.Backward + s.BasicBlock }

// RecoveryRatio is the paper's Figure 11 metric: recovered+sampled accesses
// normalised to sampled accesses.
func (s Stats) RecoveryRatio() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.Total()) / float64(s.Sampled)
}

// Engine reconstructs extended memory traces for one program.
type Engine struct {
	p   *prog.Program
	cfg Config
	// ops is p's text decoded for replay, indexed like p.Insts.
	ops []op
	// emulateMemory enables the program-map memory emulation of §5.1: on
	// for the path modes, off for the ablation.
	emulateMemory bool
	// states keeps pathState working sets across threads and calls, so
	// steady-state reconstruction reuses the per-path arrays and map
	// buckets instead of reallocating them for every thread.
	states *statePool
	met    engineMetrics
}

// engineMetrics caches the engine's telemetry handles; the zero value
// (all nil) is the disabled state and every call through it is a no-op.
type engineMetrics struct {
	threads     *telemetry.Counter
	sampled     *telemetry.Counter
	forward     *telemetry.Counter
	backward    *telemetry.Counter
	bb          *telemetry.Counter
	pathSteps   *telemetry.Counter
	memSteps    *telemetry.Counter
	invalidHits *telemetry.Counter
	recycles    *telemetry.Counter
}

func newEngineMetrics(tel *telemetry.Registry) engineMetrics {
	if tel == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		threads:     tel.Counter("prorace_replay_threads_total", "Threads reconstructed."),
		sampled:     tel.Counter("prorace_replay_accesses_sampled_total", "Accesses taken directly from PEBS records (replay.Stats.Sampled)."),
		forward:     tel.Counter("prorace_replay_accesses_forward_total", "Accesses recovered by forward replay (replay.Stats.Forward)."),
		backward:    tel.Counter("prorace_replay_accesses_backward_total", "Accesses recovered only by backward replay (replay.Stats.Backward)."),
		bb:          tel.Counter("prorace_replay_accesses_bb_total", "Accesses recovered by static basic-block reconstruction (replay.Stats.BasicBlock)."),
		pathSteps:   tel.Counter("prorace_replay_path_steps_total", "Decoded path steps walked (replay.Stats.PathSteps)."),
		memSteps:    tel.Counter("prorace_replay_mem_steps_total", "Memory-access instructions on walked paths (replay.Stats.MemSteps)."),
		invalidHits: tel.Counter("prorace_replay_invalid_hits_total", "Recovered unsampled loads of a §5.1 invalidated racy address, each counted once (replay.Stats.InvalidHits)."),
		recycles:    tel.Counter("prorace_replay_pool_recycles_total", "Reconstructions served by a warm pooled pathState."),
	}
}

// publish flushes one thread's stats into the registry — a single batch of
// atomic adds per thread, nothing per step.
func (m *engineMetrics) publish(st *Stats) {
	m.threads.Inc()
	m.sampled.AddInt(st.Sampled)
	m.forward.AddInt(st.Forward)
	m.backward.AddInt(st.Backward)
	m.bb.AddInt(st.BasicBlock)
	m.pathSteps.AddInt(st.PathSteps)
	m.memSteps.AddInt(st.MemSteps)
	m.invalidHits.AddInt(st.InvalidHits)
}

// NewEngine returns an engine for cfg, decoding p's instructions for replay
// once (O(len(p.Insts))). Path modes emulate memory (§5.1) unless
// DisableMemoryEmulation turns it off.
func NewEngine(p *prog.Program, cfg Config) *Engine {
	return &Engine{
		p:             p,
		cfg:           cfg,
		ops:           compileOps(p.Insts),
		emulateMemory: cfg.Mode != ModeBasicBlock,
		states:        &statePool{},
		met:           newEngineMetrics(cfg.Telemetry),
	}
}

// DisableMemoryEmulation returns a copy of the engine without the §5.1
// program-map memory emulation, for the ablation benchmark.
func (e *Engine) DisableMemoryEmulation() *Engine {
	cp := *e
	cp.emulateMemory = false
	return &cp
}

// ReconstructThread produces the extended memory trace of one thread.
func (e *Engine) ReconstructThread(tt *synthesis.ThreadTrace) ([]Access, Stats) {
	acc, st, _ := e.reconstruct(tt, false)
	return acc, st
}

// ReconstructThreadLogged is ReconstructThread that also returns the
// thread's LoadLog, from which the §5.1 feedback decides whether the thread
// must be reconstructed again once the racy addresses are known. The log is
// nil unless the engine replays paths with memory emulation and no
// InvalidAddrs — the only reconstruction a later invalidation can change.
func (e *Engine) ReconstructThreadLogged(tt *synthesis.ThreadTrace) ([]Access, Stats, *LoadLog) {
	return e.reconstruct(tt, e.emulateMemory && len(e.cfg.InvalidAddrs) == 0)
}

func (e *Engine) reconstruct(tt *synthesis.ThreadTrace, logLoads bool) ([]Access, Stats, *LoadLog) {
	var (
		acc []Access
		st  Stats
		log *LoadLog
	)
	switch e.cfg.Mode {
	case ModeBasicBlock:
		acc, st = e.reconstructBB(tt)
	default:
		acc, st, log = e.reconstructPath(tt, logLoads, (*Engine).replayPasses)
	}
	e.met.publish(&st)
	return acc, st, log
}

// LoadLog is what one thread's reconstruction recorded for the §5.1
// feedback: the addresses emulated memory served an address-known load
// from, in either forward pass, and the reconstruction's accesses.
//
// That is enough to replay the effect of invalidating a set of addresses R
// without replaying the thread. Invalidation changes emulated memory only
// at keys in R, and only a load of such a key can observe the change — and
// only if the key was present, since an absent key already left the loaded
// register unknown. Without such a load both forward passes, and so the
// backward pass, run as before; the only difference is that each recovered
// unsampled load of a key in R now counts as an InvalidHit.
type LoadLog struct {
	hits []uint64 // ascending and distinct
	acc  []Access
}

// Reuse reports whether a reconstruction with InvalidAddrs = invalid would
// produce exactly this reconstruction's accesses and stats, and if so the
// InvalidHits it would count. A nil log never allows reuse.
func (l *LoadLog) Reuse(invalid map[uint64]bool) (invalidHits int, ok bool) {
	if l == nil {
		return 0, false
	}
	for _, addr := range l.hits {
		if invalid[addr] {
			return 0, false
		}
	}
	return invalidLoads(l.acc, invalid), true
}

// invalidLoads counts the recovered unsampled loads in acc of an address
// in invalid: Stats.InvalidHits.
func invalidLoads(acc []Access, invalid map[uint64]bool) int {
	if len(invalid) == 0 {
		return 0
	}
	n := 0
	for i := range acc {
		a := &acc[i]
		if !a.Store && (a.Origin == OriginForward || a.Origin == OriginBackward) && invalid[a.Addr] {
			n++
		}
	}
	return n
}

// ReconstructAll runs reconstruction over every thread, returning accesses
// keyed by thread and aggregate stats.
func (e *Engine) ReconstructAll(tts map[int32]*synthesis.ThreadTrace) (map[int32][]Access, Stats) {
	out := make(map[int32][]Access, len(tts))
	var agg Stats
	for tid, tt := range tts {
		acc, st := e.ReconstructThread(tt)
		out[tid] = acc
		agg.Merge(st)
	}
	return out, agg
}

// regFile is the replay register state: value plus availability per
// register — the register half of the paper's "program map".
type regFile struct {
	val   [isa.NumRegs]uint64
	avail uint16 // bit i set = register i available
}

func (r *regFile) has(reg isa.Reg) bool { return r.avail&(1<<reg) != 0 }
func (r *regFile) get(reg isa.Reg) uint64 {
	return r.val[reg]
}
func (r *regFile) set(reg isa.Reg, v uint64) {
	r.val[reg] = v
	r.avail |= 1 << reg
}
func (r *regFile) clear(reg isa.Reg) { r.avail &^= 1 << reg }

func regFileFromSample(rec *tracefmt.PEBSRecord) regFile {
	var rf regFile
	rf.val = rec.Regs
	rf.avail = 0xFFFF
	return rf
}
