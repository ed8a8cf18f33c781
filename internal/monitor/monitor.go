package monitor

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prorace/internal/bugs"
	"prorace/internal/core"
	"prorace/internal/faultinject"
	"prorace/internal/prog"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
	"prorace/internal/workload"
)

// Classified ingest failures. The HTTP layer maps them to status codes;
// in-process callers can errors.Is against them.
var (
	// ErrCorruptSegment reports a frame that failed PRSG decoding. The
	// tenant's degradation record absorbs it; the window is untouched.
	ErrCorruptSegment = errors.New("monitor: corrupt segment")
	// ErrQueueFull reports admission rejection: the tenant's pending queue
	// is at capacity and the segment was dropped (the producer retries).
	ErrQueueFull = errors.New("monitor: tenant queue full")
	// ErrClosed reports ingestion into a shut-down monitor.
	ErrClosed = errors.New("monitor: closed")
	// ErrUnknownProgram reports a segment naming a program the daemon
	// cannot resolve (no uploaded image, no built-in workload or bug).
	ErrUnknownProgram = errors.New("monitor: unknown program")
	// ErrDurability reports a journal append failure: the segment was NOT
	// accepted (the durability contract could not be met) and the producer
	// should retry, ideally after the operator fixes the disk.
	ErrDurability = errors.New("monitor: journal append failed")
)

// Config parameterises a Monitor.
type Config struct {
	// Window is how many most-recent segments of each tenant's stream are
	// re-analysed per round (the rolling window). Default 8.
	Window int
	// QueueDepth bounds each tenant's pending (ingested but not yet
	// analysed) segments; beyond it IngestWith rejects with ErrQueueFull.
	// Default 32.
	QueueDepth int
	// Workers is the analysis worker-pool size. 0 means synchronous:
	// IngestWith runs the analysis round inline before returning
	// (deterministic, used by tests and small deployments).
	Workers int
	// StorePath is the persistent report store location ("" = in memory).
	StorePath string
	// WALDir enables the write-ahead segment journal: every accepted
	// frame is journaled (fsynced per Fsync) before IngestWith returns,
	// and a restarted Monitor replays the unanalyzed suffix. "" disables
	// durability (the PR-6 behaviour).
	WALDir string
	// Fsync is the journal fsync policy (zero value = FsyncAlways).
	Fsync FsyncPolicy
	// WindowMaxAge retires window segments older than this by wall clock
	// (0 = never). Active tenants retire at round start; idle tenants need
	// a periodic Sweep call.
	WindowMaxAge time.Duration
	// MaxBodyBytes bounds ingest/program HTTP bodies. Default 256 MiB.
	MaxBodyBytes int64
	// DedupKeys is how many recent idempotency keys each tenant retains
	// for duplicate-resend detection. Default 512.
	DedupKeys int
	// LineageDepth bounds each tenant's lineage ring (how many recent
	// segments' stage histories are reconstructable). Default 256.
	LineageDepth int
	// Analysis configures each window's analysis round; the zero value is
	// full ProRace. Telemetry inside it is ignored — the monitor owns
	// telemetry.
	Analysis core.AnalysisOptions
	// Telemetry receives the proraced_* series (nil disables).
	Telemetry *telemetry.Registry
	// Alert configures the first-seen race webhook (zero URL disables).
	Alert AlertConfig
	// Now overrides the clock (tests).
	Now func() time.Time
	// Logger receives structured operational events (store salvage, journal
	// damage, alert delivery). Defaults to a text handler on stderr.
	Logger *slog.Logger
}

// ingestSeg is one accepted segment riding through pending and window:
// the decoded trace slice, its ingest time (window-age retirement), its
// journal position (idx = journal index + 1; 0 = not journaled), and its
// lineage ID for stage-transition recording.
type ingestSeg struct {
	seg *tracefmt.Trace
	at  time.Time
	idx uint64
	lin string
}

// tenant is one producer's stream state. Lifecycle: IngestWith appends
// decoded segments to pending under mu; a worker (holding the busy claim
// via the monitor's queue) drains pending into window, analyses a copy of
// the window outside mu, then records the outcome back under mu. The busy
// claim serialises analysis per tenant, so window order is ingest order.
type tenant struct {
	name string

	// lin is the tenant's bounded lineage ring. It has its own mutex and
	// never takes another lock, so it may be called while holding mu (the
	// lock order is t.mu → lin.mu, and lin.mu is always a leaf).
	lin *lineageRing

	mu      sync.Mutex
	pending []ingestSeg
	window  []ingestSeg
	program *prog.Program

	// Idempotent-resend detection: recent ingest keys, bounded FIFO.
	keys     map[string]struct{}
	keyOrder []string

	// Rolling health/degradation record, served by TenantStatus.
	segments     uint64
	bytes        uint64
	salvage      string // journal damage found at boot (sticky, unlike lastError)
	corrupt      uint64
	rejected     uint64
	queueDrops   uint64
	duplicates   uint64
	replayed     uint64
	retired      uint64
	analyses     uint64
	failures     uint64
	lastError    string
	lastAnalysis time.Time
	lastReports  int

	queued bool
}

// seenKeyLocked reports (and records) whether key was recently ingested.
// Caller holds t.mu.
func (t *tenant) seenKeyLocked(key string, cap int) bool {
	if key == "" {
		return false
	}
	if t.keys == nil {
		t.keys = map[string]struct{}{}
	}
	if _, ok := t.keys[key]; ok {
		return true
	}
	t.keys[key] = struct{}{}
	t.keyOrder = append(t.keyOrder, key)
	for len(t.keyOrder) > cap {
		delete(t.keys, t.keyOrder[0])
		t.keyOrder = t.keyOrder[1:]
	}
	return false
}

// TenantStatus is the externally visible health record of one tenant.
type TenantStatus struct {
	Tenant          string    `json:"tenant"`
	Program         string    `json:"program"`
	Segments        uint64    `json:"segments"`
	Bytes           uint64    `json:"bytes"`
	Corrupt         uint64    `json:"corrupt"`
	Rejected        uint64    `json:"rejected"`
	QueueDrops      uint64    `json:"queue_drops"`
	Duplicates      uint64    `json:"duplicates"`
	Replayed        uint64    `json:"replayed"`
	Retired         uint64    `json:"retired"`
	Analyses        uint64    `json:"analyses"`
	Failures        uint64    `json:"failures"`
	Salvage         string    `json:"journal_salvage,omitempty"`
	LastError       string    `json:"last_error,omitempty"`
	LastAnalysis    time.Time `json:"last_analysis"`
	LastReports     int       `json:"last_reports"`
	WindowSegments  int       `json:"window_segments"`
	PendingSegments int       `json:"pending_segments"`

	// Introspection additions (statusz): journal footprint, how far the
	// durable analysis cursor trails the journal head, the rolling window's
	// age bounds, and the lineage ring's lifetime accounting.
	WALBytes        int64     `json:"wal_bytes,omitempty"`
	Cursor          uint64    `json:"cursor,omitempty"`
	CursorLag       uint64    `json:"cursor_lag,omitempty"`
	WindowOldest    time.Time `json:"window_oldest,omitempty"`
	WindowNewest    time.Time `json:"window_newest,omitempty"`
	LineageMinted   uint64    `json:"lineage_minted"`
	LineageTerminal uint64    `json:"lineage_terminal"`
	LineageEvicted  uint64    `json:"lineage_evicted_open"`
	LineageHeld     int       `json:"lineage_held"`
}

// Monitor is the daemon core: per-tenant rolling-window incremental
// analysis over the segment-resumable core API, feeding a deduplicating
// persistent store, with an optional write-ahead journal making the whole
// ingest path crash-safe. All methods are safe for concurrent use.
type Monitor struct {
	cfg     Config
	store   *Store
	wal     *WAL
	tel     *telemetry.Registry
	now     func() time.Time
	log     *slog.Logger
	alerter *alerter

	// started anchors the daemon's uptime; bootID + linSeq mint lineage IDs
	// for producers that predate the X-Prorace-Lineage header.
	started time.Time
	bootID  string
	linSeq  atomic.Uint64

	mu       sync.Mutex
	tenants  map[string]*tenant
	programs map[string]*prog.Program

	// Worker-pool queue: tenants with pending work, each present at most
	// once (tenant.queued). Guarded by qmu; workers wait on qcond.
	qmu      sync.Mutex
	qcond    *sync.Cond
	queue    []*tenant
	inflight int
	closed   bool
	wg       sync.WaitGroup
}

// New builds a Monitor: it opens (salvaging if damaged) the persistent
// store and the write-ahead journal, reloads persisted program images,
// starts the worker pool, and replays every journal's unanalyzed suffix
// through the normal ingest path before returning — callers attach the
// HTTP listener only after recovery is complete.
func New(cfg Config) (*Monitor, error) {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.DedupKeys <= 0 {
		cfg.DedupKeys = 512
	}
	if cfg.LineageDepth <= 0 {
		cfg.LineageDepth = 256
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cfg.Analysis.Telemetry = nil
	store, err := OpenStore(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	store.SetClock(cfg.Now)
	m := &Monitor{
		cfg:      cfg,
		store:    store,
		tel:      cfg.Telemetry,
		now:      cfg.Now,
		log:      cfg.Logger,
		started:  cfg.Now(),
		bootID:   mintBootID(),
		tenants:  map[string]*tenant{},
		programs: map[string]*prog.Program{},
	}
	m.qcond = sync.NewCond(&m.qmu)
	if cfg.Alert.URL != "" {
		m.alerter = newAlerter(cfg.Alert, m.tel, m.log, m.now)
	}
	if w := store.LoadWarning(); w != "" {
		m.log.Warn("store salvaged at boot", "detail", w)
		m.count("proraced_store_salvaged_total", "Corrupt store files set aside and restarted fresh at boot.").Inc()
	}
	if cfg.WALDir != "" {
		wal, err := OpenWAL(cfg.WALDir, cfg.Fsync, cfg.Now)
		if err != nil {
			return nil, err
		}
		m.wal = wal
		for _, raw := range wal.LoadPrograms() {
			p, err := prog.DecodeImage(raw)
			if err != nil {
				m.log.Warn("skipping corrupt persisted program image", "err", err)
				continue
			}
			m.programs[p.Name] = p
		}
	}
	m.gauge("proraced_store_reports", "Distinct races in the persistent report store.").Set(int64(store.Len()))
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.wal != nil {
		m.recover()
	}
	return m, nil
}

// mintBootID draws a short random tag distinguishing this process's
// daemon-minted lineage IDs from a restarted daemon's.
func mintBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "d0"
	}
	return fmt.Sprintf("d%x", b)
}

// mintLineage creates a daemon-side lineage ID for a segment whose
// producer did not send one.
func (m *Monitor) mintLineage(tenant string) string {
	return fmt.Sprintf("%s-%s-%d", m.bootID, tenant, m.linSeq.Add(1))
}

// Store exposes the monitor's report store.
func (m *Monitor) Store() *Store { return m.store }

// Started returns when the monitor was constructed (uptime anchor).
func (m *Monitor) Started() time.Time { return m.started }

// RegisterProgram makes a program image resolvable for incoming segments
// whose trace header names it (the POST /program path). With a journal
// directory configured the image is persisted too, so recovery replay can
// still resolve it after a restart.
func (m *Monitor) RegisterProgram(p *prog.Program) {
	m.mu.Lock()
	m.programs[p.Name] = p
	m.mu.Unlock()
	if m.wal != nil {
		if err := m.wal.SaveProgram(p.Name, prog.EncodeImage(p)); err != nil {
			m.log.Error("persisting program image failed", "program", p.Name, "err", err)
		}
	}
}

// resolveProgram maps a trace's program name to a built program:
// registered images first, then the built-in workload table, then the
// planted-bug table.
func (m *Monitor) resolveProgram(name string) (*prog.Program, error) {
	m.mu.Lock()
	p, ok := m.programs[name]
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	if w, err := workload.ByName(name, 1); err == nil {
		p = w.Program
	} else if b, err := bugs.ByID(name); err == nil {
		p = b.Build(1).Workload.Program
	} else {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, name)
	}
	m.mu.Lock()
	m.programs[name] = p
	m.mu.Unlock()
	return p, nil
}

func (m *Monitor) tenantFor(name string) *tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	if !ok {
		t = &tenant{name: name, lin: newLineageRing(m.cfg.LineageDepth)}
		m.tenants[name] = t
		m.gauge("proraced_tenants", "Tenants with at least one ingest attempt.").Set(int64(len(m.tenants)))
	}
	return t
}

// IngestMeta carries per-segment ingest metadata from the transport.
type IngestMeta struct {
	// Key is the idempotency key ("" = none): a resend of a recently
	// accepted key is acknowledged without re-ingesting.
	Key string
	// Lineage is the producer-minted lineage ID (X-Prorace-Lineage; "" =
	// the daemon mints one).
	Lineage string
}

// IngestWith accepts one PRSG-framed segment from tenantName. Decoding,
// admission, the journal append (when durability is on) and — with
// Workers == 0 — the analysis round happen before it returns; with a
// worker pool the analysis is scheduled and IngestWith returns once the
// segment is journaled and queued. Failures are tenant-scoped: a corrupt
// frame or full queue degrades this tenant's record and leaves every
// other tenant — and the daemon — untouched.
//
// Lineage: an accepted segment's ID enters the tenant's lineage ring at
// StageIngested and rides the WAL record, so the history survives a
// crash. Permanent rejections (corrupt frame, unknown program) record a
// terminal rejected lineage when the producer supplied an ID; retryable
// rejections (queue full, journal failure) record nothing, because the
// producer's retry of the same lineage ID must be mintable.
func (m *Monitor) IngestWith(tenantName string, meta IngestMeta, frame []byte) error {
	m.qmu.Lock()
	closed := m.closed
	m.qmu.Unlock()
	if closed {
		return ErrClosed
	}
	t := m.tenantFor(tenantName)
	t.mu.Lock()
	if meta.Key != "" {
		if _, dup := t.keys[meta.Key]; dup {
			t.duplicates++
			t.mu.Unlock()
			m.count("proraced_segments_duplicate_total", "Idempotent resends acknowledged without re-ingesting (producer retries).").Inc()
			return nil
		}
	}
	t.mu.Unlock()
	hdr, seg, err := tracefmt.DecodeSegment(frame)
	if err != nil {
		t.mu.Lock()
		t.corrupt++
		t.lastError = err.Error()
		t.mu.Unlock()
		m.rejectLineage(t, meta.Lineage, 0, len(frame), err)
		m.count("proraced_segments_corrupt_total", "Ingested frames that failed PRSG decoding.").Inc()
		return fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	if _, err := m.resolveProgram(seg.Program); err != nil {
		t.mu.Lock()
		t.rejected++
		t.lastError = err.Error()
		t.mu.Unlock()
		m.rejectLineage(t, meta.Lineage, hdr.Seq, len(frame), err)
		m.count("proraced_segments_rejected_total", "Decoded segments rejected before analysis (unknown program, session mismatch).").Inc()
		return err
	}
	now := m.now()
	lin := meta.Lineage
	if lin == "" {
		lin = m.mintLineage(tenantName)
	}
	t.mu.Lock()
	if len(t.pending) >= m.cfg.QueueDepth {
		t.queueDrops++
		t.mu.Unlock()
		m.count("proraced_queue_rejections_total", "Segments dropped at admission because the tenant's pending queue was full.").Inc()
		return fmt.Errorf("%w: tenant %q has %d pending segments", ErrQueueFull, tenantName, m.cfg.QueueDepth)
	}
	// The durability point: journal the frame (fsync per policy) while
	// still holding the admission slot, so "accepted" always means
	// "replayable". Everything after this line is recoverable — the
	// record carries the lineage ID, so replay reconstructs the history.
	var idx uint64
	if m.wal != nil {
		jidx, err := m.wal.Append(tenantName, meta.Key, lin, frame)
		if err != nil {
			t.mu.Unlock()
			m.log.Error("journal append failed", "tenant", tenantName, "err", err)
			m.count("proraced_wal_append_failures_total", "Journal appends that failed (the segment was rejected, producer retries).").Inc()
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
		idx = jidx + 1
		m.count("proraced_wal_appends_total", "Segments appended to the write-ahead journal.").Inc()
		m.count("proraced_wal_bytes_total", "Bytes appended to the write-ahead journal.").AddInt(len(frame))
	}
	if !t.lin.mint(lin, hdr.Seq, uint64(len(frame)), false, now) {
		// The producer reused a live or remembered ID (e.g. a retry whose
		// key aged out of the dedup FIFO). Keep histories separate.
		lin = m.mintLineage(tenantName)
		t.lin.mint(lin, hdr.Seq, uint64(len(frame)), false, now)
	}
	if m.wal != nil {
		t.lin.setJournal(lin, idx)
		if _, d, ok := t.lin.transition(lin, StageFsynced, m.now()); ok {
			m.hist("proraced_stage_fsync_seconds", "Time from ingest admission to the segment being journaled.").Observe(d.Seconds())
		}
	}
	t.seenKeyLocked(meta.Key, m.cfg.DedupKeys)
	t.pending = append(t.pending, ingestSeg{seg: seg, at: now, idx: idx, lin: lin})
	t.segments++
	t.bytes += seg.TotalBytes()
	t.mu.Unlock()
	// The acknowledgement is now guaranteed (journaled + admitted): the
	// lineage advances to acked, then queued as it waits in pending.
	if _, d, ok := t.lin.transition(lin, StageAcked, m.now()); ok {
		m.hist("proraced_stage_ack_seconds", "Time from journaled to acknowledgement-guaranteed.").Observe(d.Seconds())
	}
	m.count("proraced_segments_ingested_total", "Segments accepted into tenant windows.").Inc()
	m.count("proraced_segment_bytes_total", "Trace payload bytes accepted into tenant windows.").Add(seg.TotalBytes())
	// Chaos point: the segment is journaled but the producer has not been
	// acknowledged — a crash here must be covered by replay plus the
	// producer's keyed retry.
	faultinject.Crash("monitor.ingest.preack")
	t.lin.transition(lin, StageQueued, m.now())
	if m.cfg.Workers == 0 {
		m.analyzeTenant(t)
		return nil
	}
	m.schedule(t)
	return nil
}

// rejectLineage records a terminal rejected lineage for a permanently
// rejected ingest, but only when the producer supplied the ID: a 400 is
// not retried, so the terminal entry cannot wedge a future resend, and
// the producer can correlate the rejection with its own send.
func (m *Monitor) rejectLineage(t *tenant, lin string, seq uint64, bytes int, cause error) {
	if lin == "" {
		return
	}
	now := m.now()
	t.lin.mint(lin, seq, uint64(bytes), false, now)
	t.lin.transitionErr(lin, StageRejected, cause.Error(), now)
}

// recover replays every journal: segments the persisted cursor proves
// were analyzed are restored into the tenant's rolling window (no
// re-analysis, no re-observation), and the unanalyzed suffix is re-fed
// through the normal ingest path — with Workers == 0 that reproduces the
// exact round structure an uninterrupted run would have had, which is
// what makes the chaos harness's occurrence-count equivalence hold.
func (m *Monitor) recover() {
	for tenantName, sal := range m.wal.Salvage() {
		t := m.tenantFor(tenantName)
		t.mu.Lock()
		t.salvage = fmt.Sprintf("journal salvage: %d torn bytes, %d bad records", sal.TornBytes, sal.BadRecords)
		t.mu.Unlock()
		m.count("proraced_wal_torn_records_total", "Journal records dropped as torn or damaged during recovery.").AddInt(sal.BadRecords)
		m.count("proraced_wal_salvaged_bytes_total", "Journal tail bytes truncated away during recovery salvage.").AddInt(sal.TornBytes)
	}
	for _, tenantName := range m.wal.Tenants() {
		cursor := m.store.Cursor(tenantName)
		recs, _, err := m.wal.Records(tenantName, 0)
		if err != nil {
			m.log.Error("reading journal failed", "tenant", tenantName, "err", err)
			continue
		}
		if len(recs) == 0 {
			continue
		}
		m.count("proraced_recovery_tenants_total", "Tenants with journal records at boot.").Inc()
		t := m.tenantFor(tenantName)
		now := m.now()

		// Rebuild the rolling window from the analyzed prefix: the last
		// Window records the cursor has passed, filtered to the newest
		// run's identity, exactly as live eviction would have left it.
		var analyzed []WALRecord
		var suffix []WALRecord
		for _, rec := range recs {
			if rec.Index+1 <= cursor {
				analyzed = append(analyzed, rec)
			} else {
				suffix = append(suffix, rec)
			}
		}
		if len(analyzed) > m.cfg.Window {
			analyzed = analyzed[len(analyzed)-m.cfg.Window:]
		}
		t.mu.Lock()
		for _, rec := range analyzed {
			hdr, seg, err := tracefmt.DecodeSegment(rec.Frame)
			if err != nil {
				continue // bit rot in an already-analyzed record: window only degrades
			}
			t.seenKeyLocked(rec.Key, m.cfg.DedupKeys)
			// The lineage replays out of the WAL record, flagged Recovered;
			// the cursor proves it was analyzed before the crash, so the
			// reconstructed history jumps straight to its terminal stage.
			lid := m.replayLineage(t, rec, hdr.Seq, now)
			t.lin.transition(lid, StageAnalyzed, now)
			t.window = append(t.window, ingestSeg{seg: seg, at: now, idx: rec.Index + 1, lin: lid})
		}
		if n := len(t.window); n > 0 {
			newest := t.window[n-1].seg
			keep := t.window[:0]
			for _, ws := range t.window {
				if ws.seg.Program == newest.Program && ws.seg.Period == newest.Period && ws.seg.Seed == newest.Seed {
					keep = append(keep, ws)
				}
			}
			t.window = keep
		}
		restored := len(t.window)
		t.mu.Unlock()
		m.count("proraced_recovery_window_total", "Analyzed journal segments restored into rolling windows at boot.").AddInt(restored)

		// Re-ingest the unanalyzed suffix through the normal path.
		for _, rec := range suffix {
			m.replayRecord(t, rec, now)
		}
	}
}

// replayLineage re-mints a journaled record's lineage into the ring,
// flagged Recovered (falling back to a synthetic ID for pre-lineage v1
// records), and returns the ID in effect.
func (m *Monitor) replayLineage(t *tenant, rec WALRecord, seq uint64, now time.Time) string {
	lid := rec.Lineage
	if lid == "" {
		lid = fmt.Sprintf("recovered-%s-%d", t.name, rec.Index)
	}
	if !t.lin.mint(lid, seq, uint64(len(rec.Frame)), true, now) {
		lid = fmt.Sprintf("recovered-%s-%d", t.name, rec.Index)
		t.lin.mint(lid, seq, uint64(len(rec.Frame)), true, now)
	}
	t.lin.setJournal(lid, rec.Index+1)
	return lid
}

// replayRecord feeds one journaled-but-unanalyzed record back through the
// ingest path: same decode, resolution and analysis as a live ingest, but
// no re-journaling and no admission bound (the record was already
// admitted once). Damaged or unresolvable records advance the in-memory
// cursor so a poison record cannot wedge every future boot.
func (m *Monitor) replayRecord(t *tenant, rec WALRecord, now time.Time) {
	hdr, seg, err := tracefmt.DecodeSegment(rec.Frame)
	if err != nil {
		t.mu.Lock()
		t.corrupt++
		t.lastError = fmt.Sprintf("journal replay: %v", err)
		t.mu.Unlock()
		lid := m.replayLineage(t, rec, 0, now)
		t.lin.transitionErr(lid, StageRejected, fmt.Sprintf("journal replay: %v", err), now)
		m.count("proraced_recovery_corrupt_total", "Journal records whose frames failed decoding during replay.").Inc()
		m.store.SetCursor(t.name, rec.Index+1)
		return
	}
	if _, err := m.resolveProgram(seg.Program); err != nil {
		t.mu.Lock()
		t.rejected++
		t.lastError = fmt.Sprintf("journal replay: %v", err)
		t.mu.Unlock()
		lid := m.replayLineage(t, rec, hdr.Seq, now)
		t.lin.transitionErr(lid, StageRejected, fmt.Sprintf("journal replay: %v", err), now)
		m.count("proraced_segments_rejected_total", "Decoded segments rejected before analysis (unknown program, session mismatch).").Inc()
		m.store.SetCursor(t.name, rec.Index+1)
		return
	}
	lid := m.replayLineage(t, rec, hdr.Seq, now)
	t.lin.transition(lid, StageFsynced, now) // it came from the journal
	t.mu.Lock()
	t.seenKeyLocked(rec.Key, m.cfg.DedupKeys)
	t.pending = append(t.pending, ingestSeg{seg: seg, at: now, idx: rec.Index + 1, lin: lid})
	t.segments++
	t.bytes += seg.TotalBytes()
	t.replayed++
	t.mu.Unlock()
	t.lin.transition(lid, StageQueued, now)
	m.count("proraced_recovery_replayed_total", "Unanalyzed journal segments re-fed through analysis at boot.").Inc()
	if m.cfg.Workers == 0 {
		m.analyzeTenant(t)
	} else {
		m.schedule(t)
	}
}

// schedule puts t on the worker queue unless it is already there or being
// processed; the processing worker re-checks pending before releasing its
// claim, so no segment is stranded.
func (m *Monitor) schedule(t *tenant) {
	m.qmu.Lock()
	if !t.queued && !m.closed {
		t.queued = true
		m.queue = append(m.queue, t)
		m.qcond.Signal()
	}
	m.qmu.Unlock()
}

func (m *Monitor) worker() {
	defer m.wg.Done()
	for {
		m.qmu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.qcond.Wait()
		}
		if len(m.queue) == 0 && m.closed {
			m.qmu.Unlock()
			return
		}
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.inflight++
		m.qmu.Unlock()

		m.analyzeTenant(t)

		m.qmu.Lock()
		m.inflight--
		t.queued = false
		// New segments may have arrived while we analysed; requeue rather
		// than strand them (IngestWith's schedule saw queued == true).
		t.mu.Lock()
		again := len(t.pending) > 0
		t.mu.Unlock()
		if again && !m.closed {
			t.queued = true
			m.queue = append(m.queue, t)
			m.qcond.Signal()
		}
		if m.inflight == 0 && len(m.queue) == 0 {
			m.qcond.Broadcast()
		}
		m.qmu.Unlock()
	}
}

// retireLocked drops window segments older than WindowMaxAge. Caller
// holds t.mu; returns how many were dropped and whether that emptied a
// previously non-empty window.
func (m *Monitor) retireLocked(t *tenant, now time.Time) (dropped int, emptied bool) {
	if m.cfg.WindowMaxAge <= 0 || len(t.window) == 0 {
		return 0, false
	}
	i := 0
	for i < len(t.window) && now.Sub(t.window[i].at) > m.cfg.WindowMaxAge {
		i++
	}
	if i == 0 {
		return 0, false
	}
	for _, ws := range t.window[:i] {
		// Already-analyzed segments are terminal (no-op); one that aged out
		// before any round completed ends its lineage as retired.
		t.lin.transitionErr(ws.lin, StageRetired, "window age", now)
	}
	emptied = i == len(t.window)
	t.window = append(t.window[:0], t.window[i:]...)
	t.retired += uint64(i)
	return i, emptied
}

// noteRetirement publishes retirement counters (outside tenant locks).
func (m *Monitor) noteRetirement(dropped int, emptied bool) {
	if dropped == 0 {
		return
	}
	m.count("proraced_window_segments_expired_total", "Window segments retired by wall-clock age.").AddInt(dropped)
	if emptied {
		m.count("proraced_windows_retired_total", "Rolling windows fully retired by wall-clock age.").Inc()
	}
}

// Sweep retires expired window segments across all tenants (the periodic
// janitor for idle tenants; active tenants also retire at round start).
// It returns how many segments were dropped.
func (m *Monitor) Sweep() int {
	if m.cfg.WindowMaxAge <= 0 {
		return 0
	}
	now := m.now()
	m.mu.Lock()
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	total := 0
	for _, t := range ts {
		t.mu.Lock()
		dropped, emptied := m.retireLocked(t, now)
		t.mu.Unlock()
		m.noteRetirement(dropped, emptied)
		total += dropped
		if dropped > 0 {
			m.maybeCompact(t)
		}
	}
	return total
}

// analyzeTenant runs one analysis round: retire aged window segments,
// drain pending into the rolling window, re-analyse the window on a fresh
// session, fold reports into the store and advance the journal cursor in
// the same persist. The tenant's busy claim (worker queue) serialises
// rounds, so pending/window mutation order is ingest order.
func (m *Monitor) analyzeTenant(t *tenant) {
	roundNow := m.now()
	t.mu.Lock()
	retiredN, retiredEmpty := m.retireLocked(t, roundNow)
	// cursorAdv is the journal position this round consumes through: the
	// last drained segment's position (trimmed-away segments count as
	// consumed — they will never be analysed, by design of the window).
	var cursorAdv uint64
	if n := len(t.pending); n > 0 {
		cursorAdv = t.pending[n-1].idx
	}
	t.window = append(t.window, t.pending...)
	t.pending = nil
	if len(t.window) > m.cfg.Window {
		for _, ws := range t.window[:len(t.window)-m.cfg.Window] {
			// Trimmed away before a round could include it (terminal
			// entries no-op): consumed by design of the window, never
			// analysed — the lineage ends as retired.
			t.lin.transitionErr(ws.lin, StageRetired, "window overflow", roundNow)
		}
		t.window = t.window[len(t.window)-m.cfg.Window:]
	}
	window := make([]ingestSeg, len(t.window))
	copy(window, t.window)
	t.mu.Unlock()
	m.noteRetirement(retiredN, retiredEmpty)
	if len(window) == 0 {
		if cursorAdv > 0 {
			m.store.SetCursor(t.name, cursorAdv)
		}
		return
	}
	for _, ws := range window {
		// First round over a segment: queued → analyzing (re-analyses of
		// terminal segments are counted via Rounds after the round).
		if _, d, ok := t.lin.transition(ws.lin, StageAnalyzing, roundNow); ok {
			m.hist("proraced_stage_queue_wait_seconds", "Time a segment waited in the pending queue before its first analysis round.").Observe(d.Seconds())
		}
	}

	p, err := m.resolveProgram(window[0].seg.Program)
	if err != nil {
		m.recordFailure(t, err)
		return
	}
	a, err := core.NewAnalyzer(p, m.cfg.Analysis)
	if err != nil {
		m.recordFailure(t, err)
		return
	}
	rejected := 0
	for _, ws := range window {
		if err := a.Feed(ws.seg); err != nil {
			// A window can legitimately mix runs (the producer restarted
			// with a new seed): segments of a different run are rejected
			// by the session and recorded as tenant degradation, and the
			// stale prefix is evicted below so the window converges on
			// the newest run instead of rejecting forever.
			rejected++
			t.lin.transitionErr(ws.lin, StageRejected, err.Error(), m.now())
			m.count("proraced_segments_rejected_total", "Decoded segments rejected before analysis (unknown program, session mismatch).").Inc()
			continue
		}
	}
	if rejected > 0 {
		t.mu.Lock()
		t.rejected += uint64(rejected)
		// Keep only the suffix matching the newest segment's run identity.
		newest := window[len(window)-1].seg
		keep := t.window[:0]
		for _, ws := range t.window {
			if ws.seg.Program == newest.Program && ws.seg.Period == newest.Period && ws.seg.Seed == newest.Seed {
				keep = append(keep, ws)
			}
		}
		t.window = keep
		t.mu.Unlock()
	}
	res, err := a.Finish()
	if err != nil {
		m.recordFailure(t, err)
		return
	}
	// Chaos point: the round is computed but nothing is persisted — a
	// crash here must replay the round from the journal.
	faultinject.Crash("monitor.analyze.mid")
	fresh, repeated, serr := m.store.ObserveNewAt(t.name, window[0].seg.Program, res.Reports, cursorAdv)
	now := m.now()
	t.mu.Lock()
	t.analyses++
	t.lastAnalysis = now
	t.lastReports = len(res.Reports)
	if serr != nil {
		t.lastError = serr.Error()
	} else if rejected == 0 {
		t.lastError = ""
	}
	t.mu.Unlock()
	// Terminal lineage accounting: every window segment that was part of
	// this completed round is now analyzed; segments already terminal get a
	// round bump instead (rejected/retired ones were not part of the
	// round's results and get neither).
	for _, ws := range window {
		if ws.lin == "" {
			continue
		}
		switch t.lin.stage(ws.lin) {
		case StageAnalyzed:
			t.lin.bumpRounds(ws.lin)
		case StageRejected, StageRetired, "":
		default:
			if sinceIngest, d, ok := t.lin.transition(ws.lin, StageAnalyzed, now); ok {
				t.lin.bumpRounds(ws.lin)
				m.hist("proraced_stage_analyze_seconds", "Time a segment spent in its first analysis round.").Observe(d.Seconds())
				m.hist("proraced_ingest_to_analyzed_seconds", "End-to-end latency from ingest admission to the first completed analysis round over the segment.").Observe(sinceIngest.Seconds())
			}
		}
	}
	m.count("proraced_analyses_total", "Rolling-window analysis rounds completed.").Inc()
	m.count("proraced_reports_total", "Race reports produced by analysis rounds (pre-dedup).").AddInt(len(res.Reports))
	m.count("proraced_reports_new_total", "Distinct races first observed by this daemon.").AddInt(len(fresh))
	m.count("proraced_reports_dup_total", "Race observations deduplicated against the store.").AddInt(repeated)
	m.gauge("proraced_store_reports", "Distinct races in the persistent report store.").Set(int64(m.store.Len()))
	if m.alerter != nil && len(fresh) > 0 {
		// The newest window segment is the one whose arrival completed the
		// round that surfaced these races — its lineage goes on the alert.
		var surfaced *SegmentLineage
		if l, ok := t.lin.get(window[len(window)-1].lin); ok {
			surfaced = &l
		}
		for _, sr := range fresh {
			m.alerter.fire(AlertEvent{
				Time:        now,
				Tenant:      sr.Tenant,
				Program:     sr.Program,
				Fingerprint: sr.Fingerprint,
				FirstPC:     pcHex(sr.Report.First.PC),
				SecondPC:    pcHex(sr.Report.Second.PC),
				Occurrences: sr.Occurrences,
				Witness:     sr.Report.Witness != "",
				Lineage:     surfaced,
			})
		}
	}
	m.maybeCompact(t)
}

// maybeCompact drops the journal prefix that is both analysed (behind the
// cursor) and outside the rebuildable window, once enough of it has
// accumulated to be worth a rewrite.
func (m *Monitor) maybeCompact(t *tenant) {
	if m.wal == nil {
		return
	}
	cursor := m.store.Cursor(t.name)
	if cursor == 0 {
		return
	}
	// The oldest journal record still needed is the first window
	// segment's; with an empty window everything before the cursor is
	// droppable.
	keepFrom := cursor
	t.mu.Lock()
	for _, ws := range t.window {
		if ws.idx > 0 {
			keepFrom = ws.idx - 1
			break
		}
	}
	t.mu.Unlock()
	threshold := uint64(m.cfg.Window)
	if threshold < 8 {
		threshold = 8
	}
	j, err := m.wal.journalFor(t.name)
	if err != nil {
		return
	}
	j.mu.Lock()
	droppable := int64(keepFrom) - int64(j.base)
	j.mu.Unlock()
	if droppable < int64(threshold) {
		return
	}
	if err := m.wal.Compact(t.name, keepFrom); err != nil {
		m.log.Error("journal compaction failed", "tenant", t.name, "err", err)
		return
	}
	m.count("proraced_wal_compactions_total", "Journal compactions (analysed prefix dropped).").Inc()
}

func (m *Monitor) recordFailure(t *tenant, err error) {
	t.mu.Lock()
	t.failures++
	t.lastError = err.Error()
	t.mu.Unlock()
	m.count("proraced_analysis_failures_total", "Analysis rounds that failed (the tenant window is kept; the daemon is unaffected).").Inc()
}

// Wait blocks until every queued and in-flight analysis round has
// completed (quiescence). It does not prevent new ingests from starting
// new rounds afterwards.
func (m *Monitor) Wait() {
	m.qmu.Lock()
	for len(m.queue) > 0 || m.inflight > 0 {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
}

// Close is the graceful drain: it stops accepting ingest (ErrClosed /
// HTTP 503 + Retry-After), lets every queued and in-flight analysis round
// finish, persists the store with the final journal cursors, and syncs
// and closes the journal. After Close returns, a restarted Monitor finds
// nothing to replay — no accepted segment is lost.
func (m *Monitor) Close() error {
	m.qmu.Lock()
	if m.closed {
		m.qmu.Unlock()
		return nil
	}
	for len(m.queue) > 0 || m.inflight > 0 {
		m.qcond.Wait()
	}
	m.closed = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
	m.wg.Wait()
	if m.alerter != nil {
		m.alerter.close()
	}
	err := m.store.Save()
	if m.wal != nil {
		if serr := m.wal.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := m.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Tenants returns every tenant's status, sorted by name.
func (m *Monitor) Tenants() []TenantStatus {
	m.mu.Lock()
	names := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		names = append(names, t)
	}
	m.mu.Unlock()
	out := make([]TenantStatus, 0, len(names))
	for _, t := range names {
		out = append(out, m.tenantStatus(t))
	}
	sortTenantStatus(out)
	return out
}

func (m *Monitor) tenantStatus(t *tenant) TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStatus{
		Tenant:          t.name,
		Segments:        t.segments,
		Bytes:           t.bytes,
		Corrupt:         t.corrupt,
		Rejected:        t.rejected,
		QueueDrops:      t.queueDrops,
		Duplicates:      t.duplicates,
		Replayed:        t.replayed,
		Retired:         t.retired,
		Analyses:        t.analyses,
		Failures:        t.failures,
		Salvage:         t.salvage,
		LastError:       t.lastError,
		LastAnalysis:    t.lastAnalysis,
		LastReports:     t.lastReports,
		WindowSegments:  len(t.window),
		PendingSegments: len(t.pending),
	}
	if len(t.window) > 0 {
		st.Program = t.window[len(t.window)-1].seg.Program
		st.WindowOldest = t.window[0].at
		st.WindowNewest = t.window[len(t.window)-1].at
	} else if len(t.pending) > 0 {
		st.Program = t.pending[len(t.pending)-1].seg.Program
	}
	st.LineageMinted, st.LineageTerminal, st.LineageEvicted, st.LineageHeld = t.lin.stats()
	if m.wal != nil {
		st.WALBytes = m.wal.Size(t.name)
		st.Cursor = m.store.Cursor(t.name)
		if head := m.wal.NextIndex(t.name); head > st.Cursor {
			st.CursorLag = head - st.Cursor
		}
	}
	return st
}

// Lineages returns copies of tenantName's newest n lineage-ring entries,
// oldest of them first (n <= 0 means the whole ring).
func (m *Monitor) Lineages(tenantName string, n int) []SegmentLineage {
	m.mu.Lock()
	t, ok := m.tenants[tenantName]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	return t.lin.tail(n)
}

// Lineage returns one tenant's lineage entry by ID.
func (m *Monitor) Lineage(tenantName, id string) (SegmentLineage, bool) {
	m.mu.Lock()
	t, ok := m.tenants[tenantName]
	m.mu.Unlock()
	if !ok {
		return SegmentLineage{}, false
	}
	return t.lin.get(id)
}

// OpenLineages returns every tenant's non-terminal lineage entries — the
// completeness invariant's violation set once the monitor is quiescent
// (tests assert it is empty after Close).
func (m *Monitor) OpenLineages() map[string][]SegmentLineage {
	m.mu.Lock()
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	out := map[string][]SegmentLineage{}
	for _, t := range ts {
		if open := t.lin.open(); len(open) > 0 {
			out[t.name] = open
		}
	}
	return out
}

func sortTenantStatus(ts []TenantStatus) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Tenant < ts[j].Tenant })
}

// count and gauge tolerate a nil registry (telemetry disabled).
func (m *Monitor) count(name, help string) *telemetry.Counter {
	return m.tel.Counter(name, help)
}

func (m *Monitor) gauge(name, help string) *telemetry.Gauge {
	return m.tel.Gauge(name, help)
}

func (m *Monitor) hist(name, help string) *telemetry.Histogram {
	return m.tel.Histogram(name, help, telemetry.DurationBuckets)
}
