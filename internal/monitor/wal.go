package monitor

// The write-ahead segment journal. IngestWith's durability contract is
// "accepted means survivable": every PRSG frame is appended to its
// tenant's journal — checksummed, length-prefixed, fsynced per policy —
// before the HTTP 200 goes out, so a daemon crash can lose only segments
// the producer was never told were safe (and will therefore resend). On
// restart the Monitor replays each journal's unanalyzed suffix through
// the normal ingest path; the store's cursor (persisted atomically with
// the reports it covers) marks where analysis had durably reached, which
// together with the store's stable fingerprints yields effectively-once
// report semantics across crashes.
//
// Journal file layout, little endian:
//
//	header: magic "PRWJ" | version u16 | base u64 | tenLen u16 | tenant
//	record: n u32 | body (n bytes) | check u64 (FNV-1a over body)
//	body v1: keyLen u16 | key | frame (raw PRSG bytes)
//	body v2: keyLen u16 | key | linLen u16 | lineage | frame
//
// Version 2 adds the segment's lineage ID to every record, so a restarted
// daemon reconstructs the same lineage entries (flagged Recovered) that
// the crashed incarnation was tracking. Version 1 journals remain
// readable — their records simply carry no lineage — and keep appending
// v1 records until a compaction rewrites the file as v2.
//
// base is the global index of the file's first record: indices never
// reset, so the store's cursor stays valid across compactions (a rewrite
// that drops records already analyzed and no longer needed for window
// rebuild). A torn tail — the record a crash interrupted — is salvaged
// leniently: the readable prefix is kept, the tail is truncated away and
// accounted, and the daemon boots.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"prorace/internal/faultinject"
)

// Fsync policies for the journal.
const (
	// FsyncAlways syncs after every append, before the ingest 200: no
	// accepted segment can be lost even to a machine crash.
	FsyncAlways = "always"
	// FsyncInterval syncs at most once per interval (plus on drain): a
	// machine crash can lose up to one interval of accepted segments; a
	// plain process crash loses nothing (the OS still has the writes).
	FsyncInterval = "interval"
	// FsyncOff never syncs except on drain.
	FsyncOff = "off"
)

// FsyncPolicy says when journal appends reach stable storage.
type FsyncPolicy struct {
	Mode     string        // FsyncAlways, FsyncInterval or FsyncOff
	Interval time.Duration // used by FsyncInterval (default 100ms)
}

// ParseFsyncPolicy reads "always", "off", "interval" or "interval=DUR".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == FsyncAlways {
		return FsyncPolicy{Mode: FsyncAlways}, nil
	}
	if s == FsyncOff {
		return FsyncPolicy{Mode: FsyncOff}, nil
	}
	if s == FsyncInterval {
		return FsyncPolicy{Mode: FsyncInterval, Interval: 100 * time.Millisecond}, nil
	}
	if dv, ok := strings.CutPrefix(s, FsyncInterval+"="); ok {
		d, err := time.ParseDuration(dv)
		if err != nil || d <= 0 {
			return FsyncPolicy{}, fmt.Errorf("monitor: bad fsync interval %q", dv)
		}
		return FsyncPolicy{Mode: FsyncInterval, Interval: d}, nil
	}
	return FsyncPolicy{}, fmt.Errorf("monitor: unknown fsync policy %q (want always, interval[=dur] or off)", s)
}

const (
	walMagic     = "PRWJ"
	walVersion   = 2
	walVersionV1 = 1
)

// WALRecord is one journaled ingest: the raw frame plus the idempotency
// key and lineage ID the producer sent with it. Index is the record's
// global position in its tenant's journal (never reset by compaction).
type WALRecord struct {
	Index   uint64
	Key     string
	Lineage string
	Frame   []byte
}

// WALSalvage accounts what a lenient journal read had to give up.
type WALSalvage struct {
	// TornBytes is the size of a trailing partial record (a crash mid
	// append) that was dropped.
	TornBytes int
	// BadRecords counts records dropped for checksum or framing damage.
	BadRecords int
}

// Degraded reports whether anything was lost.
func (s WALSalvage) Degraded() bool { return s.TornBytes > 0 || s.BadRecords > 0 }

// journal is one tenant's open journal file.
type journal struct {
	mu       sync.Mutex
	path     string
	tenant   string
	f        *os.File
	version  uint16 // record encoding appended to this file
	base     uint64 // global index of the file's first record
	count    uint64 // records currently in the file
	size     int64  // current file size (append offset)
	lastSync time.Time
	dirty    bool
}

// WAL is the per-tenant journal set rooted at one directory, plus the
// persisted program-image registry (recovery must be able to resolve the
// programs the journaled segments name, so RegisterProgram images are
// stored next to the journals).
type WAL struct {
	dir    string
	policy FsyncPolicy
	now    func() time.Time

	mu       sync.Mutex
	journals map[string]*journal // tenant -> journal
	salvage  map[string]WALSalvage
}

// OpenWAL opens (creating if needed) the journal directory and leniently
// scans every existing journal: torn tails are truncated away and
// recorded per tenant, unreadable files are quarantined with a .corrupt
// suffix — a damaged journal degrades recovery, never boot.
func OpenWAL(dir string, policy FsyncPolicy, now func() time.Time) (*WAL, error) {
	if policy.Mode == "" {
		policy.Mode = FsyncAlways
	}
	if policy.Mode == FsyncInterval && policy.Interval <= 0 {
		policy.Interval = 100 * time.Millisecond
	}
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(filepath.Join(dir, "programs"), 0o755); err != nil {
		return nil, fmt.Errorf("monitor: creating wal dir: %w", err)
	}
	w := &WAL{
		dir:      dir,
		policy:   policy,
		now:      now,
		journals: map[string]*journal{},
		salvage:  map[string]WALSalvage{},
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	for _, path := range names {
		if err := w.openExisting(path); err != nil {
			// Unreadable header: quarantine and continue booting.
			os.Rename(path, path+".corrupt")
		}
	}
	return w, nil
}

// openExisting scans one journal file, truncating a torn tail so that the
// next append starts on a record boundary.
func (w *WAL) openExisting(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tenant, base, version, recs, good, sal, err := decodeJournal(data)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if int64(good) < int64(len(data)) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	w.journals[tenant] = &journal{
		path:    path,
		tenant:  tenant,
		f:       f,
		version: version,
		base:    base,
		count:   uint64(len(recs)),
		size:    int64(good),
	}
	if sal.Degraded() {
		w.salvage[tenant] = sal
	}
	return nil
}

// Salvage returns per-tenant damage found while opening journals.
func (w *WAL) Salvage() map[string]WALSalvage {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]WALSalvage, len(w.salvage))
	for k, v := range w.salvage {
		out[k] = v
	}
	return out
}

// Tenants lists tenants with a journal, sorted (deterministic recovery
// order).
func (w *WAL) Tenants() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.journals))
	for t := range w.journals {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (w *WAL) journalFor(tenant string) (*journal, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j, ok := w.journals[tenant]; ok {
		return j, nil
	}
	h := fnv.New64a()
	h.Write([]byte(tenant))
	path := filepath.Join(w.dir, fmt.Sprintf("%016x.wal", h.Sum64()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := encodeJournalHeader(tenant, 0)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	j := &journal{path: path, tenant: tenant, f: f, version: walVersion, size: int64(len(hdr))}
	w.journals[tenant] = j
	return j, nil
}

// Append journals one accepted frame and returns its global index. The
// write (and, under FsyncAlways, the sync) completes before Append
// returns — this is the durability point the ingest 200 stands on.
func (w *WAL) Append(tenant, key, lineage string, frame []byte) (uint64, error) {
	j, err := w.journalFor(tenant)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := encodeWALRecord(j.version, key, lineage, frame)
	// Chaos point: a crash halfway through the append leaves a torn tail
	// for recovery to salvage.
	faultinject.CrashWith("wal.append.mid", func() {
		j.f.Write(rec[:len(rec)/2])
		j.f.Sync()
	})
	if _, err := j.f.Write(rec); err != nil {
		// Undo a possibly partial write so the journal stays parseable.
		j.f.Truncate(j.size)
		j.f.Seek(j.size, 0)
		return 0, fmt.Errorf("monitor: journal append: %w", err)
	}
	j.size += int64(len(rec))
	j.dirty = true
	// Chaos point: crash after the write, before the sync. Under
	// FsyncAlways the segment was never acknowledged, so the producer's
	// retry (same idempotency key) covers it.
	faultinject.Crash("wal.append.presync")
	if err := w.maybeSync(j); err != nil {
		return 0, err
	}
	idx := j.base + j.count
	j.count++
	return idx, nil
}

// maybeSync applies the fsync policy. Caller holds j.mu.
func (w *WAL) maybeSync(j *journal) error {
	switch w.policy.Mode {
	case FsyncOff:
		return nil
	case FsyncInterval:
		now := w.now()
		if now.Sub(j.lastSync) < w.policy.Interval {
			return nil
		}
		j.lastSync = now
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("monitor: journal sync: %w", err)
	}
	j.dirty = false
	return nil
}

// NextIndex returns the index the tenant's next appended record will get
// (== the number of records ever journaled for it).
func (w *WAL) NextIndex(tenant string) uint64 {
	w.mu.Lock()
	j, ok := w.journals[tenant]
	w.mu.Unlock()
	if !ok {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base + j.count
}

// Size returns the tenant's current journal file size in bytes (0 when
// the tenant has no journal) — the /statusz per-tenant WAL bytes column.
func (w *WAL) Size(tenant string) int64 {
	w.mu.Lock()
	j, ok := w.journals[tenant]
	w.mu.Unlock()
	if !ok {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Records reads the tenant's journal and returns every record with
// Index >= from, plus salvage accounting for any tail damage found.
func (w *WAL) Records(tenant string, from uint64) ([]WALRecord, WALSalvage, error) {
	w.mu.Lock()
	j, ok := w.journals[tenant]
	w.mu.Unlock()
	if !ok {
		return nil, WALSalvage{}, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, WALSalvage{}, err
	}
	_, _, _, recs, _, sal, err := decodeJournal(data)
	if err != nil {
		return nil, sal, err
	}
	out := recs[:0]
	for _, r := range recs {
		if r.Index >= from {
			out = append(out, r)
		}
	}
	return out, sal, nil
}

// Compact rewrites the tenant's journal keeping only records with
// Index >= keepFrom — everything older is both analyzed (the store cursor
// passed it) and outside the rebuildable window. The rewrite is atomic
// (temp + rename), so a crash leaves either journal generation intact.
func (w *WAL) Compact(tenant string, keepFrom uint64) error {
	w.mu.Lock()
	j, ok := w.journals[tenant]
	w.mu.Unlock()
	if !ok {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if keepFrom <= j.base {
		return nil // nothing droppable
	}
	end := j.base + j.count
	if keepFrom > end {
		keepFrom = end
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return err
	}
	_, _, _, recs, _, _, err := decodeJournal(data)
	if err != nil {
		return err
	}
	// Compaction re-encodes at the current version, upgrading v1 journals.
	out := encodeJournalHeader(j.tenant, keepFrom)
	kept := uint64(0)
	for _, r := range recs {
		if r.Index >= keepFrom {
			out = append(out, encodeWALRecord(walVersion, r.Key, r.Lineage, r.Frame)...)
			kept++
		}
	}
	tmp := j.path + ".tmp"
	if err := writeFileSync(tmp, out); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(j.path))
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(int64(len(out)), 0); err != nil {
		f.Close()
		return err
	}
	j.f.Close()
	j.f = f
	j.version = walVersion
	j.base = keepFrom
	j.count = kept
	j.size = int64(len(out))
	return nil
}

// Sync flushes every dirty journal (drain path).
func (w *WAL) Sync() error {
	w.mu.Lock()
	js := make([]*journal, 0, len(w.journals))
	for _, j := range w.journals {
		js = append(js, j)
	}
	w.mu.Unlock()
	var first error
	for _, j := range js {
		j.mu.Lock()
		if j.dirty {
			if err := j.f.Sync(); err != nil && first == nil {
				first = err
			} else {
				j.dirty = false
			}
		}
		j.mu.Unlock()
	}
	return first
}

// Close syncs and closes every journal.
func (w *WAL) Close() error {
	err := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, j := range w.journals {
		j.mu.Lock()
		j.f.Close()
		j.mu.Unlock()
	}
	w.journals = map[string]*journal{}
	return err
}

// SaveProgram persists one registered program image so recovery can
// resolve journaled segments after a restart (atomic write + fsync).
func (w *WAL) SaveProgram(name string, image []byte) error {
	h := fnv.New64a()
	h.Write([]byte(name))
	path := filepath.Join(w.dir, "programs", fmt.Sprintf("%016x.prim", h.Sum64()))
	if err := writeFileSync(path+".tmp", image); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// LoadPrograms returns every persisted program image.
func (w *WAL) LoadPrograms() [][]byte {
	names, _ := filepath.Glob(filepath.Join(w.dir, "programs", "*.prim"))
	sort.Strings(names)
	out := make([][]byte, 0, len(names))
	for _, path := range names {
		if raw, err := os.ReadFile(path); err == nil {
			out = append(out, raw)
		}
	}
	return out
}

// --- encoding ---

func journalHeaderLen(tenant string) int { return 4 + 2 + 8 + 2 + len(tenant) }

func encodeJournalHeader(tenant string, base uint64) []byte {
	out := make([]byte, 0, journalHeaderLen(tenant))
	out = append(out, walMagic...)
	out = binary.LittleEndian.AppendUint16(out, walVersion)
	out = binary.LittleEndian.AppendUint64(out, base)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(tenant)))
	out = append(out, tenant...)
	return out
}

func walRecordLen(version uint16, key, lineage string, frame []byte) int {
	n := 4 + 2 + len(key) + len(frame) + 8
	if version >= 2 {
		n += 2 + len(lineage)
	}
	return n
}

func encodeWALRecord(version uint16, key, lineage string, frame []byte) []byte {
	n := walRecordLen(version, key, lineage, frame) - 4 - 8
	out := make([]byte, 0, 4+n+8)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
	out = append(out, key...)
	if version >= 2 {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(lineage)))
		out = append(out, lineage...)
	}
	out = append(out, frame...)
	h := fnv.New64a()
	h.Write(out[4:])
	out = binary.LittleEndian.AppendUint64(out, h.Sum64())
	return out
}

// decodeJournal leniently parses a journal image. A damaged header is a
// hard error (the file is quarantined); per-record damage ends the scan
// there, salvaging the prefix — the usual shape of a crash mid append.
// good is the byte offset of the last cleanly decoded record's end (the
// truncation point for a torn tail).
func decodeJournal(data []byte) (tenant string, base uint64, version uint16, recs []WALRecord, good int, sal WALSalvage, err error) {
	if len(data) < 4+2+8+2 || string(data[:4]) != walMagic {
		return "", 0, 0, nil, 0, sal, fmt.Errorf("monitor: not a journal (bad magic)")
	}
	version = binary.LittleEndian.Uint16(data[4:])
	if version != walVersionV1 && version != walVersion {
		return "", 0, 0, nil, 0, sal, fmt.Errorf("monitor: unsupported journal version %d", version)
	}
	base = binary.LittleEndian.Uint64(data[6:])
	tenLen := int(binary.LittleEndian.Uint16(data[14:]))
	if 16+tenLen > len(data) {
		return "", 0, 0, nil, 0, sal, fmt.Errorf("monitor: journal tenant name exceeds file")
	}
	tenant = string(data[16 : 16+tenLen])
	off := 16 + tenLen
	good = off
	idx := base
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			sal.TornBytes += len(rest)
			break
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 2 || 4+n+8 > len(rest) {
			sal.TornBytes += len(rest)
			break
		}
		body := rest[4 : 4+n]
		h := fnv.New64a()
		h.Write(body)
		if binary.LittleEndian.Uint64(rest[4+n:]) != h.Sum64() {
			// A checksum-damaged record also ends the scan: record
			// boundaries after it cannot be trusted.
			sal.BadRecords++
			sal.TornBytes += len(rest)
			break
		}
		keyLen := int(binary.LittleEndian.Uint16(body))
		if 2+keyLen > len(body) {
			sal.BadRecords++
			sal.TornBytes += len(rest)
			break
		}
		rec := WALRecord{Index: idx, Key: string(body[2 : 2+keyLen])}
		payload := body[2+keyLen:]
		if version >= 2 {
			if len(payload) < 2 {
				sal.BadRecords++
				sal.TornBytes += len(rest)
				break
			}
			linLen := int(binary.LittleEndian.Uint16(payload))
			if 2+linLen > len(payload) {
				sal.BadRecords++
				sal.TornBytes += len(rest)
				break
			}
			rec.Lineage = string(payload[2 : 2+linLen])
			payload = payload[2+linLen:]
		}
		rec.Frame = append([]byte(nil), payload...)
		recs = append(recs, rec)
		idx++
		off += 4 + n + 8
		good = off
	}
	return tenant, base, version, recs, good, sal, nil
}

// writeFileSync writes data and fsyncs the file before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a machine
// crash. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
