// Package monitor is the continuous fleet-monitoring layer over the
// segment-resumable analysis API: a daemon core (Monitor) that ingests
// trace segments from many concurrently running tenants, re-analyses each
// tenant's rolling window on a worker pool, and folds the resulting race
// reports into a persistent deduplicating store. cmd/proraced wraps it in
// an HTTP listener; the package itself is transport-agnostic and fully
// testable in-process.
package monitor

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prorace/internal/faultinject"
	"prorace/internal/race"
)

// StoredReport is one distinct race across the fleet's history: the
// defining report plus its observation record. Identity is Fingerprint —
// stable across daemon restarts, window re-analyses and re-ingests of the
// same run — so a race seen again bumps Occurrences instead of adding a
// row.
type StoredReport struct {
	// Fingerprint identifies the race: FNV-1a over (tenant, program, the
	// unordered racing PC pair, and each access's read/write kind).
	// Addresses and timestamps are deliberately excluded — heap addresses
	// shift between runs of one binary, but the racing instruction pair is
	// the race.
	Fingerprint string `json:"fingerprint"`
	// Tenant is the producing process/tenant tag the ingest layer assigned.
	Tenant string `json:"tenant"`
	// Program is the traced program's name.
	Program string `json:"program"`
	// Report is the first-observed concrete report (representative
	// addresses/TSCs; later occurrences may differ in those).
	Report race.Report `json:"report"`
	// FirstSeen and LastSeen bound the observation interval.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// Occurrences counts how many times the race was observed (across
	// window re-analyses, runs and restarts).
	Occurrences int `json:"occurrences"`
}

// Fingerprint computes the stable identity of one report (see
// StoredReport.Fingerprint).
func Fingerprint(tenant, program string, r race.Report) string {
	a, b := r.First, r.Second
	if a.PC > b.PC {
		a, b = b, a
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%x:%t\x00%x:%t", tenant, program, a.PC, a.Write, b.PC, b.Write)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store is the persistent deduplicating race-report store. A Store with an
// empty path lives in memory only; otherwise every mutation batch is
// persisted as JSON via an atomic temp-file rename, so a crash leaves
// either the old or the new state, never a torn file.
type Store struct {
	mu      sync.Mutex
	path    string
	reports map[string]*StoredReport
	cursors map[string]uint64
	now     func() time.Time

	// loadWarning describes a corrupt store file that load salvaged into
	// a fresh store (the damaged original is kept as path.corrupt). The
	// daemon surfaces it via log + telemetry instead of refusing to boot.
	loadWarning string
}

// storeFile is the on-disk envelope. Cursors maps each tenant to the
// journal index its analysis has durably reached (see wal.go): persisting
// it in the same atomic rename as the reports it covers is what makes
// replay effectively-once — a round's observations and its cursor advance
// land together or not at all.
type storeFile struct {
	Version int               `json:"version"`
	Reports []*StoredReport   `json:"reports"`
	Cursors map[string]uint64 `json:"cursors,omitempty"`
}

const storeVersion = 1

// OpenStore opens (creating if absent) the report store at path; an empty
// path yields a memory-only store. A corrupt or truncated store file is
// salvaged: the damaged file is preserved as path.corrupt, the store
// starts fresh, and LoadWarning reports what happened — a bad byte on
// disk degrades history, it must not keep the fleet unmonitored.
func OpenStore(path string) (*Store, error) {
	s := &Store{path: path, reports: map[string]*StoredReport{}, cursors: map[string]uint64{}, now: time.Now}
	if path == "" {
		return s, nil
	}
	// A crash between temp write and rename leaves .store-* litter behind;
	// sweep it so the directory does not accumulate orphans.
	if stale, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".store-*")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("monitor: reading store: %w", err)
	}
	var f storeFile
	salvage := func(reason string) (*Store, error) {
		backup := path + ".corrupt"
		if err := os.Rename(path, backup); err != nil {
			return nil, fmt.Errorf("monitor: store %s is corrupt (%s) and could not be set aside: %w", path, reason, err)
		}
		s.loadWarning = fmt.Sprintf("store %s was corrupt (%s); starting fresh, damaged file kept at %s", path, reason, backup)
		return s, nil
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return salvage(err.Error())
	}
	if f.Version != storeVersion {
		return salvage(fmt.Sprintf("unsupported version %d", f.Version))
	}
	for _, r := range f.Reports {
		s.reports[r.Fingerprint] = r
	}
	for t, c := range f.Cursors {
		s.cursors[t] = c
	}
	return s, nil
}

// LoadWarning reports a salvaged-at-open condition ("" = clean load).
func (s *Store) LoadWarning() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadWarning
}

// Cursor returns the journal index tenant's analysis has durably reached.
func (s *Store) Cursor(tenant string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursors[tenant]
}

// SetCursor advances tenant's cursor in memory (persisted by the next
// save). Cursors never move backwards.
func (s *Store) SetCursor(tenant string, v uint64) {
	s.mu.Lock()
	if v > s.cursors[tenant] {
		s.cursors[tenant] = v
	}
	s.mu.Unlock()
}

// SetClock overrides the store's time source (tests).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// ObserveNewAt folds one analysis round's reports into the store,
// attributed to (tenant, program). It returns a copy of every first-seen
// report the batch introduced and how many were repeat observations, and
// persists the store if anything changed. The store's dedup is durable
// (the report set reloads across restarts), which makes "fresh here"
// exactly "alert-worthy": a race the daemon has never stored before, not
// one re-observed by a window re-analysis or a replay.
//
// cursor (when non-zero) is the journal index this round's analysis
// reached, recorded in the same atomic persist as the round's
// observations. A round with no reports advances the cursor in memory
// only — replaying such a round after a crash is idempotent (it observes
// nothing again), so the extra disk write would buy nothing.
func (s *Store) ObserveNewAt(tenant, program string, rs []race.Report, cursor uint64) (fresh []*StoredReport, repeated int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor > s.cursors[tenant] {
		s.cursors[tenant] = cursor
	}
	if len(rs) == 0 {
		return nil, 0, nil
	}
	now := s.now()
	// One analysis round re-reports every race in the window, so dedup
	// within the batch: a fingerprint counts once per ObserveNewAt call.
	inBatch := map[string]bool{}
	for _, r := range rs {
		fp := Fingerprint(tenant, program, r)
		if inBatch[fp] {
			continue
		}
		inBatch[fp] = true
		if have, ok := s.reports[fp]; ok {
			have.LastSeen = now
			have.Occurrences++
			// Upgrade: if an earlier occurrence had no reproduction recipe
			// and this one does, keep it with the representative report.
			if have.Report.Witness == "" && r.Witness != "" {
				have.Report.Witness = r.Witness
			}
			repeated++
			continue
		}
		sr := &StoredReport{
			Fingerprint: fp,
			Tenant:      tenant,
			Program:     program,
			Report:      r,
			FirstSeen:   now,
			LastSeen:    now,
			Occurrences: 1,
		}
		s.reports[fp] = sr
		cp := *sr
		fresh = append(fresh, &cp)
	}
	if len(fresh)+repeated == 0 {
		return nil, 0, nil
	}
	return fresh, repeated, s.saveLocked()
}

// Reports returns the stored races, sorted by first-seen time then
// fingerprint (stable render order).
func (s *Store) Reports() []*StoredReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredReport, 0, len(s.reports))
	for _, r := range s.reports {
		cp := *r
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// ReportsFor returns tenant's stored races, newest-first by last-seen
// time, at most n of them (n <= 0 means all). The /tenantz drill-down
// uses it to show recent reports next to the lineage ring.
func (s *Store) ReportsFor(tenant string, n int) []*StoredReport {
	s.mu.Lock()
	out := make([]*StoredReport, 0, 8)
	for _, r := range s.reports {
		if r.Tenant == tenant {
			cp := *r
			out = append(out, &cp)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].LastSeen.Equal(out[j].LastSeen) {
			return out[i].LastSeen.After(out[j].LastSeen)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len reports how many distinct races the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// Save persists the store now (no-op for memory-only stores).
func (s *Store) Save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked()
}

// saveLocked writes the JSON envelope atomically and durably: the temp
// file is fsynced before the rename and the parent directory after it, so
// a machine crash leaves either the complete old state or the complete
// new state — never a torn or unlinked file. Caller holds s.mu.
func (s *Store) saveLocked() error {
	if s.path == "" {
		return nil
	}
	f := storeFile{Version: storeVersion, Reports: make([]*StoredReport, 0, len(s.reports))}
	for _, r := range s.reports {
		f.Reports = append(f.Reports, r)
	}
	sort.Slice(f.Reports, func(i, j int) bool { return f.Reports[i].Fingerprint < f.Reports[j].Fingerprint })
	if len(s.cursors) > 0 {
		f.Cursors = make(map[string]uint64, len(s.cursors))
		for t, c := range s.cursors {
			f.Cursors[t] = c
		}
	}
	raw, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("monitor: encoding store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.path), ".store-*")
	if err != nil {
		return fmt.Errorf("monitor: persisting store: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: persisting store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: persisting store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: persisting store: %w", err)
	}
	// Chaos point: the classic torn-update window — temp written, rename
	// pending. Recovery must replay the round because the cursor inside
	// the temp file never became the store.
	faultinject.Crash("store.rename.mid")
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: persisting store: %w", err)
	}
	syncDir(filepath.Dir(s.path))
	return nil
}
