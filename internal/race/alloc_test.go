package race

import (
	"testing"

	"prorace/internal/replay"
	"prorace/internal/telemetry"
	"prorace/internal/tracefmt"
)

// racyScenario builds a trace with many racy addresses spread across the
// address space, plus lock-ordered accesses that must stay quiet.
func racyScenario() ([]tracefmt.SyncRecord, map[int32][]replay.Access) {
	lock := uint64(0x700000)
	sync := []tracefmt.SyncRecord{
		syncRec(1, tracefmt.SyncLock, 10, lock, 0),
		syncRec(1, tracefmt.SyncUnlock, 30, lock, 0),
		syncRec(2, tracefmt.SyncLock, 40, lock, 0),
		syncRec(2, tracefmt.SyncUnlock, 60, lock, 0),
	}
	accesses := map[int32][]replay.Access{}
	// Lock-ordered pair on one address.
	accesses[1] = append(accesses[1], acc(1, 0x400000, 0x500000, true, 20))
	accesses[2] = append(accesses[2], acc(2, 0x400010, 0x500000, true, 50))
	// 64 unordered racy pairs on distinct addresses and PCs.
	for i := 0; i < 64; i++ {
		addr := 0x600000 + uint64(i)*0x1000
		accesses[1] = append(accesses[1], acc(1, 0x410000+uint64(i)*16, addr, true, uint64(100+i)))
		accesses[2] = append(accesses[2], acc(2, 0x420000+uint64(i)*16, addr, true, uint64(200+i)))
	}
	return sync, accesses
}

// TestWarmDetectorAllocs pins the hot-path allocation behaviour of the
// detector: once the shadow state for an address set exists, re-processing
// the same accesses must not allocate at all. Epoch updates, same-epoch
// fast paths and vector-clock joins all work in place.
func TestWarmDetectorAllocs(t *testing.T) {
	sync, accesses := racyScenario()
	d := NewDetector(Options{TrackAllocations: true})
	feed := func() {
		for i := range sync {
			d.HandleSync(&sync[i])
		}
		for _, accs := range accesses {
			for i := range accs {
				d.HandleAccess(&accs[i])
			}
		}
	}
	feed() // populate shadow state; reports for the racy pairs are emitted here
	base := len(d.Reports())
	avg := testing.AllocsPerRun(10, feed)
	// Re-reports of already-known races are deduplicated, so a warm replay
	// is pure shadow-state churn; hold it to (almost) zero allocations.
	const budget = 2
	if avg > budget {
		t.Errorf("warm detector replay: %.1f allocs/run, budget %d", avg, budget)
	}
	if len(d.Reports()) != base {
		t.Fatalf("warm replay changed the report list: %d -> %d", base, len(d.Reports()))
	}
}

// TestDetectorTelemetryCounts cross-checks the series a detection pass
// publishes in Finish: event counts are exact, the inflation counter
// matches the detector's own tally, the shadow gauges match ShadowStats,
// and a second Finish publishes nothing more.
func TestDetectorTelemetryCounts(t *testing.T) {
	sync, accesses := racyScenario()
	nAccess := 0
	for _, accs := range accesses {
		nAccess += len(accs)
	}
	reg := telemetry.New()
	d := Detect(sync, accesses, Options{TrackAllocations: true, Telemetry: reg})
	d.Finish()
	d.Finish()
	s := reg.Snapshot()

	if got := s.Counter("prorace_detect_sync_events_total"); got != uint64(len(sync)) {
		t.Errorf("sync events = %d, want %d", got, len(sync))
	}
	if got := s.Counter("prorace_detect_access_events_total"); got != uint64(nAccess) {
		t.Errorf("access events = %d, want %d", got, nAccess)
	}
	if got := s.Counter("prorace_detect_read_share_inflations_total"); got != uint64(d.inflations) {
		t.Errorf("inflations = %d, want %d", got, d.inflations)
	}
	st := d.ShadowStats()
	if got := s.Gauges["prorace_detect_shadow_variables"]; got != int64(st.Variables) || got == 0 {
		t.Errorf("shadow variables gauge = %d, want %d (non-zero)", got, st.Variables)
	}
	if got := s.Gauges["prorace_detect_shadow_bytes"]; got != int64(st.Bytes()) {
		t.Errorf("shadow bytes gauge = %d, want %d", got, st.Bytes())
	}
	if got := s.Gauges["prorace_detect_shadow_bytes_peak"]; got != int64(st.PeakBytes()) {
		t.Errorf("peak shadow bytes gauge = %d, want %d", got, st.PeakBytes())
	}
}
