package core

import (
	"reflect"
	"testing"

	"prorace/internal/bugs"
	"prorace/internal/synthesis"
)

// racyTrace returns a trace of a bug workload dense enough to detect the
// planted race and drive the §5.1 invalidation/regeneration rounds.
func racyTrace(t *testing.T) (*bugs.Built, *TraceResult) {
	t.Helper()
	return bugTrace(t, "mysql-3596", 200, 4)
}

// mustMatch asserts two analyses are byte-identical where determinism is
// promised: the full report structs (order included), replay stats, and
// the per-thread access streams.
func mustMatch(t *testing.T, label string, want, got *AnalysisResult) {
	t.Helper()
	if !reflect.DeepEqual(want.Reports, got.Reports) {
		t.Fatalf("%s: reports differ:\nwant %+v\n got %+v", label, want.Reports, got.Reports)
	}
	if want.ReplayStats != got.ReplayStats {
		t.Fatalf("%s: replay stats differ:\nwant %+v\n got %+v", label, want.ReplayStats, got.ReplayStats)
	}
	if want.Regenerated != got.Regenerated {
		t.Fatalf("%s: regeneration behaviour differs", label)
	}
	if !reflect.DeepEqual(want.Accesses, got.Accesses) {
		t.Fatalf("%s: access streams differ", label)
	}
}

func TestPathCacheHitMatchesFreshDecode(t *testing.T) {
	built, tr := racyTrace(t)
	fresh, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Reports) == 0 {
		t.Fatal("workload produced no races; the test needs detection plus regeneration")
	}
	if !fresh.Regenerated {
		t.Fatal("workload did not trigger §5.1 regeneration; pick a denser trace")
	}

	cached := AnalysisOptions{PathCache: synthesis.NewCache(2)}
	first, err := Analyze(built.Workload.Program, tr.Trace, cached)
	if err != nil {
		t.Fatal(err)
	}
	if first.DecodeCacheHit {
		t.Error("first analysis through an empty cache cannot be a hit")
	}
	second, err := Analyze(built.Workload.Program, tr.Trace, cached)
	if err != nil {
		t.Fatal(err)
	}
	if !second.DecodeCacheHit {
		t.Error("second analysis of the identical trace should hit the cache")
	}
	if cached.PathCache.Hits() == 0 || cached.PathCache.Misses() == 0 {
		t.Errorf("counters: hits=%d misses=%d, want both nonzero",
			cached.PathCache.Hits(), cached.PathCache.Misses())
	}

	mustMatch(t, "cache-miss vs cache-off", fresh, first)
	mustMatch(t, "cache-hit vs cache-off", fresh, second)
}

// TestPathCacheEquivalenceAcrossParallelism re-analyses one racy trace —
// multi-round: detection feeds racy addresses back into reconstruction —
// at every worker count, cache on (warm) and off, and
// requires byte-identical reports throughout.
func TestPathCacheEquivalenceAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full parallelism sweep is slow")
	}
	built, tr := racyTrace(t)

	want, err := Analyze(built.Workload.Program, tr.Trace, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Regenerated {
		t.Fatal("reference analysis did not regenerate")
	}

	cache := synthesis.NewCache(2)
	for _, workers := range []int{0, 1, 4, 7} {
		opts := AnalysisOptions{Workers: workers, PathCache: cache}
		got, err := Analyze(built.Workload.Program, tr.Trace, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		label := "workers=" + itoa(workers)
		mustMatch(t, label+" cached", want, got)

		off := opts
		off.PathCache = nil
		cold, err := Analyze(built.Workload.Program, tr.Trace, off)
		if err != nil {
			t.Fatalf("workers=%d uncached: %v", workers, err)
		}
		mustMatch(t, label+" uncached", want, cold)
	}
	if cache.Hits() == 0 {
		t.Error("the sweep never hit the warm cache")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPathCacheSkipsDegradedSynthesis: a synthesis that dropped threads
// must not populate the cache — a later analysis has to re-record those
// drops in its own Degradation.
func TestPathCacheSkipsDegradedSynthesis(t *testing.T) {
	built, tr := racyTrace(t)

	// Corrupt one thread's PT stream so lenient synthesis degrades.
	damaged := *tr.Trace
	damaged.PT = map[int32][]byte{}
	for tid, stream := range tr.Trace.PT {
		damaged.PT[tid] = stream
	}
	for tid, stream := range damaged.PT {
		if len(stream) > 64 {
			bad := append([]byte(nil), stream...)
			for i := range bad {
				bad[i] ^= 0xA5
			}
			damaged.PT[tid] = bad
			break
		}
	}

	cache := synthesis.NewCache(2)
	opts := AnalysisOptions{PathCache: cache}
	first, err := Analyze(built.Workload.Program, tr.Trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.DecodeCacheHit {
		t.Fatal("first clean analysis cannot hit")
	}
	ar1, err := Analyze(built.Workload.Program, &damaged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ar1.DecodeCacheHit {
		t.Fatal("damaged trace must not hit the clean trace's entry")
	}
	ar2, err := Analyze(built.Workload.Program, &damaged, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Degradation accounting must be identical whether or not the second
	// analysis was served from cache; if the degraded synthesis was
	// cached, the ThreadError records would be missing here.
	if len(ar1.Degradation.ThreadErrors) != len(ar2.Degradation.ThreadErrors) {
		t.Fatalf("degradation differs across re-analysis: %d vs %d thread errors",
			len(ar1.Degradation.ThreadErrors), len(ar2.Degradation.ThreadErrors))
	}
	if ar1.Degradation.CorruptPTPackets != ar2.Degradation.CorruptPTPackets {
		t.Fatalf("corrupt-packet accounting differs: %d vs %d",
			ar1.Degradation.CorruptPTPackets, ar2.Degradation.CorruptPTPackets)
	}
	if !reflect.DeepEqual(ar1.Reports, ar2.Reports) {
		t.Fatal("reports over the damaged trace differ across re-analysis")
	}
}
