package core

import (
	"fmt"
	"sort"
	"strings"

	"prorace/internal/tracefmt"
)

// ThreadError is one thread's analysis failure, isolated from the rest of
// the run. In lenient mode the thread is dropped (its sync records still
// contribute happens-before edges) and the error is recorded here; in
// strict mode the first ThreadError aborts the analysis.
type ThreadError struct {
	TID int32
	// Stage is the pipeline stage that failed: "synthesis" or
	// "reconstruct".
	Stage string
	Err   error
}

func (e *ThreadError) Error() string {
	return fmt.Sprintf("core: tid %d: %s failed: %v", e.TID, e.Stage, e.Err)
}

func (e *ThreadError) Unwrap() error { return e.Err }

// guardThread executes one per-thread stage, converting a panic into an
// error, so a thread that fails takes only itself down. It returns nil on
// success, or the ThreadError that made the stage fail.
func guardThread(tid int32, stage string, f func() error) (te *ThreadError) {
	defer func() {
		if r := recover(); r != nil {
			te = &ThreadError{TID: tid, Stage: stage, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if err := f(); err != nil {
		return &ThreadError{TID: tid, Stage: stage, Err: err}
	}
	return nil
}

// Degradation summarises everything a lenient analysis had to give up —
// the "how much should I trust these reports" section of the result.
type Degradation struct {
	// Injected is the fault spec applied before analysis ("" when none).
	Injected string
	// ThreadErrors are the isolated per-thread failures.
	ThreadErrors []ThreadError
	// DroppedThreads lists threads whose decoded path and reconstructed
	// accesses were discarded (their sync records still feed the
	// detector), ascending.
	DroppedThreads []int32
	// CorruptPTPackets counts malformed PT packets and sync-point
	// mismatches across all threads.
	CorruptPTPackets int
	// DecodeGaps counts the stream regions skipped to resynchronise.
	DecodeGaps int
	// PTBytesSkipped is the stream volume lost inside those gaps.
	PTBytesSkipped uint64
	// PTBytesTotal is the total PT volume, for coverage accounting.
	PTBytesTotal uint64
	// UnpinnedSamples counts PEBS records that could not be placed on a
	// decoded path (marker loss, gap-shortened paths).
	UnpinnedSamples int
	// SyncAnomalies counts synchronization-log invariant violations —
	// evidence of dropped records and therefore of conservatively widened
	// happens-before (possible extra reports, never hidden ones).
	SyncAnomalies int
	// GapAdjacentRaces counts reports whose accesses involve a degraded
	// thread; those reports carry race.Report.GapAdjacent.
	GapAdjacentRaces int
	// InvalidTIDDrops counts per-thread streams and sync records that a
	// corrupt container attributed to impossible thread IDs and that the
	// analysis discarded (see sanitizeTrace).
	InvalidTIDDrops int
	// RejectedSegments counts trace segments an Analyzer session refused
	// (foreign run header, nil segment). The session itself stays healthy;
	// the refusals are surfaced here so every subsequent result says the
	// window may be missing data.
	RejectedSegments int
	// SegmentRejections holds the rejection reasons, in arrival order.
	SegmentRejections []string
}

// Degraded reports whether the analysis lost anything.
func (d *Degradation) Degraded() bool {
	return d.Injected != "" || len(d.ThreadErrors) > 0 || len(d.DroppedThreads) > 0 ||
		d.CorruptPTPackets > 0 || d.DecodeGaps > 0 || d.PTBytesSkipped > 0 ||
		d.SyncAnomalies > 0 || d.InvalidTIDDrops > 0 || d.RejectedSegments > 0
}

// CoverageLossPct estimates the fraction of the control-flow trace lost,
// as a percentage of the PT stream volume.
func (d *Degradation) CoverageLossPct() float64 {
	if d.PTBytesTotal == 0 {
		return 0
	}
	return 100 * float64(d.PTBytesSkipped) / float64(d.PTBytesTotal)
}

// Summary renders a human-readable multi-line account; empty string when
// nothing degraded.
func (d *Degradation) Summary() string {
	if !d.Degraded() {
		return ""
	}
	var b strings.Builder
	if d.Injected != "" {
		fmt.Fprintf(&b, "injected faults: %s\n", d.Injected)
	}
	if d.CorruptPTPackets > 0 || d.DecodeGaps > 0 {
		fmt.Fprintf(&b, "PT decode: %d corrupt packets, %d gaps, %d bytes skipped (%.1f%% coverage loss)\n",
			d.CorruptPTPackets, d.DecodeGaps, d.PTBytesSkipped, d.CoverageLossPct())
	}
	if d.UnpinnedSamples > 0 {
		fmt.Fprintf(&b, "samples: %d unpinned\n", d.UnpinnedSamples)
	}
	if d.SyncAnomalies > 0 {
		fmt.Fprintf(&b, "sync log: %d anomalies (happens-before conservatively widened)\n", d.SyncAnomalies)
	}
	for i := range d.ThreadErrors {
		fmt.Fprintf(&b, "thread error: %v\n", &d.ThreadErrors[i])
	}
	if len(d.DroppedThreads) > 0 {
		fmt.Fprintf(&b, "dropped threads: %v\n", d.DroppedThreads)
	}
	if d.GapAdjacentRaces > 0 {
		fmt.Fprintf(&b, "gap-adjacent races: %d (flagged in reports)\n", d.GapAdjacentRaces)
	}
	if d.InvalidTIDDrops > 0 {
		fmt.Fprintf(&b, "invalid thread ids: %d streams/records dropped\n", d.InvalidTIDDrops)
	}
	if d.RejectedSegments > 0 {
		fmt.Fprintf(&b, "rejected segments: %d (%s)\n", d.RejectedSegments, strings.Join(d.SegmentRejections, "; "))
	}
	return strings.TrimRight(b.String(), "\n")
}

// maxAnalysisTID bounds the thread IDs the analysis accepts from a trace.
// The detector's vector clocks are dense arrays indexed by TID, so a
// corrupt container claiming a multi-billion (or negative) thread ID would
// allocate gigabytes — or crash — before any per-packet robustness could
// help. Real traces never come close: the machine hands out small
// sequential TIDs, far below this.
const maxAnalysisTID = 1 << 9

// maxAnalysisAllocBytes bounds the size a SyncMalloc record may claim: the
// detector walks the allocation granule-by-granule to bump address
// generations, so a corrupt record claiming an exabyte would spin that
// walk forever. The simulated machine's heap is orders of magnitude
// smaller.
const maxAnalysisAllocBytes = 1 << 24

// sanitizeTrace screens out trace content attributed to impossible thread
// IDs — decoding residue of a corrupt container. Strict mode refuses the
// trace; lenient mode drops the offending streams and records, counting
// them in deg.InvalidTIDDrops. The returned trace shares all clean content
// with the input.
func sanitizeTrace(tr *tracefmt.Trace, strict bool, deg *Degradation) (*tracefmt.Trace, error) {
	badTID := func(tid int32) bool { return tid < 0 || tid > maxAnalysisTID }
	// ThreadCreate and ThreadJoin carry a peer TID in Addr that the
	// detector indexes clocks by; everything else's Addr is a memory
	// address.
	badRec := func(r *tracefmt.SyncRecord) bool {
		if badTID(r.TID) {
			return true
		}
		if (r.Kind == tracefmt.SyncThreadCreate || r.Kind == tracefmt.SyncThreadJoin) &&
			r.Addr > maxAnalysisTID {
			return true
		}
		return r.Kind == tracefmt.SyncMalloc && r.Aux > maxAnalysisAllocBytes
	}

	drops := 0
	for tid := range tr.PEBS {
		if badTID(tid) {
			drops++
		}
	}
	for tid := range tr.PT {
		if badTID(tid) {
			drops++
		}
	}
	for i := range tr.Sync {
		if badRec(&tr.Sync[i]) {
			drops++
		}
	}
	if drops == 0 {
		return tr, nil
	}
	if strict {
		return nil, fmt.Errorf("core: trace attributes data to %d impossible thread ids (corrupt container)", drops)
	}

	out := *tr
	out.PEBS = make(map[int32][]tracefmt.PEBSRecord, len(tr.PEBS))
	for tid, recs := range tr.PEBS {
		if !badTID(tid) {
			out.PEBS[tid] = recs
		}
	}
	out.PT = make(map[int32][]byte, len(tr.PT))
	for tid, stream := range tr.PT {
		if !badTID(tid) {
			out.PT[tid] = stream
		}
	}
	out.Sync = make([]tracefmt.SyncRecord, 0, len(tr.Sync))
	for i := range tr.Sync {
		if !badRec(&tr.Sync[i]) {
			out.Sync = append(out.Sync, tr.Sync[i])
		}
	}
	deg.InvalidTIDDrops = drops
	return &out, nil
}

// recordThreadError appends a thread failure and marks the thread dropped.
func (d *Degradation) recordThreadError(te *ThreadError) {
	d.ThreadErrors = append(d.ThreadErrors, *te)
	for _, tid := range d.DroppedThreads {
		if tid == te.TID {
			return
		}
	}
	d.DroppedThreads = append(d.DroppedThreads, te.TID)
	sort.Slice(d.DroppedThreads, func(i, j int) bool { return d.DroppedThreads[i] < d.DroppedThreads[j] })
}
