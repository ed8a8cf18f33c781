package tracefmt

import (
	"encoding/binary"
	"fmt"
)

// Trace segmentation. A production fleet does not hand the analysis machine
// one complete trace at the end of a run: traced processes stream their
// perf buffers out in bounded chunks while they keep running. A *segment*
// is exactly such a chunk — a Trace whose per-thread streams are a
// contiguous slice of the full run's streams — and the contract that makes
// segments useful is:
//
//	merge(split(t, n)) reproduces t byte-for-byte (Encode-identical)
//
// for any n, so an analysis of the merged segments is indistinguishable
// from an analysis of the original trace (core.Analyzer builds on this).
//
// Segments may cut anywhere: mid PT packet, between two PEBS records of
// one thread, in the middle of a critical section's sync records. The
// merge of every segment needs no boundary alignment. A prefix of the
// segments is not a consistent cut, though: Split cuts each stream at its
// own proportional offset, so an analysis of a prefix (a daemon round
// before the run's last segment arrives) can see an access without the
// sync record that orders it, and report a race the whole run does not
// contain (DESIGN.md §13).

// Split divides the trace into n segments (n < 1 is clamped to 1; n larger
// than the trace's content still yields n segments, the surplus empty).
// Every per-thread PEBS stream, per-thread PT stream and the sync log is
// cut into n contiguous chunks, chunk i going to segment i; header fields
// (Program, Period, Seed, WallCycles, DroppedSamples) are carried on every
// segment. Segment streams alias the receiver's backing arrays — treat the
// source trace as immutable while segments are live.
func (t *Trace) Split(n int) []*Trace {
	if n < 1 {
		n = 1
	}
	segs := make([]*Trace, n)
	for i := range segs {
		segs[i] = &Trace{
			Program:        t.Program,
			Period:         t.Period,
			Seed:           t.Seed,
			WallCycles:     t.WallCycles,
			DroppedSamples: t.DroppedSamples,
			PEBS:           map[int32][]PEBSRecord{},
			PT:             map[int32][]byte{},
		}
	}
	// chunk yields the [lo, hi) bounds of chunk i of a length-l stream.
	chunk := func(l, i int) (int, int) { return l * i / n, l * (i + 1) / n }
	for tid, recs := range t.PEBS {
		for i := range segs {
			lo, hi := chunk(len(recs), i)
			segs[i].PEBS[tid] = recs[lo:hi]
		}
	}
	for tid, stream := range t.PT {
		for i := range segs {
			lo, hi := chunk(len(stream), i)
			segs[i].PT[tid] = stream[lo:hi]
		}
	}
	for i := range segs {
		lo, hi := chunk(len(t.Sync), i)
		segs[i].Sync = t.Sync[lo:hi]
	}
	return segs
}

// MergeSegment appends one segment's streams onto dst. The first segment
// merged into an empty trace (no Program, no streams) establishes the
// header; every later segment must agree on (Program, Period, Seed) — a
// mismatch means the segment belongs to a different run and is refused
// with an error, dst unchanged. WallCycles and DroppedSamples are
// cumulative run counters, so the merge keeps the maximum seen.
func MergeSegment(dst, seg *Trace) error {
	if dst.Program == "" && len(dst.PEBS) == 0 && len(dst.PT) == 0 && len(dst.Sync) == 0 {
		dst.Program = seg.Program
		dst.Period = seg.Period
		dst.Seed = seg.Seed
	} else if dst.Program != seg.Program || dst.Period != seg.Period || dst.Seed != seg.Seed {
		return fmt.Errorf("tracefmt: segment of run (%q, period %d, seed %d) fed to session of run (%q, period %d, seed %d)",
			seg.Program, seg.Period, seg.Seed, dst.Program, dst.Period, dst.Seed)
	}
	if dst.PEBS == nil {
		dst.PEBS = map[int32][]PEBSRecord{}
	}
	if dst.PT == nil {
		dst.PT = map[int32][]byte{}
	}
	for tid, recs := range seg.PEBS {
		dst.PEBS[tid] = append(dst.PEBS[tid], recs...)
	}
	for tid, stream := range seg.PT {
		dst.PT[tid] = append(dst.PT[tid], stream...)
	}
	dst.Sync = append(dst.Sync, seg.Sync...)
	if seg.WallCycles > dst.WallCycles {
		dst.WallCycles = seg.WallCycles
	}
	if seg.DroppedSamples > dst.DroppedSamples {
		dst.DroppedSamples = seg.DroppedSamples
	}
	return nil
}

// CloneForMerge returns a deep copy of the trace suitable as a MergeSegment
// destination: every stream is copied into freshly owned backing arrays, so
// later appends never write into the source's (possibly aliased) memory.
func (t *Trace) CloneForMerge() *Trace {
	out := &Trace{
		Program:        t.Program,
		Period:         t.Period,
		Seed:           t.Seed,
		WallCycles:     t.WallCycles,
		DroppedSamples: t.DroppedSamples,
		PEBS:           make(map[int32][]PEBSRecord, len(t.PEBS)),
		PT:             make(map[int32][]byte, len(t.PT)),
	}
	for tid, recs := range t.PEBS {
		out.PEBS[tid] = append([]PEBSRecord(nil), recs...)
	}
	for tid, stream := range t.PT {
		out.PT[tid] = append([]byte(nil), stream...)
	}
	out.Sync = append([]SyncRecord(nil), t.Sync...)
	return out
}

// Segment wire framing. The daemon's ingest endpoint receives segments
// from the network, where half-written files and torn socket writes are
// routine, so the frame carries its own integrity check: a corrupt frame
// must be rejected at the door (degrading one tenant's window) rather than
// decoded into garbage records. Layout, little endian:
//
//	magic    "PRSG" (4 bytes)
//	version  uint16
//	flags    uint16 (bit 0: final segment of the run)
//	seq      uint64 (producer-assigned segment sequence number)
//	tenLen   uint16, tenant bytes (advisory; ingest may override)
//	payLen   uint32, payload bytes (a Trace container, Trace.Encode)
//	check    uint64 (FNV-1a of everything before it, magic included)

const (
	segmentMagic   = "PRSG"
	segmentVersion = 1

	segFlagFinal = 1 << 0
)

// SegmentHeader carries a segment's framing metadata.
type SegmentHeader struct {
	// Seq is the producer-assigned sequence number of this segment within
	// its run. The ingest layer uses it for logging and gap diagnosis; the
	// analysis itself only requires segments to arrive in order.
	Seq uint64
	// Tenant names the producing process/tenant. Advisory: the daemon's
	// ingest endpoint trusts its transport-level tenant tag over this.
	Tenant string
	// Final marks the run's last segment.
	Final bool
}

func fnv1a(h uint64, b []byte) uint64 {
	const prime64 = 1099511628211
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// EncodeSegment frames one segment for the wire.
func EncodeSegment(h SegmentHeader, t *Trace) []byte {
	payload := t.Encode()
	out := make([]byte, 0, 4+2+2+8+2+len(h.Tenant)+4+len(payload)+8)
	out = append(out, segmentMagic...)
	out = binary.LittleEndian.AppendUint16(out, segmentVersion)
	var flags uint16
	if h.Final {
		flags |= segFlagFinal
	}
	out = binary.LittleEndian.AppendUint16(out, flags)
	out = binary.LittleEndian.AppendUint64(out, h.Seq)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(h.Tenant)))
	out = append(out, h.Tenant...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint64(out, fnv1a(fnvOffset64, out))
	return out
}

// DecodeSegment parses and verifies a frame produced by EncodeSegment. Any
// damage — bad magic, unsupported version, truncation, trailing garbage or
// a checksum mismatch — yields an *ErrCorrupt; a verified frame's payload
// is then decoded strictly (segments are small and retransmittable, so
// unlike whole-trace files there is nothing worth salvaging from one).
func DecodeSegment(src []byte) (SegmentHeader, *Trace, error) {
	var h SegmentHeader
	fail := func(off int, reason string) (SegmentHeader, *Trace, error) {
		return SegmentHeader{}, nil, &ErrCorrupt{Offset: off, Reason: reason}
	}
	if len(src) < 4+2+2+8+2+4+8 {
		return fail(0, "segment frame shorter than fixed header")
	}
	if string(src[:4]) != segmentMagic {
		return fail(0, "bad segment magic")
	}
	if got := binary.LittleEndian.Uint64(src[len(src)-8:]); got != fnv1a(fnvOffset64, src[:len(src)-8]) {
		return fail(len(src)-8, "segment checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(src[4:]); v != segmentVersion {
		return fail(4, fmt.Sprintf("unsupported segment version %d", v))
	}
	flags := binary.LittleEndian.Uint16(src[6:])
	h.Final = flags&segFlagFinal != 0
	h.Seq = binary.LittleEndian.Uint64(src[8:])
	off := 16
	tenLen := int(binary.LittleEndian.Uint16(src[off:]))
	off += 2
	if off+tenLen+4 > len(src)-8 {
		return fail(off, "tenant length exceeds frame")
	}
	h.Tenant = string(src[off : off+tenLen])
	off += tenLen
	payLen := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if off+payLen != len(src)-8 {
		return fail(off, "payload length disagrees with frame size")
	}
	t, err := DecodeTrace(src[off : off+payLen])
	if err != nil {
		return SegmentHeader{}, nil, err
	}
	return h, t, nil
}
