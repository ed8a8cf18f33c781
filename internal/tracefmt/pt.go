package tracefmt

import (
	"encoding/binary"
	"fmt"
)

// PT packet stream. The simulated Processor Trace produces a compact binary
// stream per thread, modelled on real Intel PT:
//
//   - TNT packets pack up to 6 conditional-branch taken/not-taken bits into
//     one payload byte;
//   - TNTREP packets run-length-encode repeats of one full 6-bit TNT
//     pattern — this stands in for the very high compression hardware PT
//     achieves on loopy code, and is what keeps the PT share of the trace
//     around 1% as the paper reports (§7.3);
//   - TIP packets carry the 8-byte target of an indirect branch (JMPR,
//     CALLR, RET), which cannot be recovered statically;
//   - TSC packets carry the timestamp counter, emitted periodically so the
//     offline stage can time-align PT with PEBS and the sync log;
//   - END marks the end of a thread's stream.
//
// Packet layout: one kind byte followed by the payload.
type PTPacketKind uint8

const (
	PktTNT      PTPacketKind = iota // partial group: count byte + bits byte
	PktTNTRep                       // pattern byte + uint32 repeat count
	PktTIP                          // uint64 target
	PktTSC                          // uint64 tsc
	PktEnd                          // no payload
	PktTNT6                         // one full 6-bit group: bits byte
	PktTNTRepEx                     // repeated pattern with sparse exceptions
	PktPSB                          // sync point: 2 magic bytes + uint64 anchor pc
)

// ErrCorrupt is the typed decode error every malformed-stream condition
// reports: the byte offset at which decoding failed and why. Lenient
// consumers match on it (errors.As) and resync; strict consumers surface
// it with position information instead of a panic.
type ErrCorrupt struct {
	Offset int
	Reason string
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("tracefmt: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// psbMagic0/1 are the PSB payload magic. The 3-byte kind+magic pattern is
// what Resync scans for, so it is chosen to be unlikely in other payloads.
const (
	psbMagic0 = 0xA5
	psbMagic1 = 0x5A
)

// psbSize is the serialised size of a PSB packet.
const psbSize = 1 + 2 + 8

// TNTBitsPerPacket is the number of branch outcomes one TNT payload packs.
const TNTBitsPerPacket = 6

// TNTException patches one group inside a TNTRepEx run.
type TNTException struct {
	// Index is the deviating group's position within the run (0-based).
	Index uint32
	// Bits is the deviating group's actual pattern.
	Bits uint8
}

// PTPacket is one decoded packet.
type PTPacket struct {
	Kind PTPacketKind
	// Bits holds TNT outcomes, LSB = oldest branch; NBits of them are
	// valid (1..6). For TNTRep/TNTRepEx it is the repeated pattern.
	Bits  uint8
	NBits uint8
	// Count is the repeat count for TNTRep/TNTRepEx (each repeat is a
	// full 6-bit Bits pattern).
	Count uint32
	// Exceptions are TNTRepEx's deviating groups, ascending by Index. The
	// reader reuses their storage: they are valid until its next Next.
	Exceptions []TNTException
	// Target is the TIP target address.
	Target uint64
	// TSC is the timestamp payload.
	TSC uint64
}

// AppendTNT appends a TNT packet with n (1..6) outcomes in bits. A count
// outside that range is a caller bug; dst is returned unchanged with an
// error rather than panicking, so encoder layers degrade instead of
// crashing the process.
func AppendTNT(dst []byte, bits uint8, n uint8) ([]byte, error) {
	if n == 0 || n > TNTBitsPerPacket {
		return dst, fmt.Errorf("tracefmt: bad TNT bit count %d", n)
	}
	// payload: low 6 bits = outcomes, high 2 bits... n needs 3 bits, so
	// use two bytes: n byte + bits byte? Keep it one kind byte + one count
	// byte + one bits byte for simplicity and determinism.
	return append(dst, byte(PktTNT), n, bits&0x3F), nil
}

// AppendTNTRep appends a run-length-encoded TNT packet: `count` repetitions
// of the full 6-bit pattern.
func AppendTNTRep(dst []byte, pattern uint8, count uint32) []byte {
	var b [6]byte
	b[0] = byte(PktTNTRep)
	b[1] = pattern & 0x3F
	binary.LittleEndian.PutUint32(b[2:], count)
	return append(dst, b[:]...)
}

// AppendTNT6 appends one full six-outcome group as a compact two-byte
// packet — the density of real PT's short TNT packets.
func AppendTNT6(dst []byte, bits uint8) []byte {
	return append(dst, byte(PktTNT6), bits&0x3F)
}

// MaxTNTExceptions bounds the exception list of one TNTRepEx packet.
const MaxTNTExceptions = 15

// AppendTNTRepEx appends a run of `count` groups that all match `pattern`
// except at the listed positions — how the simulated PT keeps
// almost-periodic loop branches (a bounds check that fails every k-th
// iteration) compressed.
func AppendTNTRepEx(dst []byte, pattern uint8, count uint32, exceptions []TNTException) ([]byte, error) {
	if len(exceptions) > MaxTNTExceptions {
		return dst, fmt.Errorf("tracefmt: too many TNT exceptions (%d > %d)", len(exceptions), MaxTNTExceptions)
	}
	var b [7]byte
	b[0] = byte(PktTNTRepEx)
	b[1] = pattern & 0x3F
	binary.LittleEndian.PutUint32(b[2:], count)
	b[6] = byte(len(exceptions))
	dst = append(dst, b[:]...)
	for _, e := range exceptions {
		var x [5]byte
		binary.LittleEndian.PutUint32(x[:], e.Index)
		x[4] = e.Bits & 0x3F
		dst = append(dst, x[:]...)
	}
	return dst, nil
}

// AppendPSB appends a sync-point packet carrying the anchor pc of the next
// packet-consuming instruction. The online PT unit emits one periodically;
// a corruption-tolerant decoder that loses the stream scans forward to the
// next PSB and resumes the walk at its anchor, trading the skipped region
// for continued coverage (the analogue of real PT's PSB/OVF recovery).
func AppendPSB(dst []byte, pc uint64) []byte {
	var b [psbSize]byte
	b[0] = byte(PktPSB)
	b[1], b[2] = psbMagic0, psbMagic1
	binary.LittleEndian.PutUint64(b[3:], pc)
	return append(dst, b[:]...)
}

// AppendTIP appends an indirect-branch target packet.
func AppendTIP(dst []byte, target uint64) []byte {
	var b [9]byte
	b[0] = byte(PktTIP)
	binary.LittleEndian.PutUint64(b[1:], target)
	return append(dst, b[:]...)
}

// AppendTSC appends a timestamp packet.
func AppendTSC(dst []byte, tsc uint64) []byte {
	var b [9]byte
	b[0] = byte(PktTSC)
	binary.LittleEndian.PutUint64(b[1:], tsc)
	return append(dst, b[:]...)
}

// AppendEnd appends the end-of-stream marker.
func AppendEnd(dst []byte) []byte { return append(dst, byte(PktEnd)) }

// PTReader iterates over a PT packet stream.
type PTReader struct {
	buf []byte
	off int
	exc []TNTException // TNTRepEx exceptions, reused packet to packet
}

// NewPTReader wraps an encoded stream.
func NewPTReader(buf []byte) *PTReader { return &PTReader{buf: buf} }

// Offset returns the reader's current byte position. After a decode error
// it still points at the offending packet's kind byte, so callers can
// report positions and Resync past the damage.
func (r *PTReader) Offset() int { return r.off }

// Resync scans forward for the next PSB sync-point packet and positions
// the reader just past it, returning the anchor pc it carried and the
// number of bytes skipped (from the current position). ok is false when no
// further sync point exists; the reader is then at end of stream. The scan
// always advances at least one byte, so repeated corruption cannot loop.
func (r *PTReader) Resync() (pc uint64, skipped int, ok bool) {
	start := r.off
	for i := r.off + 1; i+psbSize <= len(r.buf); i++ {
		if PTPacketKind(r.buf[i]) == PktPSB && r.buf[i+1] == psbMagic0 && r.buf[i+2] == psbMagic1 {
			pc = binary.LittleEndian.Uint64(r.buf[i+3:])
			r.off = i + psbSize
			return pc, r.off - start, true
		}
	}
	r.off = len(r.buf)
	return 0, r.off - start, false
}

// Next decodes the next packet. done is true at (and after) the END marker
// or when the buffer is exhausted. Malformed input yields an *ErrCorrupt;
// the reader does not advance past it, so Offset/Resync see the damage. A
// packet's Exceptions stay valid until the next call.
func (r *PTReader) Next() (pkt PTPacket, done bool, err error) {
	if r.off >= len(r.buf) {
		return PTPacket{}, true, nil
	}
	kind := PTPacketKind(r.buf[r.off])
	need := func(n int) bool { return r.off+n <= len(r.buf) }
	switch kind {
	case PktTNT:
		if !need(3) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TNT packet"}
		}
		pkt = PTPacket{Kind: PktTNT, NBits: r.buf[r.off+1], Bits: r.buf[r.off+2]}
		if pkt.NBits == 0 || pkt.NBits > TNTBitsPerPacket {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: fmt.Sprintf("bad TNT bit count %d", pkt.NBits)}
		}
		r.off += 3
	case PktTNTRep:
		if !need(6) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TNTREP packet"}
		}
		pkt = PTPacket{Kind: PktTNTRep, Bits: r.buf[r.off+1], NBits: TNTBitsPerPacket,
			Count: binary.LittleEndian.Uint32(r.buf[r.off+2:])}
		r.off += 6
	case PktTNT6:
		if !need(2) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TNT6 packet"}
		}
		pkt = PTPacket{Kind: PktTNT6, Bits: r.buf[r.off+1], NBits: TNTBitsPerPacket}
		r.off += 2
	case PktTNTRepEx:
		if !need(7) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TNTREPEX packet"}
		}
		pkt = PTPacket{Kind: PktTNTRepEx, Bits: r.buf[r.off+1], NBits: TNTBitsPerPacket,
			Count: binary.LittleEndian.Uint32(r.buf[r.off+2:])}
		nExc := int(r.buf[r.off+6])
		r.off += 7
		if !need(5 * nExc) {
			r.off -= 7
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TNTREPEX exceptions"}
		}
		r.exc = r.exc[:0]
		for k := 0; k < nExc; k++ {
			r.exc = append(r.exc, TNTException{
				Index: binary.LittleEndian.Uint32(r.buf[r.off:]),
				Bits:  r.buf[r.off+4],
			})
			r.off += 5
		}
		if nExc > 0 {
			pkt.Exceptions = r.exc
		}
	case PktTIP:
		if !need(9) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TIP packet"}
		}
		pkt = PTPacket{Kind: PktTIP, Target: binary.LittleEndian.Uint64(r.buf[r.off+1:])}
		r.off += 9
	case PktTSC:
		if !need(9) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated TSC packet"}
		}
		pkt = PTPacket{Kind: PktTSC, TSC: binary.LittleEndian.Uint64(r.buf[r.off+1:])}
		r.off += 9
	case PktPSB:
		if !need(psbSize) {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "truncated PSB packet"}
		}
		if r.buf[r.off+1] != psbMagic0 || r.buf[r.off+2] != psbMagic1 {
			return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: "bad PSB magic"}
		}
		pkt = PTPacket{Kind: PktPSB, Target: binary.LittleEndian.Uint64(r.buf[r.off+3:])}
		r.off += psbSize
	case PktEnd:
		r.off++
		return PTPacket{Kind: PktEnd}, true, nil
	default:
		return PTPacket{}, true, &ErrCorrupt{Offset: r.off, Reason: fmt.Sprintf("unknown PT packet kind %d", kind)}
	}
	return pkt, false, nil
}
