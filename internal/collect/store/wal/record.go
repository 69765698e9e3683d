// Package wal is the durable segment-state backend: a store.Store whose
// every mutation is framed into an append-only segmented log before it is
// applied to an in-RAM store.Memory, with periodic snapshots of the
// per-segment decoder state bounding replay cost. The paper's premise is
// that collected data outlives its peers; this package makes it outlive
// the collector too — a restarted server loads the latest snapshot,
// replays the log tail (tolerating a torn final record), and resumes every
// open segment at the exact rank it held. That
// recovery is one walk (recoverDir): Open runs it and truncates where it
// stopped, Inspect runs it read-only.
//
// Layout of a WAL directory:
//
//	wal-%016x.log    append-only record segments, ascending sequence;
//	                 each record is one durable frame
//	snap-%016x.snap  snapshots, written by durable.WriteFile; the
//	                 sequence is the first log segment NOT covered
//	                 (replay resumes there)
//	journal.claims   optional durable delivery journal (OpenJournal)
//
// Concurrency matches the store.Store contract: the driver serializes all
// Store methods; only the interval-sync flusher runs concurrently, touching
// nothing but the buffered writer and file handle under a small mutex.
package wal

import (
	"encoding/binary"
	"errors"

	"p2pcollect/internal/durable"
	"p2pcollect/internal/rlnc"
)

// Record types. The zero value is invalid so a zero-filled torn tail can
// never parse as a record.
type recordType byte

const (
	recInvalid recordType = iota
	// recBlock is one received coded block: segment ID, coefficient
	// vector, payload.
	recBlock
	// recFinished marks a segment completed (enters the finished set, its
	// open collection dropped).
	recFinished
	// recForget drops a segment's open collection without finishing it.
	recForget

	numRecordTypes
)

// A record is one durable frame (length + CRC-32C + body, see package
// durable). Body: [1B type][8B LE origin][8B LE seq], and for recBlock
// [4B LE coeffLen][coeffs][4B LE payloadLen][payload]. Snapshots and
// journal claims are cold, predate the shared frame and keep their own
// IEEE checksums.
const (
	frameHeaderSize = durable.FrameHeaderSize
	segBodySize     = 1 + 8 + 8

	// maxRecordBody rejects absurd length prefixes before any allocation:
	// a length field read out of garbage must not look like a 4 GiB
	// record. Real records are a coded block plus a few dozen bytes, far
	// below this.
	maxRecordBody = 1 << 26
)

// Record-decode errors. errTornRecord means the byte stream ended inside a
// frame — the expected shape of an append cut short by a crash, tolerated
// at the log tail. ErrCorrupt means the bytes are structurally wrong (CRC
// mismatch, impossible lengths, unknown type): replay stops there too, but
// the condition is reported.
var (
	ErrCorrupt    = errors.New("wal: corrupt record")
	errTornRecord = durable.ErrTorn
)

// record is one log entry. For recBlock, coeffs and payload alias the
// caller's buffers on encode and the log buffer on decode.
type record struct {
	typ     recordType
	seg     rlnc.SegmentID
	coeffs  []byte
	payload []byte
}

// bodySize returns the encoded body length of r.
func (r record) bodySize() int {
	n := segBodySize
	if r.typ == recBlock {
		n += 4 + len(r.coeffs) + 4 + len(r.payload)
	}
	return n
}

// appendRecord appends the framed record to dst and returns the extended
// slice. It allocates only when dst lacks capacity.
func appendRecord(dst []byte, r record) []byte {
	return durable.AppendFrame(dst, r.bodySize(), func(p []byte) {
		p[0] = byte(r.typ)
		binary.LittleEndian.PutUint64(p[1:], r.seg.Origin)
		binary.LittleEndian.PutUint64(p[9:], r.seg.Seq)
		if r.typ == recBlock {
			binary.LittleEndian.PutUint32(p[17:], uint32(len(r.coeffs)))
			copy(p[21:], r.coeffs)
			off := 21 + len(r.coeffs)
			binary.LittleEndian.PutUint32(p[off:], uint32(len(r.payload)))
			copy(p[off+4:], r.payload)
		}
	})
}

// decodeRecord parses one framed record from the front of b, returning the
// record and the total frame size consumed. The returned slices alias b.
func decodeRecord(b []byte) (record, int, error) {
	p, n, err := durable.NextFrame(b, maxRecordBody)
	if err != nil {
		if err != errTornRecord {
			err = ErrCorrupt
		}
		return record{}, 0, err
	}
	if len(p) < segBodySize {
		return record{}, 0, ErrCorrupt
	}
	r := record{
		typ: recordType(p[0]),
		seg: rlnc.SegmentID{
			Origin: binary.LittleEndian.Uint64(p[1:]),
			Seq:    binary.LittleEndian.Uint64(p[9:]),
		},
	}
	switch r.typ {
	case recBlock:
		rest := p[segBodySize:]
		if len(rest) < 4 {
			return record{}, 0, ErrCorrupt
		}
		cn := int(binary.LittleEndian.Uint32(rest))
		if cn < 0 || cn > len(rest)-8 {
			return record{}, 0, ErrCorrupt
		}
		r.coeffs = rest[4 : 4+cn]
		rest = rest[4+cn:]
		pn := int(binary.LittleEndian.Uint32(rest))
		if pn != len(rest)-4 {
			return record{}, 0, ErrCorrupt
		}
		if pn > 0 { // keep nil-ness: a rank-only block stays payload-nil
			r.payload = rest[4:]
		}
	case recFinished, recForget:
		if len(p) != segBodySize {
			return record{}, 0, ErrCorrupt
		}
	default:
		return record{}, 0, ErrCorrupt
	}
	return r, n, nil
}
