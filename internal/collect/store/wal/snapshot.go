package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/rlnc"
)

// Snapshot framing: [8B magic][4B LE body length][4B LE CRC32-IEEE of
// body][body]. Body:
//
//	[4B segmentSize]
//	[4B finishedCount] then finishedCount × [8B origin][8B seq]  (oldest first)
//	[4B openCount]     then openCount × collection
//
// collection: [8B origin][8B seq][4B payloadLen][4B rank] then
// rank × ([4B coeffLen][coeffs][4B payloadLen][payload]) — the decoder
// basis rows, exactly what peercore.RestoreCollection re-adds. The
// driver-side start time and lineage a collection carries are not saved:
// a restored collection adopts both again from its first block.
// Only this layout (P2PCSNP2) is written. A P2PCSNP1 snapshot, from builds
// that kept the paper's state counter on the server, still reads: its
// collection header has a [4B state] word after the ID, which is dropped.
const (
	snapMagic   = "P2PCSNP2"
	snapMagicV1 = "P2PCSNP1"
)

// maxSnapshotBody bounds snapshot parsing the same way maxRecordBody
// bounds records, scaled up for many open collections.
const maxSnapshotBody = 1 << 30

// snapCollection is one open collection in a snapshot.
type snapCollection struct {
	seg        rlnc.SegmentID
	payloadLen int
	basis      []*rlnc.CodedBlock
}

// snapshot is the decoded state of one snapshot file.
type snapshot struct {
	segmentSize int
	finished    []rlnc.SegmentID
	cols        []snapCollection
}

// encodeSnapshot serializes the memory store. Collections are sorted by
// segment ID so identical state always produces identical bytes.
func encodeSnapshot(m *store.Memory) []byte {
	var cols []snapCollection
	m.Range(func(seg rlnc.SegmentID, col *peercore.Collection) {
		sc := snapCollection{seg: seg, payloadLen: col.PayloadLen()}
		col.RangeBasis(func(coeffs, payload []byte) {
			sc.basis = append(sc.basis, &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs, Payload: payload})
		})
		cols = append(cols, sc)
	})
	sort.Slice(cols, func(i, j int) bool {
		a, b := cols[i].seg, cols[j].seg
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})

	body := make([]byte, 0, 1024)
	body = binary.LittleEndian.AppendUint32(body, uint32(m.SegmentSize()))
	body = binary.LittleEndian.AppendUint32(body, uint32(m.FinishedCount()))
	m.RangeFinished(func(seg rlnc.SegmentID) {
		body = binary.LittleEndian.AppendUint64(body, seg.Origin)
		body = binary.LittleEndian.AppendUint64(body, seg.Seq)
	})
	body = binary.LittleEndian.AppendUint32(body, uint32(len(cols)))
	for _, sc := range cols {
		body = binary.LittleEndian.AppendUint64(body, sc.seg.Origin)
		body = binary.LittleEndian.AppendUint64(body, sc.seg.Seq)
		body = binary.LittleEndian.AppendUint32(body, uint32(sc.payloadLen))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(sc.basis)))
		for _, cb := range sc.basis {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(cb.Coeffs)))
			body = append(body, cb.Coeffs...)
			body = binary.LittleEndian.AppendUint32(body, uint32(len(cb.Payload)))
			body = append(body, cb.Payload...)
		}
	}

	out := make([]byte, 0, len(snapMagic)+8+len(body))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// snapErr tags a snapshot parse failure with its position.
func snapErr(what string) error { return fmt.Errorf("%w: snapshot %s", ErrCorrupt, what) }

// decodeSnapshot validates and parses an encoded snapshot. The returned
// coded blocks own their bytes (they outlive the file buffer).
func decodeSnapshot(b []byte) (*snapshot, error) {
	v1 := len(b) >= len(snapMagicV1) && string(b[:len(snapMagicV1)]) == snapMagicV1
	if len(b) < len(snapMagic)+8 || !v1 && string(b[:len(snapMagic)]) != snapMagic {
		return nil, snapErr("header")
	}
	n := int(binary.LittleEndian.Uint32(b[len(snapMagic):]))
	sum := binary.LittleEndian.Uint32(b[len(snapMagic)+4:])
	body := b[len(snapMagic)+8:]
	if n < 0 || n > maxSnapshotBody || n != len(body) || crc32.ChecksumIEEE(body) != sum {
		return nil, snapErr("checksum")
	}

	u32 := func() (int, bool) {
		if len(body) < 4 {
			return 0, false
		}
		v := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(body) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body)
		body = body[8:]
		return v, true
	}
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(body) < n {
			return nil, false
		}
		v := append([]byte(nil), body[:n]...)
		body = body[n:]
		return v, true
	}

	snap := &snapshot{}
	segSize, ok := u32()
	if !ok {
		return nil, snapErr("segment size")
	}
	snap.segmentSize = segSize
	nFin, ok := u32()
	if !ok || nFin < 0 || nFin > maxSnapshotBody/16 {
		return nil, snapErr("finished count")
	}
	for i := 0; i < nFin; i++ {
		origin, ok1 := u64()
		seq, ok2 := u64()
		if !ok1 || !ok2 {
			return nil, snapErr("finished set")
		}
		snap.finished = append(snap.finished, rlnc.SegmentID{Origin: origin, Seq: seq})
	}
	nCols, ok := u32()
	if !ok || nCols < 0 || nCols > maxSnapshotBody/32 {
		return nil, snapErr("collection count")
	}
	for i := 0; i < nCols; i++ {
		origin, ok1 := u64()
		seq, ok2 := u64()
		ok3 := true
		if v1 {
			_, ok3 = u32() // the dropped state word
		}
		payloadLen, ok4 := u32()
		rank, ok5 := u32()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || rank < 0 || rank > maxSnapshotBody/16 {
			return nil, snapErr("collection header")
		}
		sc := snapCollection{
			seg:        rlnc.SegmentID{Origin: origin, Seq: seq},
			payloadLen: payloadLen,
		}
		for j := 0; j < rank; j++ {
			cn, ok := u32()
			if !ok {
				return nil, snapErr("basis row")
			}
			coeffs, ok := take(cn)
			if !ok {
				return nil, snapErr("basis row")
			}
			pn, ok := u32()
			if !ok {
				return nil, snapErr("basis row")
			}
			payload, ok := take(pn)
			if !ok {
				return nil, snapErr("basis row")
			}
			cb := &rlnc.CodedBlock{Seg: sc.seg, Coeffs: coeffs}
			if pn > 0 {
				cb.Payload = payload
			}
			sc.basis = append(sc.basis, cb)
		}
		snap.cols = append(snap.cols, sc)
	}
	if len(body) != 0 {
		return nil, snapErr("trailing bytes")
	}
	return snap, nil
}

// loadSnapshotFile reads and decodes one snapshot file.
func loadSnapshotFile(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}
