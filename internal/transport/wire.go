package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

// Wire format: every frame is
//
//	u32 bodyLen | body
//
// where body is
//
//	u8 type | u64 from | u64 to | type-specific payload
//
// MsgBlock payload:           u64 origin | u64 seq | u32 coeffLen | coeffs |
//	                           u32 payloadLen | payload
//	                           [| u8 0x01 | u64 traceID | u8 hop]
//	                           The optional trailing trace context carries
//	                           the block's sampled lineage; absent means not
//	                           sampled, so untraced frames stay byte-identical
//	                           with pre-tracing nodes. A present context must
//	                           be exactly this shape with marker 0x01 and a
//	                           nonzero traceID — anything else (truncated,
//	                           oversized, zero ID, unknown marker) is a
//	                           decode error.
// MsgSegmentComplete payload: u64 origin | u64 seq
// MsgPullRequest payload:     (empty)  — legacy blind pull, or
//	                           u8 flags [| u64 origin | u64 seq]
//	                           [| u64 traceID | u8 hop]
//	                           flags bit0 = segment hint present (origin+seq
//	                           follow), bit1 = want inventory digest, bit2 =
//	                           trace context present (traceID+hop follow the
//	                           hint fields; traceID must be nonzero). A zero
//	                           or unknown flags byte is a decode error, so
//	                           the empty payload stays the only encoding of
//	                           a blind pull.
// MsgEmpty payload:           (empty)
// MsgInventory payload:       u32 n | n × (u64 origin | u64 seq | u16 blocks)
// MsgExchange payload:        identical to MsgBlock (including the optional
//	                           trace context)
// MsgSwim payload:            u32 rawLen | raw  — one membership packet,
//	                           opaque to the transport (internal/membership
//	                           owns the bytes)
//
// Datagram transports reuse the same codec: one datagram carries exactly one
// frame body (no u32 length prefix — the datagram boundary is the frame
// boundary). See EncodeDatagram / DecodeDatagram.

// maxFrameSize bounds a frame body, both on the read side (guarding
// against corrupt length prefixes) and on the encode side (a frame the
// receiver would reject must not be produced in the first place).
const maxFrameSize = 16 << 20

// headerLen is the fixed body prefix: type + from + to.
const headerLen = 1 + 8 + 8

// MsgPullRequest flag bits.
const (
	pullFlagHint          = 1 << 0
	pullFlagWantInventory = 1 << 1
	pullFlagTrace         = 1 << 2
)

// Block-frame trace suffix: marker byte, then trace ID and hop.
const (
	traceMarker    = 0x01
	traceSuffixLen = 1 + 8 + 1
)

// inventoryEntryLen is the wire size of one MsgInventory digest line.
const inventoryEntryLen = 8 + 8 + 2

// EncodeMessage serializes m into a self-contained frame.
func EncodeMessage(m *Message) ([]byte, error) {
	body := make([]byte, headerLen, headerLen+64)
	body[0] = byte(m.Type)
	binary.BigEndian.PutUint64(body[1:], uint64(m.From))
	binary.BigEndian.PutUint64(body[9:], uint64(m.To))
	switch m.Type {
	case MsgBlock, MsgExchange:
		if m.Block == nil {
			return nil, fmt.Errorf("transport: %v without block", m.Type)
		}
		body = binary.BigEndian.AppendUint64(body, m.Block.Seg.Origin)
		body = binary.BigEndian.AppendUint64(body, m.Block.Seg.Seq)
		body = appendBytes(body, m.Block.Coeffs)
		body = appendBytes(body, m.Block.Payload)
		if m.Trace.Valid() {
			body = append(body, traceMarker)
			body = binary.BigEndian.AppendUint64(body, m.Trace.ID)
			body = append(body, m.Trace.Hop)
		}
	case MsgSegmentComplete:
		body = binary.BigEndian.AppendUint64(body, m.Seg.Origin)
		body = binary.BigEndian.AppendUint64(body, m.Seg.Seq)
	case MsgPullRequest:
		// A hintless, digest-less pull keeps the legacy empty payload so
		// blind pulls are byte-identical with pre-scheduling nodes.
		var flags byte
		if m.HasHint {
			flags |= pullFlagHint
		}
		if m.WantInventory {
			flags |= pullFlagWantInventory
		}
		if m.Trace.Valid() {
			flags |= pullFlagTrace
		}
		if flags != 0 {
			body = append(body, flags)
			if m.HasHint {
				body = binary.BigEndian.AppendUint64(body, m.Seg.Origin)
				body = binary.BigEndian.AppendUint64(body, m.Seg.Seq)
			}
			if m.Trace.Valid() {
				body = binary.BigEndian.AppendUint64(body, m.Trace.ID)
				body = append(body, m.Trace.Hop)
			}
		}
	case MsgEmpty:
		// No payload.
	case MsgSwim:
		body = appendBytes(body, m.Raw)
	case MsgInventory:
		body = binary.BigEndian.AppendUint32(body, uint32(len(m.Inventory)))
		for _, e := range m.Inventory {
			if e.Blocks < 0 || e.Blocks > 0xFFFF {
				return nil, fmt.Errorf("transport: inventory block count %d outside u16", e.Blocks)
			}
			body = binary.BigEndian.AppendUint64(body, e.Seg.Origin)
			body = binary.BigEndian.AppendUint64(body, e.Seg.Seq)
			body = binary.BigEndian.AppendUint16(body, uint16(e.Blocks))
		}
	default:
		return nil, fmt.Errorf("transport: cannot encode %v", m.Type)
	}
	if len(body) > maxFrameSize {
		return nil, fmt.Errorf("%w: body %d bytes > %d", ErrFrameTooLarge, len(body), maxFrameSize)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	return frame, nil
}

// DecodeMessage parses a frame body (without the length prefix).
func DecodeMessage(body []byte) (*Message, error) {
	if len(body) < headerLen {
		return nil, fmt.Errorf("transport: short body (%d bytes)", len(body))
	}
	m := &Message{
		Type: MsgType(body[0]),
		From: NodeID(binary.BigEndian.Uint64(body[1:])),
		To:   NodeID(binary.BigEndian.Uint64(body[9:])),
	}
	rest := body[headerLen:]
	switch m.Type {
	case MsgBlock, MsgExchange:
		var origin, seq uint64
		var err error
		if origin, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		if seq, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		var coeffs, payload []byte
		if coeffs, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
		if payload, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
		if len(coeffs) == 0 {
			return nil, fmt.Errorf("transport: block frame with no coefficients")
		}
		if len(rest) != 0 {
			// The only legal trailer is a complete trace context; a
			// truncated or oversized suffix must not decode.
			if len(rest) != traceSuffixLen {
				return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
			}
			if rest[0] != traceMarker {
				return nil, fmt.Errorf("transport: bad trace marker 0x%02x", rest[0])
			}
			m.Trace.ID = binary.BigEndian.Uint64(rest[1:])
			m.Trace.Hop = rest[9]
			if m.Trace.ID == 0 {
				return nil, fmt.Errorf("transport: trace context with zero ID")
			}
		}
		m.Block = &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: origin, Seq: seq},
			Coeffs:  coeffs,
			Payload: payload,
		}
		m.Seg = m.Block.Seg
	case MsgSegmentComplete:
		var origin, seq uint64
		var err error
		if origin, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		if seq, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
		}
		m.Seg = rlnc.SegmentID{Origin: origin, Seq: seq}
	case MsgPullRequest:
		if len(rest) == 0 {
			break // legacy blind pull
		}
		flags := rest[0]
		rest = rest[1:]
		if flags == 0 || flags&^(pullFlagHint|pullFlagWantInventory|pullFlagTrace) != 0 {
			return nil, fmt.Errorf("transport: bad pull flags 0x%02x", flags)
		}
		if flags&pullFlagHint != 0 {
			var origin, seq uint64
			var err error
			if origin, rest, err = readUint64(rest); err != nil {
				return nil, err
			}
			if seq, rest, err = readUint64(rest); err != nil {
				return nil, err
			}
			m.Seg = rlnc.SegmentID{Origin: origin, Seq: seq}
			m.HasHint = true
		}
		if flags&pullFlagTrace != 0 {
			var id uint64
			var err error
			if id, rest, err = readUint64(rest); err != nil {
				return nil, err
			}
			if len(rest) < 1 {
				return nil, fmt.Errorf("transport: truncated trace hop")
			}
			if id == 0 {
				return nil, fmt.Errorf("transport: trace context with zero ID")
			}
			m.Trace = obs.TraceContext{ID: id, Hop: rest[0]}
			rest = rest[1:]
		}
		m.WantInventory = flags&pullFlagWantInventory != 0
		if len(rest) != 0 {
			return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
		}
	case MsgEmpty:
		if len(rest) != 0 {
			return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
		}
	case MsgSwim:
		var raw []byte
		var err error
		if raw, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
		}
		m.Raw = raw
	case MsgInventory:
		if len(rest) < 4 {
			return nil, fmt.Errorf("transport: truncated inventory count")
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) != uint64(n)*inventoryEntryLen {
			return nil, fmt.Errorf("transport: inventory of %d entries in %d bytes", n, len(rest))
		}
		if n > 0 {
			m.Inventory = make([]pullsched.InventoryEntry, n)
			for i := range m.Inventory {
				m.Inventory[i] = pullsched.InventoryEntry{
					Seg: rlnc.SegmentID{
						Origin: binary.BigEndian.Uint64(rest),
						Seq:    binary.BigEndian.Uint64(rest[8:]),
					},
					Blocks: int(binary.BigEndian.Uint16(rest[16:])),
				}
				rest = rest[inventoryEntryLen:]
			}
		}
	default:
		return nil, fmt.Errorf("transport: cannot decode %v", m.Type)
	}
	return m, nil
}

// EncodeDatagram serializes m into a single self-contained datagram payload:
// the stream codec's frame body without the u32 length prefix, since the
// datagram boundary already frames it. maxSize guards against payloads the
// path MTU (or the UDP maximum) would truncate or fragment away — a frame
// over the limit returns ErrFrameTooLarge instead of producing a datagram no
// receiver can reassemble. maxSize <= 0 applies only the codec's own
// maxFrameSize bound.
func EncodeDatagram(m *Message, maxSize int) ([]byte, error) {
	frame, err := EncodeMessage(m)
	if err != nil {
		return nil, err
	}
	body := frame[4:]
	if maxSize > 0 && len(body) > maxSize {
		return nil, fmt.Errorf("%w: datagram %d bytes > %d", ErrFrameTooLarge, len(body), maxSize)
	}
	return body, nil
}

// DecodeDatagram parses one datagram payload (a frame body, as produced by
// EncodeDatagram). All decoded fields are copies, so the caller may reuse
// its receive buffer.
func DecodeDatagram(b []byte) (*Message, error) { return DecodeMessage(b) }

// WriteFrame writes one encoded message to w.
func WriteFrame(w io.Writer, m *Message) error {
	frame, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one message from r.
func ReadFrame(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return DecodeMessage(body)
}

func appendBytes(b, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("transport: truncated u64")
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("transport: truncated length")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("transport: truncated field (%d of %d bytes)", len(b), n)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b[:n])
	return out, b[n:], nil
}
