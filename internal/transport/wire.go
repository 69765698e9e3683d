package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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
//	                           [| u64 cursor]
//	                           [| u16 n | n × (u64 origin | u64 seq)]
//	                           flags bit0 = segment hint present (origin+seq
//	                           follow), bit1 = want inventory digest, bit2 =
//	                           unused, bit3 = inventory cursor present
//	                           (follows the hint; must be nonzero), bit4 =
//	                           decoded list present (last; 1 <= n <=
//	                           DecodedPage). A zero flags byte or one with
//	                           an unknown bit (bit2 among them) is a decode
//	                           error, so the empty payload stays the only
//	                           encoding of a blind pull. A pull carries no
//	                           trace context: lineage rides blocks only.
// MsgEmpty payload:           (empty)
// MsgInventory payload:       u32 n | n × (u64 origin | u64 seq | u16 blocks)
//	                           [| u8 kind | u64 cursor]
//	                           kind 1 = full digest, 2 = delta; the cursor
//	                           must be nonzero. A truncated suffix, an
//	                           unknown kind or bytes after it are decode
//	                           errors; without the suffix the frame is the
//	                           pre-cursor full digest, byte for byte.
// MsgExchange payload:        identical to MsgBlock (including the optional
//	                           trace context)
// MsgSwim payload:            u32 rawLen | raw  — one membership packet,
//	                           opaque to the transport (internal/membership
//	                           owns the bytes)
//
// The inventory cursor. A peer numbers the holdings it opens (peercore:
// the count starts at 1 and never goes back), and every digest it sends
// ends in the count it reaches. The server keeps that cursor per peer and
// sends it on its later pulls; the peer answers a cursor with a delta, the
// segments whose holding it opened after the cursor and still holds, or
// with no MsgInventory at all when there are none. The cursor travels in
// the request so the peer keeps nothing per server: a delta that is lost
// is simply covered by the answer to the next pull, which still carries
// the old cursor. A full digest (want-inventory, no cursor) is the delta
// since cursor 0; a peer also answers in full when the cursor is ahead of
// its count, which means it restarted under the same identity.
//
// The decoded list. A server reads the segments it has finished (its own
// decodes and those a fellow shard announced) as a log, and keeps one
// cursor per peer into it. A pull to a peer whose cursor is behind lists
// the segments finished since, one page at most; the peer drops its blocks
// of them and refuses later gossip of them. The cursor moves to the end of
// the list when the peer next answers, so a list lost with its pull is
// listed again on a later pull. A page fits a pull with every other field
// set into the default 1400-byte datagram.
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
	pullFlagCursor        = 1 << 3
	pullFlagDecoded       = 1 << 4

	pullFlagsKnown = pullFlagHint | pullFlagWantInventory | pullFlagCursor | pullFlagDecoded
)

// segmentIDLen is the wire size of one segment ID.
const segmentIDLen = 8 + 8

// DecodedPage is the most segment IDs one pull request lists: a pull with
// a hint, an inventory cursor and a full page still fits the default
// datagram (1388 of 1400 bytes).
const DecodedPage = (defaultMaxDatagram - (headerLen + 1 + segmentIDLen + 8 + 2)) / segmentIDLen

// MsgInventory cursor suffix: kind byte, then the cursor.
const (
	invKindFull     = 1
	invKindDelta    = 2
	invCursorSufLen = 1 + 8
)

// Block-frame trace suffix: marker byte, then trace ID and hop.
const (
	traceMarker    = 0x01
	traceSuffixLen = 1 + 8 + 1
)

// inventoryEntryLen is the wire size of one MsgInventory digest line.
const inventoryEntryLen = 8 + 8 + 2

// maxRetainedBuf is the largest frame buffer a connection keeps from one
// frame to the next. A bigger frame gets a one-off buffer, so a single
// 16 MiB frame cannot pin 16 MiB per connection.
const maxRetainedBuf = 64 << 10

// pullFlags is the flags byte of a MsgPullRequest. Zero is the blind pull,
// which keeps the legacy empty payload so it stays byte-identical with
// pre-scheduling nodes.
func pullFlags(m *Message) byte {
	var flags byte
	if m.HasHint {
		flags |= pullFlagHint
	}
	if m.WantInventory {
		flags |= pullFlagWantInventory
	}
	if m.InvCursor != 0 {
		flags |= pullFlagCursor
	}
	if len(m.DecodedList()) > 0 {
		flags |= pullFlagDecoded
	}
	return flags
}

// bodySize returns the exact length of m's frame body. It is where a
// message that must not reach the wire is refused, before a byte is
// written: an unknown type, a block message without a block, an inventory
// count outside u16 or a delta without its cursor, a decoded list over
// DecodedPage, a body over limit (ErrFrameTooLarge).
func bodySize(m *Message, limit int) (int, error) {
	n := headerLen
	switch m.Type {
	case MsgBlock, MsgExchange:
		if m.Block == nil {
			return 0, fmt.Errorf("transport: %v without block", m.Type)
		}
		n += 8 + 8 + 4 + len(m.Block.Coeffs) + 4 + len(m.Block.Payload)
		if m.Trace.Valid() {
			n += traceSuffixLen
		}
	case MsgSegmentComplete:
		n += 8 + 8
	case MsgPullRequest:
		if flags := pullFlags(m); flags != 0 {
			n++
			if m.HasHint {
				n += 8 + 8
			}
			if m.InvCursor != 0 {
				n += 8
			}
			if k := len(m.DecodedList()); k > DecodedPage {
				return 0, fmt.Errorf("transport: decoded list of %d segments > %d", k, DecodedPage)
			} else if k > 0 {
				n += 2 + k*segmentIDLen
			}
		}
	case MsgEmpty:
		// No payload.
	case MsgSwim:
		n += 4 + len(m.Raw)
	case MsgInventory:
		for _, e := range m.Inventory {
			if e.Blocks < 0 || e.Blocks > 0xFFFF {
				return 0, fmt.Errorf("transport: inventory block count %d outside u16", e.Blocks)
			}
		}
		n += 4 + len(m.Inventory)*inventoryEntryLen
		if m.InvCursor != 0 {
			n += invCursorSufLen
		} else if m.InvDelta {
			return 0, fmt.Errorf("transport: inventory delta without a cursor")
		}
	default:
		return 0, fmt.Errorf("transport: cannot encode %v", m.Type)
	}
	if n > limit {
		return 0, fmt.Errorf("%w: body %d bytes > %d", ErrFrameTooLarge, n, limit)
	}
	return n, nil
}

// appendBody appends the frame body of a message bodySize accepted.
func appendBody(b []byte, m *Message) []byte {
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, uint64(m.From))
	b = binary.BigEndian.AppendUint64(b, uint64(m.To))
	switch m.Type {
	case MsgBlock, MsgExchange:
		b = binary.BigEndian.AppendUint64(b, m.Block.Seg.Origin)
		b = binary.BigEndian.AppendUint64(b, m.Block.Seg.Seq)
		b = appendBytes(b, m.Block.Coeffs)
		b = appendBytes(b, m.Block.Payload)
		if m.Trace.Valid() {
			b = append(b, traceMarker)
			b = binary.BigEndian.AppendUint64(b, m.Trace.ID)
			b = append(b, m.Trace.Hop)
		}
	case MsgSegmentComplete:
		b = binary.BigEndian.AppendUint64(b, m.Seg.Origin)
		b = binary.BigEndian.AppendUint64(b, m.Seg.Seq)
	case MsgPullRequest:
		if flags := pullFlags(m); flags != 0 {
			b = append(b, flags)
			if m.HasHint {
				b = binary.BigEndian.AppendUint64(b, m.Seg.Origin)
				b = binary.BigEndian.AppendUint64(b, m.Seg.Seq)
			}
			if m.InvCursor != 0 {
				b = binary.BigEndian.AppendUint64(b, m.InvCursor)
			}
			if list := m.DecodedList(); len(list) > 0 {
				b = binary.BigEndian.AppendUint16(b, uint16(len(list)))
				for _, seg := range list {
					b = binary.BigEndian.AppendUint64(b, seg.Origin)
					b = binary.BigEndian.AppendUint64(b, seg.Seq)
				}
			}
		}
	case MsgSwim:
		b = appendBytes(b, m.Raw)
	case MsgInventory:
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Inventory)))
		for _, e := range m.Inventory {
			b = binary.BigEndian.AppendUint64(b, e.Seg.Origin)
			b = binary.BigEndian.AppendUint64(b, e.Seg.Seq)
			b = binary.BigEndian.AppendUint16(b, uint16(e.Blocks))
		}
		if m.InvCursor != 0 {
			kind := byte(invKindFull)
			if m.InvDelta {
				kind = invKindDelta
			}
			b = append(b, kind)
			b = binary.BigEndian.AppendUint64(b, m.InvCursor)
		}
	}
	return b
}

// appendFrame appends m's self-contained frame (length prefix, then body)
// to dst and returns the extended slice. The frame is written once, in
// place: into a buffer of sufficient capacity it allocates nothing and
// copies the payload once. dst comes back unchanged with the error when m
// cannot be encoded.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	n, err := bodySize(m, maxFrameSize)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, 4+n), uint32(n))
	return appendBody(dst, m), nil
}

// appendDatagram is appendFrame for a datagram: the body alone, since the
// datagram boundary already frames it, bounded by maxSize (<= 0 applies
// only the codec's own maxFrameSize).
func appendDatagram(dst []byte, m *Message, maxSize int) ([]byte, error) {
	if maxSize <= 0 || maxSize > maxFrameSize {
		maxSize = maxFrameSize
	}
	n, err := bodySize(m, maxSize)
	if err != nil {
		return dst, err
	}
	return appendBody(slices.Grow(dst, n), m), nil
}

// EncodeMessage serializes m into a self-contained frame in a slice of its
// own.
func EncodeMessage(m *Message) ([]byte, error) { return appendFrame(nil, m) }

// DecodeMessage parses a frame body (without the length prefix).
func DecodeMessage(body []byte) (*Message, error) {
	if len(body) < headerLen {
		return nil, fmt.Errorf("transport: short body (%d bytes)", len(body))
	}
	typ := MsgType(body[0])
	from := NodeID(binary.BigEndian.Uint64(body[1:]))
	to := NodeID(binary.BigEndian.Uint64(body[9:]))
	rest := body[headerLen:]
	if typ == MsgBlock || typ == MsgExchange {
		return decodeBlock(typ, from, to, rest)
	}
	if typ == MsgPullRequest {
		return decodePull(from, to, rest)
	}
	m := &Message{Type: typ, From: from, To: to}
	switch m.Type {
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
		m.Raw = cloneBytes(raw)
	case MsgInventory:
		if len(rest) < 4 {
			return nil, fmt.Errorf("transport: truncated inventory count")
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		switch uint64(len(rest)) {
		case uint64(n) * inventoryEntryLen:
		case uint64(n)*inventoryEntryLen + invCursorSufLen:
			suffix := rest[len(rest)-invCursorSufLen:]
			if suffix[0] != invKindFull && suffix[0] != invKindDelta {
				return nil, fmt.Errorf("transport: bad inventory kind 0x%02x", suffix[0])
			}
			m.InvDelta = suffix[0] == invKindDelta
			if m.InvCursor = binary.BigEndian.Uint64(suffix[1:]); m.InvCursor == 0 {
				return nil, fmt.Errorf("transport: inventory with a zero cursor")
			}
		default:
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

// decodeBlock parses the payload of a MsgBlock or MsgExchange frame into a
// message built by NewBlockMessage: the message, the block and its
// coefficients are one object, and the payload sits alone in its exact
// size class, because receivers buffer these.
func decodeBlock(typ MsgType, from, to NodeID, rest []byte) (*Message, error) {
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
	var trace obs.TraceContext
	if len(rest) != 0 {
		// The only legal trailer is a complete trace context; a truncated
		// or oversized suffix must not decode.
		if len(rest) != traceSuffixLen {
			return nil, fmt.Errorf("transport: %d trailing bytes", len(rest))
		}
		if rest[0] != traceMarker {
			return nil, fmt.Errorf("transport: bad trace marker 0x%02x", rest[0])
		}
		trace = obs.TraceContext{ID: binary.BigEndian.Uint64(rest[1:]), Hop: rest[9]}
		if trace.ID == 0 {
			return nil, fmt.Errorf("transport: trace context with zero ID")
		}
	}
	m := NewBlockMessage(typ, from, to, rlnc.SegmentID{Origin: origin, Seq: seq}, len(coeffs))
	copy(m.Block.Coeffs, coeffs)
	m.Block.Payload = cloneBytes(payload)
	m.Trace = trace
	return m, nil
}

// decodePull parses the payload of a MsgPullRequest. A pull with a decoded
// list is built by NewPullMessage, so the list costs one allocation beside
// the message.
func decodePull(from, to NodeID, rest []byte) (*Message, error) {
	if len(rest) == 0 {
		return NewPullMessage(from, to, 0), nil // legacy blind pull
	}
	flags := rest[0]
	rest = rest[1:]
	if flags == 0 || flags&^pullFlagsKnown != 0 {
		return nil, fmt.Errorf("transport: bad pull flags 0x%02x", flags)
	}
	var hdr Message // the fields before the list, until its length is known
	var err error
	if flags&pullFlagHint != 0 {
		var origin, seq uint64
		if origin, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		if seq, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		hdr.Seg = rlnc.SegmentID{Origin: origin, Seq: seq}
		hdr.HasHint = true
	}
	if flags&pullFlagCursor != 0 {
		if hdr.InvCursor, rest, err = readUint64(rest); err != nil {
			return nil, err
		}
		if hdr.InvCursor == 0 {
			return nil, fmt.Errorf("transport: pull with a zero inventory cursor")
		}
	}
	n := 0
	if flags&pullFlagDecoded != 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("transport: truncated decoded count")
		}
		n = int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n == 0 || n > DecodedPage {
			return nil, fmt.Errorf("transport: decoded list of %d segments, want 1..%d", n, DecodedPage)
		}
		if len(rest) < n*segmentIDLen {
			return nil, fmt.Errorf("transport: decoded list of %d segments in %d bytes", n, len(rest))
		}
	}
	if len(rest) != n*segmentIDLen {
		return nil, fmt.Errorf("transport: %d trailing bytes", len(rest)-n*segmentIDLen)
	}
	m := NewPullMessage(from, to, n)
	m.HasHint, m.Seg, m.InvCursor = hdr.HasHint, hdr.Seg, hdr.InvCursor
	m.WantInventory = flags&pullFlagWantInventory != 0
	for i := 0; i < n; i++ {
		*m.Decoded = append(*m.Decoded, rlnc.SegmentID{
			Origin: binary.BigEndian.Uint64(rest),
			Seq:    binary.BigEndian.Uint64(rest[8:]),
		})
		rest = rest[segmentIDLen:]
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
	return appendDatagram(nil, m, maxSize)
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

// ReadFrame reads one message from r, consuming exactly its frame.
func ReadFrame(r io.Reader) (*Message, error) {
	m, _, err := readFrame(r, nil)
	return m, err
}

// readFrame is ReadFrame through a buffer the caller keeps between frames:
// it returns buf, regrown to hold the frame when that stays within
// maxRetainedBuf, for the next call. Legal because every decoded field is
// a copy.
func readFrame(r io.Reader, buf []byte) (*Message, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > maxFrameSize {
		return nil, buf, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := buf
	if cap(body) < n {
		body = make([]byte, n)
		if n <= maxRetainedBuf {
			buf = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, err
	}
	m, err := DecodeMessage(body)
	return m, buf, err
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

// readBytes splits one length-prefixed field off b. The field is a view
// into b: a caller that keeps it past b's lifetime copies it (cloneBytes).
// This is the decoder's one bounds check on a variable-length field.
func readBytes(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("transport: truncated length")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("transport: truncated field (%d of %d bytes)", len(b), n)
	}
	return b[:n], b[n:], nil
}

// cloneBytes copies a decoded field into a slice of exactly its size; an
// empty field is nil.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
