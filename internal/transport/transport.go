// Package transport carries the live runtime's protocol messages between
// nodes: gossip block pushes, segment-complete notices, server pull
// request/response pairs, fleet exchange and SWIM probes. Three transports
// are provided — an in-memory channel network for tests and single-process
// deployments, a TCP transport streaming length-prefixed binary frames, and
// a UDP transport sending one frame per datagram — all adapters over one
// core (identity, inbox, health counters, address book, Send prologue,
// shutdown order; see core.go), plus Faulty, a wrapper that injects seeded
// loss, latency and partitions into any of them.
//
// Ownership. Send never writes the caller's Message. A message its sender
// addressed (From this endpoint, To the destination) is shared with the
// receiver: the in-memory fabric delivers that very object, a socket
// transport encodes it after Send has returned, so neither it nor its
// block may change after Send. Any other message is copied and addressed
// before Send returns, and may be reused at once. A message taken from
// Receive is read-only and may be shared; the transport never recycles it.
// What a message costs follows from that: nothing on Send for an addressed
// one, and a block message built by NewBlockMessage is one object plus its
// payload, on the sending side and again after a decode. Over a socket a
// frame is one in-place encode into a buffer the writer owns (no
// allocation, the payload copied once).
package transport

import (
	"errors"
	"fmt"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

// NodeID identifies a node (peer or logging server) network-wide.
type NodeID uint64

// MsgType enumerates the protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// MsgBlock pushes one coded block (gossip, or a pull response carrying
	// data).
	MsgBlock MsgType = iota + 1
	// MsgSegmentComplete tells neighbors the sender holds s independent
	// blocks of a segment and needs no more of it.
	MsgSegmentComplete
	// MsgPullRequest asks a peer for one re-encoded block of a random
	// buffered segment; it may carry an optional segment hint and an
	// inventory request, for the full digest or for what is new since a
	// cursor (see Message.HasHint / WantInventory / InvCursor).
	MsgPullRequest
	// MsgEmpty answers a pull when the peer's buffer is empty.
	MsgEmpty
	// MsgInventory answers a pull's WantInventory with a compact digest of
	// the sender's buffered segments, or a pull's InvCursor with the ones
	// that are new since.
	MsgInventory
	// MsgExchange carries a recoded block between fleet shards: a server
	// that received an innovative block for a segment another shard owns
	// recodes its collection and forwards the combination to the owner.
	// The payload is identical to MsgBlock; the distinct type keeps pull
	// accounting (RTT, policy feedback) off the server-to-server path.
	MsgExchange
	// MsgSwim carries one SWIM membership packet (ping, ping-req, ack,
	// piggybacked rumors) as an opaque payload. The transport moves the
	// bytes; internal/membership owns their encoding.
	MsgSwim
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case MsgBlock:
		return "block"
	case MsgSegmentComplete:
		return "segment-complete"
	case MsgPullRequest:
		return "pull-request"
	case MsgEmpty:
		return "empty"
	case MsgInventory:
		return "inventory"
	case MsgExchange:
		return "exchange"
	case MsgSwim:
		return "swim"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is one protocol datagram. The flags sit beside Type, in the word
// Type pads to, so that the struct stays in the 128-byte size class.
type Message struct {
	Type MsgType
	// HasHint marks a MsgPullRequest carrying a segment hint in Seg. A
	// hintless request encodes to the legacy empty payload, so blind pulls
	// are byte-identical with older nodes.
	HasHint bool
	// WantInventory asks the pulled peer to follow its reply with a full
	// MsgInventory digest.
	WantInventory bool
	// InvDelta marks a MsgInventory that lists only the segments the sender
	// opened after the cursor the pull carried; false is a full digest.
	InvDelta bool
	From     NodeID
	To       NodeID
	// Seg is set for MsgSegmentComplete, and for MsgPullRequest when
	// HasHint is true (the segment the puller wants).
	Seg rlnc.SegmentID
	// Block is set for MsgBlock and MsgExchange.
	Block *rlnc.CodedBlock
	// Inventory is set for MsgInventory: the sender's buffered segments
	// and per-segment block counts.
	Inventory []pullsched.InventoryEntry
	// InvCursor is the inventory cursor (see wire.go). On a MsgInventory it
	// is the sender's arrival count, which the digest reaches; on a
	// MsgPullRequest it is the count the puller last heard from this peer,
	// and asks for what is new since. Zero means absent, and encodes to the
	// pre-cursor bytes.
	InvCursor uint64
	// Trace is the optional sampled lineage riding on MsgBlock,
	// MsgExchange, and MsgPullRequest frames. The zero value (no sampled
	// lineage) encodes to exactly the legacy byte stream, mirroring how a
	// hintless pull stays the legacy empty payload.
	Trace obs.TraceContext
	// Raw is set for MsgSwim: the membership packet bytes, opaque to the
	// transport.
	Raw []byte
	// Decoded, on a MsgPullRequest, lists the segments the puller finished
	// since the pulled peer last answered it, oldest first and at most
	// DecodedPage of them (see wire.go); the peer drops its blocks of them.
	// Nil or empty lists nothing. It is a pointer so that Message stays in
	// its 128-byte size class; NewPullMessage puts the list's header in the
	// message's own allocation.
	Decoded *[]rlnc.SegmentID
}

// DecodedList returns the segments m.Decoded lists, nil when it lists none.
func (m *Message) DecodedList() []rlnc.SegmentID {
	if m.Decoded == nil {
		return nil
	}
	return *m.Decoded
}

// NewPullMessage returns a MsgPullRequest from→to whose Decoded list is
// empty with room for n segments, the message and the list's header one
// heap object. n = 0 leaves Decoded nil and the message a plain one.
func NewPullMessage(from, to NodeID, n int) *Message {
	if n == 0 {
		return &Message{Type: MsgPullRequest, From: from, To: to}
	}
	o := &struct {
		Message
		decoded []rlnc.SegmentID
	}{}
	o.Message = Message{Type: MsgPullRequest, From: from, To: to}
	o.decoded = make([]rlnc.SegmentID, 0, n)
	o.Decoded = &o.decoded
	return &o.Message
}

// NewBlockMessage returns a message of type typ (MsgBlock or MsgExchange)
// addressed from→to, carrying a block of seg with a zeroed coefficient
// vector of the given width and no payload. Up to rlnc.InlineCoeffs the
// message, the block and the vector are one heap object, so a block message
// costs one allocation plus its payload's; wider vectors fall back to
// rlnc.NewBlock.
func NewBlockMessage(typ MsgType, from, to NodeID, seg rlnc.SegmentID, width int) *Message {
	if width > rlnc.InlineCoeffs {
		return &Message{Type: typ, From: from, To: to, Seg: seg, Block: rlnc.NewBlock(seg, width)}
	}
	o := &struct {
		Message
		block  rlnc.CodedBlock
		coeffs [rlnc.InlineCoeffs]byte
	}{}
	o.block = rlnc.CodedBlock{Seg: seg, Coeffs: o.coeffs[:width:width]}
	o.Message = Message{Type: typ, From: from, To: to, Seg: seg, Block: &o.block}
	return &o.Message
}

// ErrClosed is returned by Send after the transport was closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownNode is returned when sending to a node the transport cannot
// resolve.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrFrameTooLarge is returned by EncodeMessage for a message whose frame
// would exceed maxFrameSize and so would be rejected by every receiver.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// Transport moves messages for one local node. Implementations must be safe
// for concurrent use.
//
// Send is best-effort, mirroring the protocol's tolerance for loss: a
// message may be dropped under backpressure without error. It never
// modifies m. An m already addressed From LocalID() To the destination
// travels as is and is shared with the receiver: neither it nor its block
// may change after the call. Any other m is copied and addressed before
// Send returns, so the caller may reuse it at once; the block it points to
// is still shared, not copied, and must not change. Receive returns the
// incoming channel, closed when the transport shuts down; a message read
// from it is read-only, may be shared with its sender, and is never
// reused by the transport.
type Transport interface {
	LocalID() NodeID
	Send(to NodeID, m *Message) error
	Receive() <-chan *Message
	Close() error
}
