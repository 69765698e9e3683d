package transport

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

func sampleBlockMessage() *Message {
	return &Message{
		Type: MsgBlock,
		From: 3,
		To:   7,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 3, Seq: 42},
			Coeffs:  []byte{1, 0, 2, 255},
			Payload: []byte("vital statistics"),
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  *Message
	}{
		{"block", sampleBlockMessage()},
		{"block no payload", &Message{
			Type:  MsgBlock,
			From:  1,
			To:    2,
			Block: &rlnc.CodedBlock{Seg: rlnc.SegmentID{Origin: 1, Seq: 1}, Coeffs: []byte{9}},
		}},
		{"segment complete", &Message{Type: MsgSegmentComplete, From: 5, To: 6, Seg: rlnc.SegmentID{Origin: 5, Seq: 10}}},
		{"pull request", &Message{Type: MsgPullRequest, From: 100, To: 4}},
		{"hinted pull", &Message{
			Type: MsgPullRequest, From: 100, To: 4,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 2, Seq: 7}, WantInventory: true,
		}},
		{"pull with cursor", &Message{Type: MsgPullRequest, From: 100, To: 4, InvCursor: 1}},
		{"hinted pull with cursor", &Message{
			Type: MsgPullRequest, From: 100, To: 4,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 2, Seq: 7}, InvCursor: 1 << 40,
		}},
		{"empty", &Message{Type: MsgEmpty, From: 4, To: 100}},
		{"inventory", &Message{
			Type: MsgInventory, From: 4, To: 100,
			Inventory: []pullsched.InventoryEntry{
				{Seg: rlnc.SegmentID{Origin: 2, Seq: 7}, Blocks: 3},
				{Seg: rlnc.SegmentID{Origin: 9, Seq: 0}, Blocks: 1},
			},
		}},
		{"full inventory with cursor", &Message{
			Type: MsgInventory, From: 4, To: 100, InvCursor: 12,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 2, Seq: 7}, Blocks: 3}},
		}},
		{"empty full inventory with cursor", &Message{Type: MsgInventory, From: 4, To: 100, InvCursor: 1}},
		{"inventory delta", &Message{
			Type: MsgInventory, From: 4, To: 100, InvCursor: 13, InvDelta: true,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 9, Seq: 0}, Blocks: 1}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := EncodeMessage(tt.msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := DecodeMessage(frame[4:])
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.Type != tt.msg.Type || got.From != tt.msg.From || got.To != tt.msg.To {
				t.Errorf("header mismatch: %+v vs %+v", got, tt.msg)
			}
			if tt.msg.Type == MsgSegmentComplete && got.Seg != tt.msg.Seg {
				t.Errorf("Seg = %v, want %v", got.Seg, tt.msg.Seg)
			}
			if got.HasHint != tt.msg.HasHint || got.WantInventory != tt.msg.WantInventory {
				t.Errorf("pull flags mismatch: %+v vs %+v", got, tt.msg)
			}
			if tt.msg.HasHint && got.Seg != tt.msg.Seg {
				t.Errorf("hint Seg = %v, want %v", got.Seg, tt.msg.Seg)
			}
			if !reflect.DeepEqual(got.Inventory, tt.msg.Inventory) {
				t.Errorf("Inventory = %v, want %v", got.Inventory, tt.msg.Inventory)
			}
			if got.InvCursor != tt.msg.InvCursor || got.InvDelta != tt.msg.InvDelta {
				t.Errorf("inventory cursor = %d (delta %v), want %d (delta %v)",
					got.InvCursor, got.InvDelta, tt.msg.InvCursor, tt.msg.InvDelta)
			}
			if tt.msg.Block != nil {
				if got.Block == nil {
					t.Fatal("block lost in transit")
				}
				if got.Block.Seg != tt.msg.Block.Seg ||
					!bytes.Equal(got.Block.Coeffs, tt.msg.Block.Coeffs) ||
					!bytes.Equal(got.Block.Payload, tt.msg.Block.Payload) {
					t.Errorf("block mismatch: %+v vs %+v", got.Block, tt.msg.Block)
				}
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	header := func(typ MsgType) []byte { return append([]byte{byte(typ)}, make([]byte, 16)...) }
	// A one-entry inventory followed by the given bytes.
	inventory := func(suffix ...byte) []byte {
		return append(append(append(header(MsgInventory), 0, 0, 0, 1), make([]byte, inventoryEntryLen)...), suffix...)
	}
	tests := []struct {
		name string
		body []byte
	}{
		{"short", []byte{1, 2}},
		{"unknown type", append([]byte{99}, make([]byte, 16)...)},
		{"truncated block", append([]byte{byte(MsgBlock)}, make([]byte, 16)...)},
		{"pull zero flags", append(append([]byte{byte(MsgPullRequest)}, make([]byte, 16)...), 0x00)},
		{"pull unknown flags", append(append([]byte{byte(MsgPullRequest)}, make([]byte, 16)...), 0x04)},
		{"pull truncated hint", append(append([]byte{byte(MsgPullRequest)}, make([]byte, 16)...), 0x01, 1, 2)},
		{"inventory no count", append([]byte{byte(MsgInventory)}, make([]byte, 16)...)},
		{"inventory short entries", append(append([]byte{byte(MsgInventory)}, make([]byte, 16)...), 0, 0, 0, 2, 1, 2, 3)},
		{"pull unknown flag bit4", append(header(MsgPullRequest), 0x10)}, // bit4 (the decoded list) without its count
		{"pull unknown flag bit5", append(header(MsgPullRequest), 0x20, 0, 1)},
		{"pull decoded count zero", append(header(MsgPullRequest), 0x10, 0, 0)},
		{"pull decoded truncated list", append(append(header(MsgPullRequest), 0x10, 0, 2), make([]byte, segmentIDLen+8)...)},
		{"pull decoded count above page", append(append(header(MsgPullRequest), 0x10, byte((DecodedPage+1)>>8), byte(DecodedPage+1)),
			make([]byte, (DecodedPage+1)*segmentIDLen)...)},
		{"pull decoded trailing byte", append(append(header(MsgPullRequest), 0x10, 0, 1), make([]byte, segmentIDLen+1)...)},
		{"pull cursor zero", append(header(MsgPullRequest), 0x08, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"pull cursor truncated", append(header(MsgPullRequest), 0x08, 0, 0, 0, 0, 0, 0, 1)},
		{"pull cursor trailing byte", append(header(MsgPullRequest), 0x08, 0, 0, 0, 0, 0, 0, 0, 1, 0)},
		{"inventory unknown kind", inventory(3, 0, 0, 0, 0, 0, 0, 0, 5)},
		{"inventory kind zero", inventory(0, 0, 0, 0, 0, 0, 0, 0, 5)},
		{"inventory cursor zero", inventory(1, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"inventory suffix truncated", inventory(2, 0, 0, 0, 0, 0, 0, 5)},
		{"inventory suffix trailing byte", inventory(2, 0, 0, 0, 0, 0, 0, 0, 5, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeMessage(tt.body); err == nil {
				t.Error("garbage decoded without error")
			}
		})
	}
}

// TestBlindPullEncodingUnchanged pins the wire-compatibility contract: a
// pull without hint or inventory request must encode to the pre-scheduling
// empty payload, byte for byte.
func TestBlindPullEncodingUnchanged(t *testing.T) {
	frame, err := EncodeMessage(&Message{Type: MsgPullRequest, From: 100, To: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 17, // body length: bare header
		byte(MsgPullRequest),
		0, 0, 0, 0, 0, 0, 0, 100, // from
		0, 0, 0, 0, 0, 0, 0, 4, // to
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("blind pull frame = %v, want legacy %v", frame, want)
	}
}

// TestMessageStaysInSizeClass: a decoded or unaddressed message is one
// Message allocation, and NewBlockMessage puts one beside its block, so the
// struct must not outgrow the 128-byte allocation class the cursor field
// filled.
func TestMessageStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 128 {
		t.Fatalf("transport.Message is %d bytes, over the 128-byte size class", size)
	}
}

// TestFullDecodedPageFitsDatagram: a pull carrying a full page of decoded
// segments with every other field set still fits the UDP transport's
// default datagram, so a page is never dropped as oversize, and one segment
// more is refused by the encoder before it reaches the wire.
func TestFullDecodedPageFitsDatagram(t *testing.T) {
	page := make([]rlnc.SegmentID, DecodedPage)
	for i := range page {
		page[i] = rlnc.SegmentID{Origin: ^uint64(0), Seq: uint64(i)}
	}
	m := &Message{
		Type: MsgPullRequest, From: 1 << 40, To: 1 << 41,
		HasHint: true, Seg: rlnc.SegmentID{Origin: 1, Seq: 2}, WantInventory: true,
		InvCursor: 5, Decoded: &page,
	}
	limit := UDPOptions{}.withDefaults().MaxDatagram
	dg, err := EncodeDatagram(m, limit)
	if err != nil {
		t.Fatalf("a full page with every field set does not fit %d bytes: %v", limit, err)
	}
	got, err := DecodeDatagram(dg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DecodedList(), page) || got.InvCursor != 5 || !got.HasHint {
		t.Fatalf("full page round trip changed the message: %+v", got)
	}
	over := append(page, rlnc.SegmentID{})
	m.Decoded = &over
	if _, err := EncodeMessage(m); err == nil {
		t.Fatalf("a list of %d segments encoded, over the page of %d", len(over), DecodedPage)
	}
}

func TestEncodeRejectsDeltaWithoutCursor(t *testing.T) {
	if _, err := EncodeMessage(&Message{Type: MsgInventory, From: 1, To: 2, InvDelta: true}); err == nil {
		t.Fatal("an inventory delta with no cursor encoded without error")
	}
}

func TestEncodeRejectsOversizeInventoryCount(t *testing.T) {
	m := &Message{
		Type: MsgInventory, From: 1, To: 2,
		Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 1, Seq: 1}, Blocks: 1 << 16}},
	}
	if _, err := EncodeMessage(m); err == nil {
		t.Fatal("inventory entry beyond u16 encoded without error")
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(origin, seq uint64, coeffs, payload []byte) bool {
		if len(coeffs) == 0 {
			coeffs = []byte{1}
		}
		m := &Message{
			Type: MsgBlock,
			From: NodeID(origin),
			To:   NodeID(seq),
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: origin, Seq: seq},
				Coeffs:  coeffs,
				Payload: payload,
			},
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return got.Block.Seg == m.Block.Seg &&
			bytes.Equal(got.Block.Coeffs, coeffs) &&
			bytes.Equal(got.Block.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestEncodeRejectsOversizeMessage(t *testing.T) {
	m := &Message{
		Type: MsgBlock, From: 1, To: 2,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 1, Seq: 1},
			Coeffs:  []byte{1},
			Payload: make([]byte, maxFrameSize),
		},
	}
	if _, err := EncodeMessage(m); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// Right at the boundary it must still encode and be accepted back.
	m.Block.Payload = make([]byte, maxFrameSize-(headerLen+8+8+4+1+4))
	frame, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("boundary-size message rejected: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
		t.Errorf("boundary-size frame rejected by receiver: %v", err)
	}
}

func recvWithTimeout(t *testing.T, ch <-chan *Message) *Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
		return nil
	}
}

func TestChanNetworkDropOnBackpressure(t *testing.T) {
	net := NewNetwork()
	a := net.Join(1)
	net.Join(2) // never drained
	for i := 0; i < defaultInboxSize+10; i++ {
		if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if net.Drops(2) != 10 {
		t.Errorf("Drops = %d, want 10", net.Drops(2))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddRoute(2, b.Addr())
	b.AddRoute(1, a.Addr())

	if err := a.Send(2, sampleBlockMessage()); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := recvWithTimeout(t, b.Receive())
	if got.From != 1 || got.Block == nil || got.Block.Seg.Seq != 42 {
		t.Errorf("bad delivery: %+v", got)
	}
	// And back the other way.
	if err := b.Send(1, &Message{Type: MsgPullRequest}); err != nil {
		t.Fatalf("Send back: %v", err)
	}
	reply := recvWithTimeout(t, a.Receive())
	if reply.Type != MsgPullRequest || reply.From != 2 {
		t.Errorf("bad reply: %+v", reply)
	}
}

func TestTCPSendToDownNodeDrops(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[NodeID]string{2: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
		t.Errorf("send to down node: %v, want silent drop", err)
	}
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[NodeID]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			b.Send(1, &Message{
				Type: MsgSegmentComplete,
				Seg:  rlnc.SegmentID{Origin: 2, Seq: uint64(i)},
			})
		}
	}()
	for i := 0; i < n; i++ {
		m := recvWithTimeout(t, a.Receive())
		if m.Seg.Seq != uint64(i) {
			t.Fatalf("message %d arrived with seq %d (single-conn TCP must preserve order)", i, m.Seg.Seq)
		}
	}
}
