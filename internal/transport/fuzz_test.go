package transport

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

// FuzzDecodeMessage hammers the wire parser with arbitrary bytes: it must
// never panic, and every successfully decoded message must re-encode and
// decode to the same value (a round-trip fixed point).
func FuzzDecodeMessage(f *testing.F) {
	// Seed with every valid message shape.
	seeds := []*Message{
		{Type: MsgPullRequest, From: 1, To: 2},
		{Type: MsgPullRequest, From: 1, To: 2, HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3}},
		{Type: MsgPullRequest, From: 1, To: 2, WantInventory: true},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 4}, WantInventory: true,
		},
		{Type: MsgEmpty, From: 2, To: 1},
		{Type: MsgInventory, From: 2, To: 1},
		{
			Type: MsgInventory, From: 2, To: 1,
			Inventory: []pullsched.InventoryEntry{
				{Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, Blocks: 4},
				{Seg: rlnc.SegmentID{Origin: 8, Seq: 1}, Blocks: 65535},
			},
		},
		// Inventory-cursor frames: pulls that carry one, digests that end
		// in one.
		{Type: MsgPullRequest, From: 1, To: 2, InvCursor: 5},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3},
			Trace: obs.TraceContext{ID: 42, Hop: 1}, InvCursor: 1,
		},
		{
			Type: MsgInventory, From: 2, To: 1, InvCursor: 9,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, Blocks: 4}},
		},
		{
			Type: MsgInventory, From: 2, To: 1, InvCursor: 10, InvDelta: true,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 8, Seq: 1}, Blocks: 1}},
		},
		{Type: MsgInventory, From: 2, To: 1, InvCursor: 1},
		// Decoded-list pulls: a list alone, and one behind every other field.
		{Type: MsgPullRequest, From: 1, To: 2, Decoded: &[]rlnc.SegmentID{{Origin: 7, Seq: 3}, {Origin: 8, Seq: 1}}},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, WantInventory: true,
			Trace: obs.TraceContext{ID: 42, Hop: 1}, InvCursor: 1,
			Decoded: &[]rlnc.SegmentID{{Origin: 9, Seq: 9}},
		},
		{Type: MsgSegmentComplete, From: 3, To: 4, Seg: rlnc.SegmentID{Origin: 3, Seq: 9}},
		{
			Type: MsgBlock, From: 5, To: 6,
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: 5, Seq: 1},
				Coeffs:  []byte{1, 2, 3},
				Payload: []byte("payload"),
			},
		},
		{
			Type: MsgExchange, From: 6, To: 5,
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: 9, Seq: 2},
				Coeffs:  []byte{4, 5, 6, 7},
				Payload: []byte("recoded"),
			},
		},
		// Trace-context-bearing frames: block, exchange, pull (hinted and
		// trace-only).
		{
			Type: MsgBlock, From: 5, To: 6,
			Trace: obs.TraceContext{ID: 0xDEADBEEF, Hop: 3},
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: 5, Seq: 1},
				Coeffs:  []byte{1, 2, 3},
				Payload: []byte("payload"),
			},
		},
		{
			Type: MsgExchange, From: 6, To: 5,
			Trace: obs.TraceContext{ID: 1, Hop: 255},
			Block: &rlnc.CodedBlock{
				Seg:    rlnc.SegmentID{Origin: 9, Seq: 2},
				Coeffs: []byte{4, 5, 6, 7},
			},
		},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3},
			Trace: obs.TraceContext{ID: 42, Hop: 1},
		},
		{Type: MsgPullRequest, From: 1, To: 2, Trace: obs.TraceContext{ID: 9, Hop: 0}},
		{Type: MsgSwim, From: 3, To: 4, Raw: []byte{1, 1, 0, 0, 0, 7, 0xAB}},
		{Type: MsgSwim, From: 3, To: 4},
	}
	for _, m := range seeds {
		frame, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	// Truncated and oversized trace suffixes must be rejected, never decode
	// to a half-read context.
	if frame, err := EncodeMessage(seeds[len(seeds)-4]); err == nil {
		f.Add(frame[4 : len(frame)-1])         // truncated trace suffix
		f.Add(append(frame[4:], 0))            // oversized trace suffix
		f.Add(append(frame[4:], frame[4:]...)) // doubled body
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeMessage(body)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(body) > maxFrameSize {
			t.Fatalf("decoder accepted %d-byte body beyond the frame limit", len(body))
		}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		again, err := DecodeMessage(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if again.Type != m.Type || again.From != m.From || again.To != m.To || again.Seg != m.Seg {
			t.Fatalf("round trip changed header: %+v vs %+v", again, m)
		}
		if again.HasHint != m.HasHint || again.WantInventory != m.WantInventory {
			t.Fatalf("round trip changed pull flags: %+v vs %+v", again, m)
		}
		if again.InvCursor != m.InvCursor || again.InvDelta != m.InvDelta {
			t.Fatalf("round trip changed inventory cursor: %+v vs %+v", again, m)
		}
		if again.Trace != m.Trace {
			t.Fatalf("round trip changed trace context: %+v vs %+v", again.Trace, m.Trace)
		}
		if !slices.Equal(again.DecodedList(), m.DecodedList()) {
			t.Fatalf("round trip changed decoded list: %v vs %v", again.DecodedList(), m.DecodedList())
		}
		if len(again.Inventory) != len(m.Inventory) {
			t.Fatalf("round trip changed inventory length: %d vs %d", len(again.Inventory), len(m.Inventory))
		}
		for i := range m.Inventory {
			if again.Inventory[i] != m.Inventory[i] {
				t.Fatalf("round trip changed inventory entry %d: %+v vs %+v", i, again.Inventory[i], m.Inventory[i])
			}
		}
		if !bytes.Equal(again.Raw, m.Raw) {
			t.Fatalf("round trip changed swim payload: %x vs %x", again.Raw, m.Raw)
		}
		if (m.Block == nil) != (again.Block == nil) {
			t.Fatal("round trip changed block presence")
		}
		if m.Block != nil {
			if again.Block.Seg != m.Block.Seg ||
				!bytes.Equal(again.Block.Coeffs, m.Block.Coeffs) ||
				!bytes.Equal(again.Block.Payload, m.Block.Payload) {
				t.Fatal("round trip changed block contents")
			}
		}
	})
}

// FuzzDatagramDecode hammers the datagram entry point — the frame codec as
// a UDP receiver sees it, one body per datagram with no length prefix. It
// must never panic, every accepted datagram must re-encode within the
// receiver's implied size bound, and the round trip must be a fixed point
// including the trace-context suffix and opaque swim payloads.
func FuzzDatagramDecode(f *testing.F) {
	seeds := []*Message{
		{Type: MsgPullRequest, From: 1, To: 2},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3},
			Trace: obs.TraceContext{ID: 42, Hop: 1},
		},
		{Type: MsgEmpty, From: 2, To: 1},
		{Type: MsgSegmentComplete, From: 3, To: 4, Seg: rlnc.SegmentID{Origin: 3, Seq: 9}},
		{
			Type: MsgBlock, From: 5, To: 6,
			Trace: obs.TraceContext{ID: 0xDEADBEEF, Hop: 3},
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: 5, Seq: 1},
				Coeffs:  []byte{1, 2, 3},
				Payload: []byte("payload"),
			},
		},
		{Type: MsgSwim, From: 3, To: 4, Raw: []byte{1, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 7}},
		{
			Type: MsgInventory, From: 2, To: 1,
			Inventory: []pullsched.InventoryEntry{
				{Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, Blocks: 4},
			},
		},
		// Inventory-cursor frames: pulls that carry one, digests that end
		// in one.
		{Type: MsgPullRequest, From: 1, To: 2, InvCursor: 5},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3},
			Trace: obs.TraceContext{ID: 42, Hop: 1}, InvCursor: 1,
		},
		{
			Type: MsgInventory, From: 2, To: 1, InvCursor: 9,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, Blocks: 4}},
		},
		{
			Type: MsgInventory, From: 2, To: 1, InvCursor: 10, InvDelta: true,
			Inventory: []pullsched.InventoryEntry{{Seg: rlnc.SegmentID{Origin: 8, Seq: 1}, Blocks: 1}},
		},
		{Type: MsgInventory, From: 2, To: 1, InvCursor: 1},
		// Decoded-list pulls: a list alone, and one behind every other field.
		{Type: MsgPullRequest, From: 1, To: 2, Decoded: &[]rlnc.SegmentID{{Origin: 7, Seq: 3}, {Origin: 8, Seq: 1}}},
		{
			Type: MsgPullRequest, From: 1, To: 2,
			HasHint: true, Seg: rlnc.SegmentID{Origin: 7, Seq: 3}, WantInventory: true,
			Trace: obs.TraceContext{ID: 42, Hop: 1}, InvCursor: 1,
			Decoded: &[]rlnc.SegmentID{{Origin: 9, Seq: 9}},
		},
	}
	for _, m := range seeds {
		dg, err := EncodeDatagram(m, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dg)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	// Corrupt datagram corners: truncated trace suffix, trailing garbage.
	if dg, err := EncodeDatagram(seeds[4], 0); err == nil {
		f.Add(dg[:len(dg)-1])
		f.Add(append(append([]byte{}, dg...), 0xCC))
	}

	f.Fuzz(func(t *testing.T, dg []byte) {
		m, err := DecodeDatagram(dg)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must re-encode within a bound no smaller than
		// what was received — a decode must never inflate past the MTU class
		// it arrived in.
		out, err := EncodeDatagram(m, len(dg))
		if err != nil {
			t.Fatalf("decoded datagram failed to re-encode in %d bytes: %v (%+v)", len(dg), err, m)
		}
		again, err := DecodeDatagram(out)
		if err != nil {
			t.Fatalf("re-encoded datagram failed to decode: %v", err)
		}
		if again.Type != m.Type || again.From != m.From || again.To != m.To || again.Seg != m.Seg {
			t.Fatalf("round trip changed header: %+v vs %+v", again, m)
		}
		if again.Trace != m.Trace {
			t.Fatalf("round trip changed trace context: %+v vs %+v", again.Trace, m.Trace)
		}
		if again.InvCursor != m.InvCursor || again.InvDelta != m.InvDelta {
			t.Fatalf("round trip changed inventory cursor: %+v vs %+v", again, m)
		}
		if !slices.Equal(again.DecodedList(), m.DecodedList()) {
			t.Fatalf("round trip changed decoded list: %v vs %v", again.DecodedList(), m.DecodedList())
		}
		if !bytes.Equal(again.Raw, m.Raw) {
			t.Fatalf("round trip changed swim payload: %x vs %x", again.Raw, m.Raw)
		}
	})
}

// blockBodyLen is the exact frame body size of a MsgBlock with the given
// field lengths, mirroring the wire layout.
func blockBodyLen(coeffLen, payloadLen int) int {
	return headerLen + 8 + 8 + 4 + coeffLen + 4 + payloadLen
}

// FuzzEncodeSizeBoundary checks the encode/decode size contract from both
// sides of the maxFrameSize boundary: EncodeMessage must reject exactly the
// messages whose body would exceed the limit (instead of producing frames
// every receiver rejects), and everything it does produce must survive
// ReadFrame.
func FuzzEncodeSizeBoundary(f *testing.F) {
	atBoundary := maxFrameSize - blockBodyLen(4, 0) // payload len hitting the limit exactly
	f.Add(uint32(4), uint32(atBoundary))
	f.Add(uint32(4), uint32(atBoundary+1))
	f.Add(uint32(1), uint32(0))
	f.Add(uint32(maxFrameSize), uint32(maxFrameSize))

	f.Fuzz(func(t *testing.T, coeffLen, payloadLen uint32) {
		const span = maxFrameSize + 4096 // keep allocations near the boundary
		coeffLen %= span
		payloadLen %= span
		if coeffLen == 0 {
			coeffLen = 1 // decoder requires coefficients
		}
		m := &Message{
			Type: MsgBlock, From: 1, To: 2,
			Block: &rlnc.CodedBlock{
				Seg:     rlnc.SegmentID{Origin: 1, Seq: 2},
				Coeffs:  make([]byte, coeffLen),
				Payload: make([]byte, payloadLen),
			},
		}
		m.Block.Coeffs[0] = 1
		frame, err := EncodeMessage(m)
		oversize := blockBodyLen(int(coeffLen), int(payloadLen)) > maxFrameSize
		if oversize {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversize body encoded without ErrFrameTooLarge (err=%v)", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("in-bounds body rejected: %v", err)
		}
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("receiver rejected an encoder-approved frame: %v", err)
		}
		if got.Block == nil || len(got.Block.Coeffs) != int(coeffLen) || len(got.Block.Payload) != int(payloadLen) {
			t.Fatalf("size boundary round trip mangled the block")
		}
	})
}
