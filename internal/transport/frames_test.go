package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/rlnc"
)

// The frame table pins the wire format byte for byte: one line per message
// shape, "name hex(frame)", the first 19 written by the encoder as it stood
// before the in-place append existed. Regenerate with -update-frames only
// for a deliberate wire change.
var updateFrames = flag.Bool("update-frames", false, "rewrite testdata/frames.golden")

const framesPath = "testdata/frames.golden"

// frameTable lists every message type and every optional field of each.
func frameTable() []struct {
	name string
	msg  *Message
} {
	seg := rlnc.SegmentID{Origin: 0x0102030405060708, Seq: 0x1112131415161718}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	coeffs := func(n int) []byte {
		c := make([]byte, n)
		for i := range c {
			c[i] = byte(0xF0 + i)
		}
		return c
	}
	trace := obs.TraceContext{ID: 0xDEADBEEFCAFEF00D, Hop: 7}
	page := make([]rlnc.SegmentID, DecodedPage)
	for i := range page {
		page[i] = rlnc.SegmentID{Origin: uint64(i + 1), Seq: uint64(i) << 32}
	}
	return []struct {
		name string
		msg  *Message
	}{
		{"block", &Message{Type: MsgBlock, From: 3, To: 1 << 32,
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(8), Payload: payload}}},
		{"block-no-payload", &Message{Type: MsgBlock, From: 3, To: 4,
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(32)}}},
		{"block-traced", &Message{Type: MsgBlock, From: 3, To: 4, Trace: trace,
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(4), Payload: payload[:256]}}},
		{"block-traced-no-payload", &Message{Type: MsgBlock, From: 3, To: 4, Trace: trace,
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(40)}}},
		{"exchange", &Message{Type: MsgExchange, From: 1 << 32, To: 1<<32 + 1,
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(4), Payload: payload[:256]}}},
		{"exchange-traced", &Message{Type: MsgExchange, From: 1 << 32, To: 1<<32 + 1,
			Trace: obs.TraceContext{ID: 1, Hop: 255},
			Block: &rlnc.CodedBlock{Seg: seg, Coeffs: coeffs(4), Payload: payload[:16]}}},
		{"segment-complete", &Message{Type: MsgSegmentComplete, From: 5, To: 6, Seg: seg}},
		{"pull-blind", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9}},
		{"pull-hinted", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9, HasHint: true, Seg: seg}},
		{"pull-inventory", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9, WantInventory: true}},
		{"pull-hinted-inventory", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			HasHint: true, Seg: seg, WantInventory: true}},
		{"pull-hinted-traced", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			HasHint: true, Seg: seg, Trace: trace}},
		{"pull-traced", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9, Trace: trace}},
		{"pull-all", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			HasHint: true, Seg: seg, WantInventory: true, Trace: trace}},
		{"empty", &Message{Type: MsgEmpty, From: 9, To: 1 << 32}},
		{"inventory-empty", &Message{Type: MsgInventory, From: 9, To: 1 << 32}},
		{"inventory", &Message{Type: MsgInventory, From: 9, To: 1 << 32,
			Inventory: []pullsched.InventoryEntry{
				{Seg: seg, Blocks: 4},
				{Seg: rlnc.SegmentID{Origin: 8, Seq: 1}, Blocks: 65535},
				{Seg: rlnc.SegmentID{Origin: 8, Seq: 2}, Blocks: 0},
			}}},
		{"swim", &Message{Type: MsgSwim, From: 3, To: 4, Raw: []byte{1, 1, 0, 0, 0, 7, 0xAB}}},
		{"swim-empty", &Message{Type: MsgSwim, From: 3, To: 4}},
		// The inventory cursor (rows appended by the change that added it;
		// everything above is older and must not move).
		{"pull-cursor", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9, InvCursor: 0x2122232425262728}},
		{"pull-hinted-traced-cursor", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			HasHint: true, Seg: seg, Trace: trace, InvCursor: 1}},
		{"inventory-full-cursor", &Message{Type: MsgInventory, From: 9, To: 1 << 32, InvCursor: 0x2122232425262728,
			Inventory: []pullsched.InventoryEntry{
				{Seg: seg, Blocks: 4},
				{Seg: rlnc.SegmentID{Origin: 8, Seq: 1}, Blocks: 65535},
			}}},
		{"inventory-delta", &Message{Type: MsgInventory, From: 9, To: 1 << 32, InvCursor: 3, InvDelta: true,
			Inventory: []pullsched.InventoryEntry{{Seg: seg, Blocks: 1}}}},
		{"inventory-empty-cursor", &Message{Type: MsgInventory, From: 9, To: 1 << 32, InvCursor: 1}},
		// The decoded list (rows appended by the change that added it).
		{"pull-decoded", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			Decoded: &[]rlnc.SegmentID{seg, {Origin: 8, Seq: 1}}}},
		{"pull-hinted-traced-cursor-decoded", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9,
			HasHint: true, Seg: seg, Trace: trace, InvCursor: 0x2122232425262728,
			Decoded: &[]rlnc.SegmentID{{Origin: 8, Seq: 2}}}},
		{"pull-decoded-full-page", &Message{Type: MsgPullRequest, From: 1 << 32, To: 9, Decoded: &page}},
	}
}

// TestFrameTableUnchanged holds both encoders to the committed bytes.
func TestFrameTableUnchanged(t *testing.T) {
	table := frameTable()
	if *updateFrames {
		var out strings.Builder
		for _, row := range table {
			frame, err := EncodeMessage(row.msg)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			fmt.Fprintf(&out, "%s %s\n", row.name, hex.EncodeToString(frame))
		}
		if err := os.WriteFile(framesPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(framesPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(table) {
		t.Fatalf("%s has %d frames, the table %d", framesPath, len(lines), len(table))
	}
	for i, row := range table {
		name, hexFrame, _ := strings.Cut(lines[i], " ")
		want, err := hex.DecodeString(hexFrame)
		if err != nil || name != row.name {
			t.Fatalf("line %d: %q (%v), want frame %q", i+1, name, err, row.name)
		}
		got, err := EncodeMessage(row.msg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeMessage\n got %x\nwant %x", row.name, got, want)
		}
		checkAppendMatches(t, row.msg, want)
	}
}

// checkAppendMatches holds the in-place encoders to frame, the bytes
// EncodeMessage gave for m: appended to a dirty, non-empty buffer they must
// leave what was there alone and add exactly frame (its body, for a
// datagram).
func checkAppendMatches(t *testing.T, m *Message, frame []byte) {
	t.Helper()
	dirty := bytes.Repeat([]byte{0xEE}, 4096)
	buf := dirty[:7:len(dirty)] // spare capacity full of stale bytes
	stale := bytes.Repeat([]byte{0xEE}, 7)
	out, err := appendFrame(buf, m)
	if err != nil {
		t.Fatalf("appendFrame refused what EncodeMessage encoded: %v", err)
	}
	if !bytes.Equal(out[:7], stale) || !bytes.Equal(out[7:], frame) {
		t.Fatalf("appendFrame into a dirty buffer\n got %x\nwant %x", out[7:], frame)
	}
	out, err = appendDatagram(buf, m, 0)
	if err != nil {
		t.Fatalf("appendDatagram refused what EncodeMessage encoded: %v", err)
	}
	if !bytes.Equal(out[:7], stale) || !bytes.Equal(out[7:], frame[4:]) {
		t.Fatalf("appendDatagram into a dirty buffer\n got %x\nwant %x", out[7:], frame[4:])
	}
}

// FuzzAppendFrameMatchesEncode encodes any decodable message both ways,
// with the in-place append into a dirty buffer and with EncodeMessage, and
// requires equal bytes. Seeded with the frame table and the
// FuzzDecodeMessage corpus.
func FuzzAppendFrameMatchesEncode(f *testing.F) {
	for _, row := range frameTable() {
		frame, err := EncodeMessage(row.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzDecodeMessage/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("FuzzDecodeMessage corpus: %d files, %v", len(corpus), err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, entry, _ := strings.Cut(string(data), "\n")
		entry = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(entry), "[]byte("), ")")
		body, err := strconv.Unquote(entry)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeMessage(body)
		if err != nil {
			return
		}
		frame, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("length prefix %d on a body of %d bytes", n, len(frame)-4)
		}
		checkAppendMatches(t, m, frame)
	})
}
