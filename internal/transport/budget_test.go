package transport

import (
	"bufio"
	"bytes"
	"net/netip"
	"testing"
	"time"

	"p2pcollect/internal/raceon"
	"p2pcollect/internal/rlnc"
)

// The tests here pin what one message costs on the socket path: what the
// in-place encode and the decode allocate, what the readers keep between
// frames, and that a decoded message owns its bytes.

// block1K is the benchmark workloads' frame: s=8, 1 KiB payload.
func block1K() *Message {
	cb := &rlnc.CodedBlock{
		Seg:     rlnc.SegmentID{Origin: 7, Seq: 99},
		Coeffs:  make([]byte, 8),
		Payload: make([]byte, 1024),
	}
	for i := range cb.Coeffs {
		cb.Coeffs[i] = byte(i + 1)
	}
	for i := range cb.Payload {
		cb.Payload[i] = byte(i)
	}
	return &Message{Type: MsgBlock, From: 1, To: 2, Block: cb}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
}

func TestAppendFrameAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	m := block1K()
	buf, err := appendFrame(nil, m) // warm
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = appendFrame(buf[:0], m) }); n != 0 {
		t.Errorf("appendFrame into a warmed buffer: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = appendDatagram(buf[:0], m, 1400) }); n != 0 {
		t.Errorf("appendDatagram into a warmed buffer: %v allocations, want 0", n)
	}
}

func TestEncodeMessageMakesOneSlice(t *testing.T) {
	skipUnderRace(t)
	for _, row := range frameTable() {
		if n := testing.AllocsPerRun(50, func() { EncodeMessage(row.msg) }); n != 1 { //nolint:errcheck // counted, not used
			t.Errorf("%s: EncodeMessage made %v allocations, want 1", row.name, n)
		}
		if n := testing.AllocsPerRun(50, func() { EncodeDatagram(row.msg, 0) }); n != 1 { //nolint:errcheck // counted, not used
			t.Errorf("%s: EncodeDatagram made %v allocations, want 1", row.name, n)
		}
	}
}

func TestDecodeBlockAllocations(t *testing.T) {
	skipUnderRace(t)
	frame, err := EncodeMessage(block1K())
	if err != nil {
		t.Fatal(err)
	}
	// One object for the message, the block and its coefficients, and the
	// payload.
	if n := testing.AllocsPerRun(200, func() { DecodeMessage(frame[4:]) }); n > 2 { //nolint:errcheck // counted, not used
		t.Errorf("DecodeMessage of a 1 KiB block: %v allocations, want at most 2", n)
	}
}

// TestNewBlockMessageIsOneObject pins the shape a sender builds: message,
// block and coefficients in one allocation up to rlnc.InlineCoeffs (three
// objects above it), addressed, zeroed, with no payload.
func TestNewBlockMessageIsOneObject(t *testing.T) {
	seg := rlnc.SegmentID{Origin: 4, Seq: 2}
	for _, tc := range []struct{ width, allocs int }{{8, 1}, {rlnc.InlineCoeffs, 1}, {rlnc.InlineCoeffs + 1, 3}} {
		m := NewBlockMessage(MsgExchange, 1, 2, seg, tc.width)
		if m.Type != MsgExchange || m.From != 1 || m.To != 2 || m.Seg != seg || m.Block.Seg != seg ||
			len(m.Block.Coeffs) != tc.width || cap(m.Block.Coeffs) != tc.width || m.Block.Payload != nil {
			t.Errorf("width %d: built %+v with block %+v", tc.width, m, m.Block)
		}
		if !bytes.Equal(m.Block.Coeffs, make([]byte, tc.width)) {
			t.Errorf("width %d: coefficients %v, want zeroed", tc.width, m.Block.Coeffs)
		}
		if raceon.Enabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { decodeSink = NewBlockMessage(MsgBlock, 1, 2, seg, tc.width) }); n != float64(tc.allocs) {
			t.Errorf("width %d: %v allocations, want %d", tc.width, n, tc.allocs)
		}
	}
}

// TestDecodedBlockDoesNotAliasInput is what lets a reader reuse its
// buffer: nothing in a decoded message points into the bytes it came from.
func TestDecodedBlockDoesNotAliasInput(t *testing.T) {
	for _, row := range frameTable() {
		frame, err := EncodeMessage(row.msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for i := range frame {
			frame[i] ^= 0xA5
		}
		if want := row.msg.Block; want != nil {
			if !bytes.Equal(got.Block.Coeffs, want.Coeffs) || !bytes.Equal(got.Block.Payload, want.Payload) {
				t.Errorf("%s: decoded block changed with the input buffer", row.name)
			}
			if len(want.Payload) == 0 && got.Block.Payload != nil {
				t.Errorf("%s: empty payload decoded to %v, want nil", row.name, got.Block.Payload)
			}
		}
		if !bytes.Equal(got.Raw, row.msg.Raw) {
			t.Errorf("%s: decoded swim payload changed with the input buffer", row.name)
		}
	}
}

// TestReaderBufferStaysBounded reads a 1 MiB frame and then small ones the
// way a TCP connection's read loop does: the big frame gets a one-off
// buffer, and what the reader keeps stays within maxRetainedBuf.
func TestReaderBufferStaysBounded(t *testing.T) {
	big := block1K()
	big.Block.Payload = make([]byte, 1<<20)
	var stream bytes.Buffer
	for _, m := range []*Message{block1K(), big, block1K(), {Type: MsgEmpty}, block1K()} {
		if err := WriteFrame(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReaderSize(&stream, tcpReadBuffer)
	var buf []byte
	for i, wantPayload := range []int{1024, 1 << 20, 1024, 0, 1024} {
		var m *Message
		var err error
		if m, buf, err = readFrame(r, buf); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if wantPayload > 0 && len(m.Block.Payload) != wantPayload {
			t.Fatalf("frame %d: payload of %d bytes, want %d", i, len(m.Block.Payload), wantPayload)
		}
		if cap(buf) > maxRetainedBuf {
			t.Fatalf("after frame %d the reader retains %d bytes, limit %d", i, cap(buf), maxRetainedBuf)
		}
	}
	if raceon.Enabled {
		return
	}
	// In steady state a frame costs its decode and nothing else.
	frame, _ := EncodeMessage(block1K())
	src := bytes.NewReader(nil)
	n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		r.Reset(src)
		_, buf, _ = readFrame(r, buf)
	})
	if n > 2 {
		t.Errorf("readFrame of a 1 KiB block through a warmed buffer: %v allocations, want at most 2", n)
	}
}

// TestUDPReceiveOfKnownRouteAllocatesNoAddress pins the read loop's
// steady state: a datagram from where the book already points costs its
// decode, no address and no route update.
func TestUDPReceiveOfKnownRouteAllocatesNoAddress(t *testing.T) {
	skipUnderRace(t)
	a, err := ListenUDP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP(2, "127.0.0.1:0", map[NodeID]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddRoute(2, b.Addr())

	src := netip.MustParseAddrPort(a.Addr())
	b.learnRoute(1, src) // a learned route, as after the first datagram
	if n := testing.AllocsPerRun(200, func() { b.learnRoute(1, src) }); n != 0 {
		t.Errorf("learnRoute of a known route: %v allocations, want 0", n)
	}

	// End to end: the addressed copy Send makes of an unaddressed message
	// and the decoded Message are the only two objects a small datagram
	// costs (5 before: two encode slices and a net.UDPAddr on top).
	msg := &Message{Type: MsgEmpty}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	roundTrip := func() {
		a.Send(2, msg) //nolint:errcheck // a lost datagram shows as a timeout
		timeout.Reset(2 * time.Second)
		select {
		case <-b.Receive():
		case <-timeout.C:
			t.Error("datagram lost on loopback")
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(200, roundTrip); n > 2 {
		t.Errorf("one small datagram, send to inbox: %v allocations, want at most 2", n)
	}
}

func BenchmarkAppendFrameBlock1K(b *testing.B) {
	m := block1K()
	buf, _ := appendFrame(nil, m)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendFrame(buf[:0], m)
	}
}

var decodeSink *Message

func BenchmarkDecodeBlock1K(b *testing.B) {
	frame, _ := EncodeMessage(block1K())
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink, _ = DecodeMessage(frame[4:])
	}
}
