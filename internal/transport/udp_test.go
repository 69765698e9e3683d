package transport

import (
	"testing"
	"time"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

func TestUDPRoundTrip(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenUDP(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	msg := &Message{
		Type: MsgBlock,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 7, Seq: 42},
			Coeffs:  []byte{1, 2, 3, 4},
			Payload: []byte("hello udp"),
		},
	}
	// UDP is lossy even on loopback under load; retry until delivery.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got, ok := <-b.Receive():
			if !ok {
				t.Fatal("inbox closed")
			}
			if got.From != 1 || got.To != 2 {
				t.Errorf("addressing: from=%d to=%d", got.From, got.To)
			}
			if got.Block == nil || got.Block.Seg.Seq != 42 || string(got.Block.Payload) != "hello udp" {
				t.Errorf("payload lost: %+v", got)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("never delivered; counters: %v", counters(a))
}

// TestUDPTracePreserved asserts the block trace-context suffix survives the
// datagram codec end to end, since obs sampling must work identically over
// UDP and TCP.
func TestUDPTracePreserved(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenUDP(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	msg := &Message{
		Type: MsgBlock,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 1, Seq: 2},
			Coeffs:  []byte{9},
			Payload: []byte("x"),
		},
	}
	msg.Trace.ID = 0xDEADBEEF
	msg.Trace.Hop = 3
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-b.Receive():
			if got.Trace.ID != 0xDEADBEEF || got.Trace.Hop != 3 {
				t.Fatalf("trace context lost: %+v", got.Trace)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("never delivered")
}

// TestUDPOversizeDrop sends a message whose frame exceeds MaxDatagram and
// asserts it is dropped and counted rather than fragmented or delivered.
func TestUDPOversizeDrop(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenUDPOpts(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()}, UDPOptions{MaxDatagram: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	big := &Message{
		Type: MsgBlock,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 1, Seq: 1},
			Coeffs:  []byte{1},
			Payload: make([]byte, 4096),
		},
	}
	if err := a.Send(2, big); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if counters(a)["transportDropsOversize"] > 0 {
			select {
			case m := <-b.Receive():
				t.Fatalf("oversized frame delivered: %+v", m)
			default:
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("oversize drop never counted: %v", counters(a))
}

// TestUDPRouteLearning sends a→b with only a knowing b's address, then
// replies b→a using the return route learned from the inbound datagram's
// source address.
func TestUDPRouteLearning(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenUDP(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	deadline := time.Now().Add(5 * time.Second)
	heard := false
	for time.Now().Before(deadline) {
		if !heard {
			if err := a.Send(2, &Message{Type: MsgPullRequest}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-b.Receive():
				heard = true
			case <-time.After(20 * time.Millisecond):
				continue
			}
		}
		// b never had a book entry for 1; the reply must ride the learned
		// return route.
		if err := b.Send(1, &Message{Type: MsgEmpty}); err != nil {
			t.Fatalf("reply via learned route: %v", err)
		}
		select {
		case got := <-a.Receive():
			if got.Type != MsgEmpty || got.From != 2 {
				t.Fatalf("unexpected reply: %+v", got)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("reply never delivered via learned route")
}

// TestUDPSwimMessage round-trips an opaque MsgSwim payload — the membership
// layer's carrier frame.
func TestUDPSwimMessage(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenUDP(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	raw := []byte{1, 1, 0, 0, 0, 9, 0xAB}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, &Message{Type: MsgSwim, Raw: raw}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-b.Receive():
			if got.Type != MsgSwim || string(got.Raw) != string(raw) {
				t.Fatalf("swim payload mangled: %+v", got)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("swim message never delivered")
}

// TestUDPFaultyComposition wraps UDP in the seeded fault injector and
// asserts total loss counts transport-level drops without any delivery —
// the composition the chaos suite depends on.
func TestUDPFaultyComposition(t *testing.T) {
	b, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inner, err := ListenUDP(1, "127.0.0.1:0", map[NodeID]string{2: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(inner, FaultConfig{LossProb: 1.0}, randx.New(1))
	defer f.Close()

	for i := 0; i < 50; i++ {
		if err := f.Send(2, &Message{Type: MsgPullRequest}); err != nil {
			t.Fatal(err)
		}
	}
	if counters(f)["transportFaultLossDrops"] != 50 {
		t.Fatalf("loss drops: %v", counters(f))
	}
	select {
	case m := <-b.Receive():
		t.Fatalf("message delivered through total loss: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
	// The wrapper must surface the inner UDP transport's queue depth.
	if _, ok := interface{}(f).(DepthReporter); !ok {
		t.Fatal("Faulty over UDP lost DepthReporter")
	}
}

// TestUDPCounterRanger asserts the alloc-free counter walk visits the full
// transport vocabulary.
func TestUDPCounterRanger(t *testing.T) {
	a, err := ListenUDP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	seen := map[string]bool{}
	a.RangeCounters(func(name string, v int64) { seen[name] = true })
	if len(seen) != numTransportCounters {
		t.Fatalf("RangeCounters visited %d of %d counters", len(seen), numTransportCounters)
	}
	if !seen["transportDropsOversize"] {
		t.Fatal("transportDropsOversize missing from counter walk")
	}
}

// BenchmarkUDPSend measures the full Send path — copy, enqueue, encode,
// socket write — against a sink socket that drains and discards.
func BenchmarkUDPSend(b *testing.B) {
	sink, err := ListenUDP(2, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for range sink.Receive() {
		}
	}()
	tr, err := ListenUDPOpts(1, "127.0.0.1:0", map[NodeID]string{2: sink.Addr()}, UDPOptions{OutboxSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	msg := &Message{
		Type: MsgBlock,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 1, Seq: 1},
			Coeffs:  make([]byte, 32),
			Payload: make([]byte, 1024),
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(2, msg); err != nil {
			b.Fatal(err)
		}
	}
}
