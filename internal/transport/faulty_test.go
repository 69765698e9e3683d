package transport

import (
	"testing"
	"time"

	"p2pcollect/internal/randx"
)

func TestFaultyTotalLossDropsEverything(t *testing.T) {
	net := NewNetwork()
	a := NewFaulty(net.Join(1), FaultConfig{LossProb: 1}, randx.New(1))
	b := net.Join(2)
	for i := 0; i < 20; i++ {
		if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case m := <-b.Receive():
		t.Fatalf("message survived total loss: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if got := counters(a)["transportFaultLossDrops"]; got != 20 {
		t.Errorf("loss drops = %d, want 20", got)
	}
}

func TestFaultyPartitionWindow(t *testing.T) {
	net := NewNetwork()
	a := NewFaulty(net.Join(1), FaultConfig{
		Partitions: []FaultPartition{{Start: 0, End: 150 * time.Millisecond, Peers: []NodeID{2}}},
	}, randx.New(1))
	b := net.Join(2)
	c := net.Join(3)

	// Inside the window: sends to 2 are dropped, sends to 3 pass.
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(3, &Message{Type: MsgEmpty}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, c.Receive())
	select {
	case <-b.Receive():
		t.Fatal("partitioned message delivered")
	case <-time.After(30 * time.Millisecond):
	}
	if counters(a)["transportFaultPartitionDrops"] != 1 {
		t.Errorf("partition drops = %d, want 1", counters(a)["transportFaultPartitionDrops"])
	}

	// After the window the link heals.
	time.Sleep(150 * time.Millisecond)
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b.Receive())
}

func TestFaultyLatencyDelaysDelivery(t *testing.T) {
	net := NewNetwork()
	const delay = 60 * time.Millisecond
	a := NewFaulty(net.Join(1), FaultConfig{LatencyMin: delay, LatencyMax: delay}, randx.New(1))
	b := net.Join(2)
	start := time.Now()
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b.Receive())
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("delivered after %v, want >= %v", elapsed, delay)
	}
	if counters(a)["transportFaultDelayed"] != 1 {
		t.Errorf("delayed = %d, want 1", counters(a)["transportFaultDelayed"])
	}
}

func TestFaultyCloseWaitsForDelayedSends(t *testing.T) {
	net := NewNetwork()
	a := NewFaulty(net.Join(1), FaultConfig{LatencyMin: 30 * time.Millisecond, LatencyMax: 30 * time.Millisecond}, randx.New(1))
	b := net.Join(2)
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The delayed message was in flight before Close; it must have been
	// flushed, not leaked.
	recvWithTimeout(t, b.Receive())
	if err := a.Send(2, &Message{Type: MsgEmpty}); err != ErrClosed {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

func TestFaultyWrapsTCP(t *testing.T) {
	inner, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := NewFaulty(inner, FaultConfig{}, randx.New(1))
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	inner.AddRoute(2, b.Addr())
	if err := a.Send(2, sampleBlockMessage()); err != nil {
		t.Fatal(err)
	}
	got := recvWithTimeout(t, b.Receive())
	if got.From != 1 || got.Block == nil {
		t.Fatalf("bad delivery through faulty TCP: %+v", got)
	}
	// The merged counter view exposes the inner TCP transport's health.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if counters(a)["transportFramesDelivered"] >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("merged counters missing inner delivery: %v", counters(a))
}
