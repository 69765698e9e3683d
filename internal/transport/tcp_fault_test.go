package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/rlnc"
)

// startBlackhole returns the address of a listener that accepts every
// connection and never reads from it — the classic stalled peer whose full
// TCP window used to block a sender forever.
func startBlackhole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// refusedAddr returns an address where nothing is listening, so dials fail
// fast with connection refused.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// bigBlockMessage is large enough that a few frames overrun any socket
// buffer, forcing the write path (not just the dial path) to hit its
// deadline against a blackholed peer.
func bigBlockMessage() *Message {
	return &Message{
		Type: MsgBlock,
		Block: &rlnc.CodedBlock{
			Seg:     rlnc.SegmentID{Origin: 1, Seq: 1},
			Coeffs:  []byte{1, 2, 3, 4},
			Payload: make([]byte, 256<<10),
		},
	}
}

// TestSendBoundedByDeadlines drives Send against pathological destinations
// and asserts two liveness properties: every Send call returns in far less
// than the configured dial/write deadline (the caller is never coupled to
// the network), and the failure shows up in the right health counter
// within a few deadlines rather than after a kernel connect timeout.
func TestSendBoundedByDeadlines(t *testing.T) {
	opts := TCPOptions{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		OutboxSize:   8,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	}
	tests := []struct {
		name    string
		addr    func(*testing.T) string
		counter string
	}{
		{"connection refused dial", refusedAddr, "transportDialFailures"},
		{"blackhole accepts never reads", startBlackhole, "transportWriteTimeouts"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := ListenTCPOpts(1, "127.0.0.1:0", map[NodeID]string{2: tt.addr(t)}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			msg := bigBlockMessage()
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				start := time.Now()
				if err := tr.Send(2, msg); err != nil {
					t.Fatalf("Send: %v", err)
				}
				if gap := time.Since(start); gap > opts.WriteTimeout {
					t.Fatalf("Send blocked %v, deadline bound is %v", gap, opts.WriteTimeout)
				}
				if counters(tr)[tt.counter] > 0 {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("%s never counted; counters: %v", tt.counter, counters(tr))
		})
	}
}

// TestTCPReconnectAfterPeerRestart loses a peer mid-session and asserts the
// sender reconnects (with its backoff) once the peer is back, counting the
// reconnect.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	opts := TCPOptions{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	}
	b, err := ListenTCPOpts(2, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a, err := ListenTCPOpts(1, "127.0.0.1:0", map[NodeID]string{2: addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(2, &Message{Type: MsgPullRequest}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b.Receive())
	b.Close() // peer crashes

	// Restart the peer on the same address and keep sending until a frame
	// arrives on the new incarnation.
	b2, err := ListenTCPOpts(2, addr, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, &Message{Type: MsgPullRequest}); err != nil {
			t.Fatal(err)
		}
		select {
		case m, ok := <-b2.Receive():
			if !ok {
				t.Fatal("restarted inbox closed")
			}
			if m.Type != MsgPullRequest {
				t.Fatalf("got %v", m.Type)
			}
			if counters(a)["transportReconnects"] == 0 {
				t.Errorf("reconnect not counted: %v", counters(a))
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("never reconnected; counters: %v", counters(a))
}

// TestTCPOutboxDropOldest overfills a sender's outbox while the
// destination is stalled and asserts backpressure evicts the oldest
// messages instead of blocking the caller or growing without bound.
func TestTCPOutboxDropOldest(t *testing.T) {
	opts := TCPOptions{
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		OutboxSize:   4,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	}
	tr, err := ListenTCPOpts(1, "127.0.0.1:0", map[NodeID]string{2: startBlackhole(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	msg := bigBlockMessage()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := tr.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		c := counters(tr)
		if c["transportDropsOverflow"] > 0 || c["transportDropsDown"] > 0 {
			return
		}
	}
	t.Fatalf("no backpressure drops counted: %v", counters(tr))
}
