package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// TCPOptions tunes the TCP transport's liveness behavior. The zero value
// selects the defaults documented on each field.
type TCPOptions struct {
	// DialTimeout bounds each outbound connection attempt. Default 1s.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write; a write that exceeds it drops
	// the connection (and the frame) and triggers an asynchronous
	// reconnect. Default 2s.
	WriteTimeout time.Duration
	// OutboxSize bounds the per-destination send queue. When full, the
	// oldest queued message is dropped (the protocol tolerates loss).
	// Default 256.
	OutboxSize int
	// BackoffMin is the first reconnect delay after a dial or write
	// failure. Default 50ms.
	BackoffMin time.Duration
	// BackoffMax caps the exponential reconnect backoff. Default 5s.
	BackoffMax time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.OutboxSize <= 0 {
		o.OutboxSize = 256
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = 5 * time.Second
	}
	return o
}

// tcpReadBuffer is each accepted connection's read-ahead.
const tcpReadBuffer = 4 << 10

// TCPTransport carries protocol frames over TCP connections. Each node
// listens on one address and dials peers from an address book.
//
// Sending never blocks on the network: Send enqueues onto a bounded
// per-destination outbox drained by a dedicated sender goroutine, which
// owns that destination's connection. Dials are bounded by DialTimeout,
// writes by WriteTimeout, and a lost connection is re-dialed with capped
// exponential backoff; messages that arrive while the destination is
// unreachable are dropped, like the loss-tolerant protocol expects. Health
// is tracked in the transport counter vocabulary (see RangeCounters).
type TCPTransport struct {
	routed
	opts     TCPOptions
	listener net.Listener

	// Guarded by mu.
	senders  map[NodeID]*tcpSender
	accepted map[net.Conn]struct{}
}

var _ Transport = (*TCPTransport)(nil)
var _ CounterRanger = (*TCPTransport)(nil)

// ListenTCP starts a transport for id on addr (use ":0" for an ephemeral
// port) with the given address book mapping node IDs to dialable addresses
// and default TCPOptions. The book is copied; add later routes with
// AddRoute.
func ListenTCP(id NodeID, addr string, book map[NodeID]string) (*TCPTransport, error) {
	return ListenTCPOpts(id, addr, book, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with explicit liveness options.
func ListenTCPOpts(id NodeID, addr string, book map[NodeID]string, opts TCPOptions) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		opts:     opts.withDefaults(),
		listener: ln,
		senders:  make(map[NodeID]*tcpSender),
		accepted: make(map[net.Conn]struct{}),
	}
	t.init(id, book)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// OutboxDepth returns the messages queued across all destination outboxes
// and not yet written to the network.
func (t *TCPTransport) OutboxDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := 0
	for _, s := range t.senders {
		depth += len(s.outbox)
	}
	return depth
}

// Send enqueues m for the destination's sender goroutine and returns
// immediately; it never blocks on dialing or writing. Unknown destinations
// and use after Close are reported; everything else is best-effort and
// visible only through the health counters.
func (t *TCPTransport) Send(to NodeID, m *Message) error {
	cp, err := t.stamp(to, m)
	if err != nil {
		return err
	}
	s := t.sender(to)
	if s == nil {
		return ErrClosed
	}
	s.outbox.push(cp, t.counters)
	return nil
}

// sender returns the destination's sender, starting it on first use. It
// returns nil once the transport is closed: a goroutine must not join wg
// after shutdown began waiting on it.
func (t *TCPTransport) sender(to NodeID) *tcpSender {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.senders[to]
	if s == nil && !t.closed {
		s = &tcpSender{t: t, to: to, outbox: make(outbox, t.opts.OutboxSize)}
		t.senders[to] = s
		t.wg.Add(1)
		go s.loop()
	}
	return s
}

// Close shuts the listener, all connections, and all sender goroutines
// down, then closes the inbox once every goroutine has exited.
func (t *TCPTransport) Close() error {
	return t.shutdown(func() {
		t.listener.Close()
		t.mu.Lock()
		defer t.mu.Unlock()
		for conn := range t.accepted {
			conn.Close()
		}
	})
}

// tcpSender owns the connection to one destination and drains its outbox.
type tcpSender struct {
	t      *TCPTransport
	to     NodeID
	outbox outbox
}

// loop dials, writes, and reconnects with capped exponential backoff. A
// destination that is down costs at most one bounded dial per backoff
// window; messages arriving inside the window are dropped and counted.
func (s *tcpSender) loop() {
	defer s.t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	opts := s.t.opts
	backoff := opts.BackoffMin
	var nextDial time.Time
	connectedOnce := false
	var frame []byte // every frame is encoded here, in place
	for {
		select {
		case <-s.t.stop:
			return
		case m := <-s.outbox:
			if conn == nil {
				if !nextDial.IsZero() && time.Now().Before(nextDial) {
					s.t.counters.Add(ctrDropsDown, 1)
					continue
				}
				addr, ok := s.t.lookup(s.to)
				if !ok {
					s.t.counters.Add(ctrDropsDown, 1)
					continue
				}
				c, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
				if err != nil {
					s.t.counters.Add(ctrDialFailures, 1)
					s.t.counters.Add(ctrDropsDown, 1)
					nextDial = time.Now().Add(backoff)
					backoff = minDuration(backoff*2, opts.BackoffMax)
					continue
				}
				conn = c
				backoff = opts.BackoffMin
				nextDial = time.Time{}
				if connectedOnce {
					s.t.counters.Add(ctrReconnects, 1)
				}
				connectedOnce = true
			}
			if cap(frame) > maxRetainedBuf {
				frame = nil // one huge frame must not pin its buffer
			}
			var err error
			if frame, err = appendFrame(frame[:0], m); err != nil {
				// Malformed message: drop it, keep the connection.
				s.t.counters.Add(ctrWriteErrors, 1)
				continue
			}
			conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)) //nolint:errcheck
			if _, err := conn.Write(frame); err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.t.counters.Add(ctrWriteTimeouts, 1)
				} else {
					s.t.counters.Add(ctrWriteErrors, 1)
				}
				conn.Close()
				conn = nil
				nextDial = time.Now().Add(backoff)
				backoff = minDuration(backoff*2, opts.BackoffMax)
				continue
			}
			s.t.counters.Add(ctrFramesDelivered, 1)
		}
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	// One read syscall can carry several small frames. The buffer is per
	// connection and a cluster has peers² of those, so it stays small; a
	// body larger than it is read straight into the frame buffer.
	r := bufio.NewReaderSize(conn, tcpReadBuffer)
	var buf []byte
	for {
		var m *Message
		var err error
		if m, buf, err = readFrame(r, buf); err != nil {
			return
		}
		if t.deliver(m) == deliverGone {
			return
		}
	}
}
