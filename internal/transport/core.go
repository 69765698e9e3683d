package transport

import (
	"fmt"
	"sync"

	"p2pcollect/internal/obs"
)

// defaultInboxSize buffers inbound bursts. Overflow drops the message (the
// protocol tolerates loss), counted as transportInboxDrops.
const defaultInboxSize = 256

// core is what every concrete transport is built on: the endpoint's
// identity, inbox, health counters, closed/stop state, address book and the
// Send prologue. The TCP, UDP and in-memory transports embed it and add
// only what moves bytes: sockets, connections, the shared fabric.
type core struct {
	id       NodeID
	inbox    chan *Message
	counters *obs.CounterSet
	stop     chan struct{} // closed by shutdown, before the inbox
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// book maps node IDs to dialable addresses. Only a routed transport has
	// one; it lives here so stamp checks it under the lock it already holds.
	// With a nil book the fabric resolves destinations and stamp admits all.
	book map[NodeID]string
}

// routed is a core with an address book: what the socket transports embed.
type routed struct{ core }

// init prepares the core for id and installs a copy of book.
func (r *routed) init(id NodeID, book map[NodeID]string) {
	r.core.init(id)
	r.book = make(map[NodeID]string, len(book))
	for k, v := range book {
		r.book[k] = v
	}
}

// AddRoute registers or replaces the dialable address for a node; the
// next dial or datagram toward it uses the new address.
func (r *routed) AddRoute(id NodeID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.book[id] = addr
}

// lookup resolves the current book entry for a destination.
func (r *routed) lookup(to NodeID) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.book[to]
	return addr, ok
}

// init prepares the core for id.
func (c *core) init(id NodeID) {
	c.id = id
	c.inbox = make(chan *Message, defaultInboxSize)
	c.counters = newTransportCounters()
	c.stop = make(chan struct{})
}

// LocalID returns the node this transport serves.
func (c *core) LocalID() NodeID { return c.id }

// Receive returns the incoming message channel. It is closed on Close.
func (c *core) Receive() <-chan *Message { return c.inbox }

// RangeCounters visits the health counters without allocating.
func (c *core) RangeCounters(f func(name string, v int64)) { c.counters.Range(f) }

// stamp is the Send prologue: it refuses a closed transport (ErrClosed) and
// a destination missing from the book (ErrUnknownNode), then returns the
// message to enqueue or deliver, counted as enqueued. A message its sender
// already addressed From this node To the destination is that message; any
// other is a copy addressed so. The caller's message is never modified.
func (c *core) stamp(to NodeID, m *Message) (*Message, error) {
	c.mu.Lock()
	closed := c.closed
	_, known := c.book[to]
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !known && c.book != nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	c.counters.Add(ctrSendsEnqueued, 1)
	if m.From == c.id && m.To == to {
		return m, nil
	}
	cp := *m
	cp.From = c.id
	cp.To = to
	return &cp, nil
}

// Outcomes of core.deliver.
const (
	deliverOK      = iota
	deliverDropped // inbox full; counted
	deliverGone    // transport shut down
)

// deliver hands an inbound message to the inbox without ever blocking: a
// full inbox drops it (transportInboxDrops), a shut-down transport refuses
// it. Callers must have finished by the time shutdown closes the inbox —
// reader goroutines by being waited for, the in-memory fabric by its lock.
func (c *core) deliver(m *Message) int {
	select {
	case <-c.stop:
		return deliverGone
	default:
	}
	select {
	case c.inbox <- m:
		return deliverOK
	default:
		c.counters.Add(ctrInboxDrops, 1)
		return deliverDropped
	}
}

// shutdown is Close for every transport: mark closed, signal stop, let the
// adapter unblock whatever its goroutines are parked on, wait for them, and
// only then close the inbox. Calls after the first are no-ops.
func (c *core) shutdown(unblock func()) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	unblock()
	c.wg.Wait()
	close(c.inbox)
	return nil
}

// outbox is a bounded send queue with drop-oldest backpressure: the protocol
// prefers fresh blocks, so a full queue evicts its head rather than refuse
// the newcomer. Writers receive from the channel directly.
type outbox chan *Message

// push enqueues m, counting each eviction as transportDropsOverflow.
func (o outbox) push(m *Message, counters *obs.CounterSet) {
	for {
		select {
		case o <- m:
			return
		default:
		}
		select {
		case <-o:
			counters.Add(ctrDropsOverflow, 1)
		default:
		}
	}
}
