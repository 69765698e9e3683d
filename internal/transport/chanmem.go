package transport

import "sync"

// Network is an in-memory message fabric connecting channel transports. It
// is safe for concurrent use.
type Network struct {
	mu        sync.RWMutex
	endpoints map[NodeID]*chanTransport
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{endpoints: make(map[NodeID]*chanTransport)}
}

// Join registers id and returns its transport endpoint. Joining an id twice
// replaces the previous endpoint's mailbox.
func (n *Network) Join(id NodeID) Transport {
	t := &chanTransport{net: n}
	t.init(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[id] = t
	return t
}

// Drops returns how many messages destined to id were discarded because its
// inbox was full.
func (n *Network) Drops(id NodeID) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if t := n.endpoints[id]; t != nil {
		return t.counters.Get(ctrInboxDrops)
	}
	return 0
}

// deliver hands m to its destination's inbox, dropping on backpressure. An
// endpoint that closed stays known — the network silently eats its traffic
// (deliverGone) — while an ID that never joined is ErrUnknownNode. The read
// lock is held across the non-blocking send, which is what lets a closing
// endpoint wait out in-flight deliveries (see chanTransport.Close).
func (n *Network) deliver(m *Message) (int, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	dst, ok := n.endpoints[m.To]
	if !ok {
		return deliverGone, ErrUnknownNode
	}
	return dst.deliver(m), nil
}

// chanTransport is one endpoint of a Network.
type chanTransport struct {
	core
	net *Network
}

var _ Transport = (*chanTransport)(nil)
var _ CounterRanger = (*chanTransport)(nil)

// Send places m, when its sender addressed it, or else an addressed copy,
// in the destination's mailbox. The mailbox is the only queue on this
// fabric, so a full one is counted twice: as the destination's
// transportInboxDrops and as this sender's transportDropsOverflow.
func (t *chanTransport) Send(to NodeID, m *Message) error {
	cp, err := t.stamp(to, m)
	if err != nil {
		return err
	}
	outcome, err := t.net.deliver(cp)
	switch {
	case err != nil:
	case outcome == deliverOK:
		t.counters.Add(ctrFramesDelivered, 1)
	case outcome == deliverDropped:
		t.counters.Add(ctrDropsOverflow, 1)
	default:
		t.counters.Add(ctrDropsDown, 1)
	}
	return err
}

// Close closes the mailbox. Senders deliver under the network's read lock
// and check stop first, so once quiesce has held the write lock no delivery
// is in flight and none can start: the inbox is then safe to close.
func (t *chanTransport) Close() error { return t.shutdown(t.net.quiesce) }

// quiesce returns once every delivery that began before the call is over.
func (n *Network) quiesce() {
	n.mu.Lock()
	defer n.mu.Unlock()
}
