package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
)

// UDPOptions tunes the UDP transport. The zero value selects the defaults
// documented on each field.
type UDPOptions struct {
	// MaxDatagram bounds one encoded frame body; messages that would exceed
	// it are dropped and counted (transportDropsOversize) instead of being
	// fragmented by the IP layer, where losing any one fragment loses the
	// whole frame. The protocol tolerates the drop — coded blocks are
	// fungible — so an oversized frame costs a retransmission opportunity,
	// nothing more. Default 1400 (Ethernet MTU minus IP/UDP headers);
	// raise it toward 65507 on loopback or jumbo-frame fabrics.
	MaxDatagram int
	// OutboxSize bounds the send queue drained by the writer goroutine.
	// When full, the oldest queued message is dropped. Default 512.
	OutboxSize int
}

func (o UDPOptions) withDefaults() UDPOptions {
	if o.MaxDatagram <= 0 {
		o.MaxDatagram = defaultMaxDatagram
	}
	if o.MaxDatagram > maxUDPPayload {
		o.MaxDatagram = maxUDPPayload
	}
	if o.OutboxSize <= 0 {
		o.OutboxSize = 512
	}
	return o
}

// defaultMaxDatagram is UDPOptions.MaxDatagram's default: an Ethernet MTU
// minus the IP and UDP headers.
const defaultMaxDatagram = 1400

// maxUDPPayload is the largest payload a UDP datagram can carry (IPv4
// 65535 minus the 20-byte IP and 8-byte UDP headers).
const maxUDPPayload = 65507

// UDPTransport carries protocol frames as fire-and-forget datagrams: one
// message, one datagram, no connection, no retransmission. This matches the
// protocol's loss tolerance — gossip pushes, pull requests, and pull
// replies are all fungible or repeatable — and removes the per-destination
// goroutines and connections that cap the TCP transport's fan-out.
//
// Send never blocks on the network: it enqueues onto one bounded outbox
// drained by a writer goroutine that encodes and sends each datagram. An
// unresolvable or oversized message is dropped and counted. Inbound
// datagrams are decoded and delivered to the inbox, dropping on
// backpressure.
//
// Destinations resolve through an address book (AddRoute), and the
// transport also learns return routes from the source address of every
// valid datagram it receives — so a node reached through a SWIM rumor can
// be answered before any static book entry exists.
type UDPTransport struct {
	routed
	opts   UDPOptions
	conn   *net.UDPConn
	outbox outbox

	// resolved caches each destination's parsed address next to the book
	// entry it was parsed from, so a changed entry re-resolves. Guarded by
	// mu.
	resolved map[NodeID]udpRoute
}

// udpRoute is one resolved book entry: the address as the writer hands it
// to the socket, and as the reader compares it with a datagram's source.
type udpRoute struct {
	addr string
	ua   *net.UDPAddr
	ap   netip.AddrPort
}

// unmapped strips the IPv4-in-IPv6 form a dual-stack socket reports, so
// one host compares equal however the address was learned.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

var _ Transport = (*UDPTransport)(nil)
var _ CounterRanger = (*UDPTransport)(nil)
var _ DepthReporter = (*UDPTransport)(nil)

// ListenUDP starts a datagram transport for id on addr (use "127.0.0.1:0"
// for an ephemeral port) with the given address book and default options.
// The book is copied; add later routes with AddRoute or let the transport
// learn them from inbound traffic.
func ListenUDP(id NodeID, addr string, book map[NodeID]string) (*UDPTransport, error) {
	return ListenUDPOpts(id, addr, book, UDPOptions{})
}

// ListenUDPOpts is ListenUDP with explicit options.
func ListenUDPOpts(id NodeID, addr string, book map[NodeID]string, opts UDPOptions) (*UDPTransport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	opts = opts.withDefaults()
	t := &UDPTransport{
		opts:     opts,
		conn:     conn,
		outbox:   make(outbox, opts.OutboxSize),
		resolved: make(map[NodeID]udpRoute),
	}
	t.init(id, book)
	t.wg.Add(2)
	go t.writeLoop()
	go t.readLoop()
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *UDPTransport) Addr() string { return t.conn.LocalAddr().String() }

// OutboxDepth returns the messages queued and not yet written to the
// socket.
func (t *UDPTransport) OutboxDepth() int { return len(t.outbox) }

// Send enqueues m for the writer goroutine and returns immediately. Unknown
// destinations are reported only when no route can ever resolve (not in the
// book and never heard from); everything else is best-effort and visible
// through the health counters.
func (t *UDPTransport) Send(to NodeID, m *Message) error {
	cp, err := t.stamp(to, m)
	if err != nil {
		return err
	}
	t.outbox.push(cp, t.counters)
	return nil
}

// Close shuts the socket and both loops down, then closes the inbox.
func (t *UDPTransport) Close() error {
	return t.shutdown(func() { t.conn.Close() }) // unblocks the read loop
}

// resolve returns the destination's UDP address, parsing its book entry on
// first use and again whenever the entry changed. An unresolvable entry
// costs only the sends toward it.
func (t *UDPTransport) resolve(to NodeID) (*net.UDPAddr, bool) {
	t.mu.Lock()
	addr, ok := t.book[to]
	r := t.resolved[to]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	if r.ua != nil && r.addr == addr {
		return r.ua, true
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, false
	}
	t.mu.Lock()
	t.resolved[to] = udpRoute{addr, ua, unmapped(ua.AddrPort())}
	t.mu.Unlock()
	return ua, true
}

// learnRoute records the source address of a valid inbound datagram as the
// return route to its sender. A changed address (rejoin after restart,
// NAT rebind) replaces the old one, book entry included: the freshest
// observation wins.
func (t *UDPTransport) learnRoute(from NodeID, src netip.AddrPort) {
	if from == t.id || !src.IsValid() {
		return
	}
	src = unmapped(src)
	t.mu.Lock()
	defer t.mu.Unlock()
	// The common case — the sender is where the book already says — must
	// stay a map read and a value compare: no String(), no address
	// allocated, no write.
	if r := t.resolved[from]; r.ua != nil && r.addr == t.book[from] && r.ap == src {
		return
	}
	addr := src.String()
	t.book[from] = addr
	t.resolved[from] = udpRoute{addr, net.UDPAddrFromAddrPort(src), src}
}

func (t *UDPTransport) writeLoop() {
	defer t.wg.Done()
	var buf []byte // every datagram is encoded here, in place
	for {
		select {
		case <-t.stop:
			return
		case m := <-t.outbox:
			var err error
			if buf, err = appendDatagram(buf[:0], m, t.opts.MaxDatagram); err != nil {
				if errors.Is(err, ErrFrameTooLarge) {
					t.counters.Add(ctrDropsOversize, 1)
				} else {
					t.counters.Add(ctrWriteErrors, 1)
				}
				continue
			}
			ua, ok := t.resolve(m.To)
			if !ok {
				t.counters.Add(ctrDropsDown, 1)
				continue
			}
			if _, err := t.conn.WriteToUDP(buf, ua); err != nil {
				t.counters.Add(ctrWriteErrors, 1)
				continue
			}
			t.counters.Add(ctrFramesDelivered, 1)
		}
	}
}

func (t *UDPTransport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, maxUDPPayload)
	for {
		n, src, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		m, err := DecodeDatagram(buf[:n])
		if err != nil {
			continue // corrupt datagram; the protocol tolerates the loss
		}
		t.learnRoute(m.From, src)
		if t.deliver(m) == deliverGone {
			return
		}
	}
}
