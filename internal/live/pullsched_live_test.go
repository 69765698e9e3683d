package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// downTransport refuses every send, modeling a transport that is down
// outright (as opposed to transport.Faulty, which models silent loss).
type downTransport struct {
	id   transport.NodeID
	recv chan *transport.Message

	mu       sync.Mutex
	attempts int
	closed   bool
}

func newDownTransport(id transport.NodeID) *downTransport {
	return &downTransport{id: id, recv: make(chan *transport.Message)}
}

func (d *downTransport) LocalID() transport.NodeID { return d.id }

func (d *downTransport) Send(transport.NodeID, *transport.Message) error {
	d.mu.Lock()
	d.attempts++
	d.mu.Unlock()
	return errors.New("down")
}

func (d *downTransport) Receive() <-chan *transport.Message { return d.recv }

func (d *downTransport) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		close(d.recv)
	}
	return nil
}

func (d *downTransport) sendAttempts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attempts
}

// TestPullSentRequiresTransportAccept pins the pull accounting fix: a pull
// the transport refused outright was never in flight, so it must not count
// as sent. Before the fix the server counted EvPullSent unconditionally and
// a down transport produced a healthy-looking pull rate with zero traffic.
func TestPullSentRequiresTransportAccept(t *testing.T) {
	tr := newDownTransport(500)
	srv, err := NewServer(tr, ServerConfig{
		PullRate:    400,
		Peers:       []transport.NodeID{1, 2, 3},
		SegmentSize: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tr.sendAttempts() < 10 {
		time.Sleep(10 * time.Millisecond)
	}
	srv.Stop()
	if got := tr.sendAttempts(); got < 10 {
		t.Fatalf("only %d pull attempts reached the transport", got)
	}
	if got := srv.Stats().PullsSent; got != 0 {
		t.Errorf("PullsSent = %d over a transport that refused every send, want 0", got)
	}
}

// seedNodeSegments hands an empty node one coded block for each given
// segment via its own receive path, waiting until each is buffered.
func seedNodeSegments(t *testing.T, node *Node, probe transport.Transport, segs []rlnc.SegmentID) {
	t.Helper()
	for i, seg := range segs {
		bufferSegment(t, node, probe, seg, i+1)
	}
}

func startIdleNode(t *testing.T, net *transport.Network, id transport.NodeID) *Node {
	t.Helper()
	cfg := fastNodeConfig()
	cfg.Lambda = 0 // no injection: the test controls the buffer contents
	cfg.Mu = 0
	cfg.Gamma = 0.001 // effectively no TTL expiry during the test
	node, err := NewNode(net.Join(id), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// TestNodeServesHintedSegment verifies a pull hint is honored: the node must
// answer with a block of the hinted segment every time it still buffers it,
// never falling back to the random draw.
func TestNodeServesHintedSegment(t *testing.T) {
	net := transport.NewNetwork()
	node := startIdleNode(t, net, 1)
	probe := net.Join(77)
	segA := rlnc.SegmentID{Origin: 5, Seq: 1}
	segB := rlnc.SegmentID{Origin: 6, Seq: 2}
	seedNodeSegments(t, node, probe, []rlnc.SegmentID{segA, segB})

	// With two buffered segments, ten unhinted pulls would pick segB with
	// probability 1-2^-10; hinted pulls must hit segA every time.
	for i := 0; i < 10; i++ {
		if err := probe.Send(1, &transport.Message{Type: transport.MsgPullRequest, HasHint: true, Seg: segA}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-probe.Receive():
			if m.Type != transport.MsgBlock {
				t.Fatalf("pull %d: reply %v, want block", i, m.Type)
			}
			if m.Block.Seg != segA {
				t.Fatalf("pull %d: served segment %v, want hinted %v", i, m.Block.Seg, segA)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pull %d: no reply", i)
		}
	}

	// A hint for a segment the node does not hold degrades to the random
	// draw — the reply is still a block, of whatever is buffered.
	if err := probe.Send(1, &transport.Message{Type: transport.MsgPullRequest, HasHint: true, Seg: rlnc.SegmentID{Origin: 9, Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-probe.Receive():
		if m.Type != transport.MsgBlock {
			t.Fatalf("unheld hint: reply %v, want fallback block", m.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unheld hint: no reply")
	}
}

// TestNodePiggybacksInventory verifies the WantInventory flag: the pull
// reply must be followed by a MsgInventory digest listing every buffered
// segment with its block count.
func TestNodePiggybacksInventory(t *testing.T) {
	net := transport.NewNetwork()
	node := startIdleNode(t, net, 1)
	probe := net.Join(77)
	segA := rlnc.SegmentID{Origin: 5, Seq: 1}
	segB := rlnc.SegmentID{Origin: 6, Seq: 2}
	seedNodeSegments(t, node, probe, []rlnc.SegmentID{segA, segB})

	if err := probe.Send(1, &transport.Message{Type: transport.MsgPullRequest, WantInventory: true}); err != nil {
		t.Fatal(err)
	}
	var block, inv *transport.Message
	for block == nil || inv == nil {
		select {
		case m := <-probe.Receive():
			switch m.Type {
			case transport.MsgBlock:
				block = m
			case transport.MsgInventory:
				inv = m
			default:
				t.Fatalf("unexpected reply %v", m.Type)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out; got block=%v inventory=%v", block != nil, inv != nil)
		}
	}
	if len(inv.Inventory) != 2 {
		t.Fatalf("inventory lists %d segments, want 2", len(inv.Inventory))
	}
	seen := map[rlnc.SegmentID]int{}
	for _, e := range inv.Inventory {
		seen[e.Seg] = e.Blocks
	}
	if seen[segA] != 1 || seen[segB] != 1 {
		t.Errorf("inventory %v, want one block each of %v and %v", seen, segA, segB)
	}
}

// TestClusterPullPolicy exercises a feedback policy end to end in-process:
// a rarest-first cluster must still decode segments, and a bogus policy
// name must be rejected at startup.
func TestClusterPullPolicy(t *testing.T) {
	if _, err := StartCluster(ClusterConfig{
		Peers: 2, Servers: 1, Degree: 1,
		Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1},
		PullPolicy: "bogus", Seed: 1,
	}); err == nil {
		t.Fatal("unknown pull policy accepted")
	}

	cluster, err := StartCluster(ClusterConfig{
		Peers:      8,
		Servers:    2,
		Degree:     3,
		Node:       fastNodeConfig(),
		Server:     ServerConfig{PullRate: 120},
		PullPolicy: "rarest",
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.TotalDecoded() >= 2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("rarest-first cluster decoded %d segments, want >= 2", cluster.TotalDecoded())
}
