package live

import (
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// The inventory-cursor tests drive a server by hand: PullRate 0 starts the
// receive loop only, and each test calls pull() itself, so "the next pull"
// and "within three pulls" are exact.

// sendTap records every message an endpoint sends.
type sendTap struct {
	transport.Transport
	mu   sync.Mutex
	sent []transport.Message
}

func (t *sendTap) Send(to transport.NodeID, m *transport.Message) error {
	t.mu.Lock()
	t.sent = append(t.sent, *m)
	t.mu.Unlock()
	return t.Transport.Send(to, m)
}

// pulls returns the pull requests sent so far.
func (t *sendTap) pulls() []transport.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []transport.Message
	for _, m := range t.sent {
		if m.Type == transport.MsgPullRequest {
			out = append(out, m)
		}
	}
	return out
}

// digestRecorder is a rarest policy that also keeps, per peer, the digest
// its driver has delivered: lines add up, an empty call clears.
type digestRecorder struct {
	pullsched.Policy
	lines map[pullsched.PeerRef]map[rlnc.SegmentID]bool
}

// newDigestRecorder wraps a rarest policy whose full refresh comes every
// refresh seconds; tests that must not see one pass an hour.
func newDigestRecorder(refresh float64) *digestRecorder {
	return &digestRecorder{
		Policy: pullsched.NewRarestFirst(pullsched.RarestConfig{Seed: 1, RefreshInterval: refresh}),
		lines:  make(map[pullsched.PeerRef]map[rlnc.SegmentID]bool),
	}
}

func (p *digestRecorder) ObserveInventory(now float64, peer pullsched.PeerRef, inv []pullsched.InventoryEntry) {
	if len(inv) == 0 {
		delete(p.lines, peer)
	} else if p.lines[peer] == nil {
		p.lines[peer] = make(map[rlnc.SegmentID]bool)
	}
	for _, e := range inv {
		p.lines[peer][e.Seg] = true
	}
	p.Policy.ObserveInventory(now, peer, inv)
}

// handPulledServer starts a server over a tap with no pull loop.
func handPulledServer(t *testing.T, net *transport.Network, policy pullsched.Policy, peers ...transport.NodeID) (*Server, *sendTap) {
	t.Helper()
	tap := &sendTap{Transport: net.Join(serverIDBase)}
	srv, err := NewServer(tap, ServerConfig{Peers: peers, SegmentSize: 4, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, tap
}

// pullOnce issues one pull and waits up to patience for its reply to be
// handled, reporting whether it was (a lossy link may eat it).
func pullOnce(srv *Server, patience time.Duration) bool {
	replies := func() int64 {
		st := srv.Stats()
		return st.BlocksReceived + st.EmptyReplies
	}
	before := replies()
	srv.pull()
	for deadline := time.Now().Add(patience); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if replies() > before {
			return true
		}
	}
	return false
}

// invCursor reads the inventory cursor the server holds for a peer, 0 when
// it keeps no record of the peer. Callers hold srv.mu.
func invCursor(srv *Server, peer transport.NodeID) uint64 {
	if pp := srv.pulls[peer]; pp != nil {
		return pp.cursor
	}
	return 0
}

func mustPull(t *testing.T, srv *Server) {
	t.Helper()
	if !pullOnce(srv, 5*time.Second) {
		t.Fatal("pull went unanswered")
	}
}

func inventoryCounters(srv *Server) (full, delta int64) {
	p := srv.Stats().Protocol
	return p["inventoryFull"], p["inventoryDelta"]
}

// bufferSegment hands the node one block of seg through its receive path
// and waits until it buffers total segments.
func bufferSegment(t *testing.T, node *Node, probe transport.Transport, seg rlnc.SegmentID, total int) {
	t.Helper()
	cb := &rlnc.CodedBlock{Seg: seg, Coeffs: []byte{1, 2, 3, 4}, Payload: make([]byte, node.cfg.BlockSize)}
	if err := probe.Send(node.ID(), &transport.Message{Type: transport.MsgBlock, Block: cb}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the node to buffer the segment", func() bool { return node.Stats().BufferedSegments == total })
}

// TestIdlePeerIsAskedForOneDigest: an empty digest is a digest. Ten pulls to
// an idle peer inside one refresh interval request one, and since that one
// handed the server the peer's cursor, the first segment the peer then
// buffers is news on the next pull and hinted on the one after.
func TestIdlePeerIsAskedForOneDigest(t *testing.T) {
	net := transport.NewNetwork()
	node := startIdleNode(t, net, 1)
	srv, tap := handPulledServer(t, net, newDigestRecorder(3600), 1)

	for i := 0; i < 10; i++ {
		mustPull(t, srv)
		if i == 0 {
			waitFor(t, 5*time.Second, "the first digest", func() bool { full, _ := inventoryCounters(srv); return full == 1 })
		}
	}
	asked := 0
	for _, m := range tap.pulls() {
		if m.WantInventory {
			asked++
		}
	}
	if full, _ := inventoryCounters(srv); asked != 1 || full != 1 {
		t.Fatalf("ten pulls to an idle peer asked for %d digests and got %d, want 1 and 1", asked, full)
	}
	if st := srv.Stats(); st.EmptyReplies != 10 {
		t.Fatalf("%d empty replies, want 10", st.EmptyReplies)
	}

	fresh := rlnc.SegmentID{Origin: 5, Seq: 1}
	bufferSegment(t, node, net.Join(77), fresh, 1)
	mustPull(t, srv)
	waitFor(t, 5*time.Second, "the delta", func() bool { _, delta := inventoryCounters(srv); return delta == 1 })
	srv.pull()
	pulls := tap.pulls()
	if news, hinted := pulls[10], pulls[11]; news.InvCursor != 1 || news.WantInventory || !hinted.HasHint || hinted.Seg != fresh {
		t.Fatalf("pull 11 = %+v, pull 12 = %+v; want cursor 1, then a hint for %v", news, hinted, fresh)
	}
}

// TestRarestHintsFreshSegmentWithinThreePulls: with a digest that is fresh
// and a buffer full of segments the policy has given up on, a newly
// buffered segment is hinted within three pulls to its holder. Without the
// cursor the server would not hear of it before the next full refresh,
// here an hour away.
func TestRarestHintsFreshSegmentWithinThreePulls(t *testing.T) {
	const decoys = 30
	net := transport.NewNetwork()
	node := startIdleNode(t, net, 1)
	probe := net.Join(77)
	for i := 0; i < decoys; i++ {
		bufferSegment(t, node, probe, rlnc.SegmentID{Origin: 6, Seq: uint64(i)}, i+1)
	}
	srv, tap := handPulledServer(t, net, newDigestRecorder(3600), 1)

	// One block of each decoy is all the node has: the first pull of a
	// decoy is useful, the second is not and strikes its line. Pull until
	// the policy has nothing left to hint.
	exhausted := func() bool {
		pulls := tap.pulls()
		last := pulls[len(pulls)-1]
		return !last.HasHint && !last.WantInventory
	}
	for i := 0; i == 0 || !exhausted(); i++ {
		if i > 2*decoys+5 {
			t.Fatalf("policy still hinting after %d pulls", i)
		}
		mustPull(t, srv)
		if i == 0 {
			waitFor(t, 5*time.Second, "the first digest", func() bool { full, _ := inventoryCounters(srv); return full == 1 })
		}
	}

	fresh := rlnc.SegmentID{Origin: 5, Seq: 1}
	bufferSegment(t, node, probe, fresh, decoys+1)
	before := len(tap.pulls())
	for i := 0; i < 3; i++ {
		mustPull(t, srv)
	}
	for _, m := range tap.pulls()[before:] {
		if m.HasHint && m.Seg == fresh {
			return
		}
	}
	t.Fatalf("fresh segment not hinted within three pulls: %+v", tap.pulls()[before:])
}

// TestLostDeltaArrivesOnALaterPull: with 30% loss from the peer to the
// server, the cursor the server holds never runs ahead of what it has
// been told. Every holding the peer opened up to that cursor is in the
// delivered digest, after every pull, and each fresh segment does arrive.
func TestLostDeltaArrivesOnALaterPull(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda, cfg.Mu, cfg.Gamma = 0, 0, 0.001
	lossy := transport.NewFaulty(net.Join(1), transport.FaultConfig{LossProb: 0.3}, randx.New(7))
	node, err := NewNode(lossy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	probe := net.Join(77)
	rec := newDigestRecorder(3600)
	srv, tap := handPulledServer(t, net, rec, 1)

	// told reports whether the policy has been told of seg, after checking
	// the invariant: nothing at or below the server's cursor is missing.
	told := func(seg rlnc.SegmentID) bool {
		srv.mu.Lock()
		cursor := invCursor(srv, 1)
		known := make(map[rlnc.SegmentID]bool, len(rec.lines[1]))
		for s := range rec.lines[1] {
			known[s] = true
		}
		srv.mu.Unlock()
		node.mu.Lock()
		all, _, _ := node.core.InventorySince(0)
		after, _, _ := node.core.InventorySince(cursor)
		node.mu.Unlock()
		if cursor != 0 {
			for _, e := range all[:len(all)-len(after)] { // arrival order: nothing was ever dropped
				if !known[e.Seg] {
					t.Fatalf("server holds cursor %d but was never told of %v", cursor, e.Seg)
				}
			}
		}
		return known[seg]
	}

	for k := 0; k < 8; k++ {
		seg := rlnc.SegmentID{Origin: 5, Seq: uint64(k)}
		bufferSegment(t, node, probe, seg, k+1)
		for pulls := 0; !told(seg); pulls++ {
			if pulls == 60 {
				t.Fatalf("segment %d never reached the policy", k)
			}
			pullOnce(srv, 20*time.Millisecond)
		}
	}
	_, deltas := inventoryCounters(srv)
	asking := 0
	for _, m := range tap.pulls() {
		if m.InvCursor != 0 {
			asking++
		}
	}
	if drops := node.Stats().Protocol["transportFaultLossDrops"]; drops == 0 || deltas == 0 {
		t.Fatalf("%d messages lost, %d deltas received: the test exercised neither", drops, deltas)
	}
	t.Logf("%d pulls carried a cursor, %d deltas arrived, %d node messages lost", asking, deltas,
		node.Stats().Protocol["transportFaultLossDrops"])
}

// TestReplacedPeerIsAnsweredInFull: a peer replaced under its old identity
// counts its holdings from 1 again. While the server's cursor is ahead of
// that count the peer answers in full, which replaces the predecessor's
// digest at once; once the count has passed the cursor a delta tells only
// part, and the periodic full refresh makes the view whole.
func TestReplacedPeerIsAnsweredInFull(t *testing.T) {
	for _, tc := range []struct {
		name      string
		successor int // segments the replacement buffers; the predecessor had 3
	}{
		{"count behind the cursor", 2},
		{"count past the cursor", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const refresh = 0.3
			net := transport.NewNetwork()
			probe := net.Join(77)
			old := startIdleNode(t, net, 1)
			for i := 0; i < 3; i++ {
				bufferSegment(t, old, probe, rlnc.SegmentID{Origin: 6, Seq: uint64(i)}, i+1)
			}
			rec := newDigestRecorder(refresh)
			srv, _ := handPulledServer(t, net, rec, 1)
			mustPull(t, srv)
			waitFor(t, 5*time.Second, "the predecessor's digest", func() bool { full, _ := inventoryCounters(srv); return full == 1 })
			old.Stop()

			node := startIdleNode(t, net, 1)
			want := make(map[rlnc.SegmentID]bool)
			for i := 0; i < tc.successor; i++ {
				seg := rlnc.SegmentID{Origin: 7, Seq: uint64(i)}
				bufferSegment(t, node, probe, seg, i+1)
				want[seg] = true
			}
			whole := func() bool {
				srv.mu.Lock()
				defer srv.mu.Unlock()
				if len(rec.lines[1]) != len(want) || invCursor(srv, 1) != uint64(tc.successor+1) {
					return false
				}
				for seg := range want {
					if !rec.lines[1][seg] {
						return false
					}
				}
				return true
			}
			start := time.Now()
			mustPull(t, srv)
			if tc.successor < 3 {
				// Cursor 4 against a count of 3: the very first answer is full.
				waitFor(t, 5*time.Second, "the successor's full digest", whole)
				return
			}
			for !whole() {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("server's view of the replaced peer still partial: %v", rec.lines[1])
				}
				time.Sleep(20 * time.Millisecond)
				mustPull(t, srv)
			}
		})
	}
}

// TestDigestlessPoliciesNeverSeeTheCursor: a blind server never asks for a
// digest, so it is never handed a cursor, never sends one, never hints and
// never receives a MsgInventory.
func TestDigestlessPoliciesNeverSeeTheCursor(t *testing.T) {
	name := pullsched.NameBlind
	t.Run(name, func(t *testing.T) {
		net := transport.NewNetwork()
		for id := transport.NodeID(1); id <= 2; id++ {
			cfg := fastNodeConfig()
			cfg.Neighbors = []transport.NodeID{3 - id}
			cfg.Seed = int64(id)
			node, err := NewNode(net.Join(id), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(node.Stop)
		}
		policy, err := pullsched.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		tap := &sendTap{Transport: net.Join(serverIDBase)}
		srv, err := NewServer(tap, ServerConfig{PullRate: 400, Peers: []transport.NodeID{1, 2}, SegmentSize: 4, Policy: policy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "200 pulled blocks", func() bool { return srv.Stats().BlocksReceived >= 200 })
		srv.Stop()
		for _, m := range tap.pulls() {
			if m.InvCursor != 0 || m.WantInventory || m.HasHint {
				t.Fatalf("%s server sent %+v", name, m)
			}
		}
		if full, delta := inventoryCounters(srv); full != 0 || delta != 0 {
			t.Fatalf("%s server received %d full digests and %d deltas", name, full, delta)
		}
	})
}
