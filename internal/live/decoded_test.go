package live

import (
	"slices"
	"testing"
	"time"

	"p2pcollect/internal/fleet"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// The decoded-list tests drive servers by hand, like the inventory-cursor
// tests: PullRate 0 starts the receive loop only, and each test calls
// pull() itself, so "that peer's next pull" is exact.

// decodeAt makes srv decode seg: a probe sends it coded blocks of a
// segment of fastNodeConfig's shape, and decodeAt returns once the server
// has handled them all and decoded one more segment, so no probe block is
// later taken for a peer's answer.
func decodeAt(t *testing.T, srv *Server, probe transport.Transport, seg rlnc.SegmentID) {
	t.Helper()
	rng := randx.New(int64(seg.Origin)<<20 ^ int64(seg.Seq))
	src := make([][]byte, fastNodeConfig().SegmentSize)
	for i := range src {
		src[i] = make([]byte, logdata.RecordSize)
		rng.FillCoefficients(src[i])
	}
	segment, err := rlnc.NewSegment(seg, src)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	const sent = 8
	for i := 0; i < sent; i++ {
		if err := probe.Send(srv.ID(), &transport.Message{Type: transport.MsgBlock, Block: segment.Encode(rng)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "the server to handle the blocks", func() bool {
		return srv.Stats().BlocksReceived == before.BlocksReceived+sent
	})
	if srv.Stats().DecodedSegments != before.DecodedSegments+1 {
		t.Fatalf("%d coded blocks of a %d-block segment did not decode it", sent, len(src))
	}
}

// holds reports whether the node buffers any block of seg.
func holds(node *Node, seg rlnc.SegmentID) bool {
	node.mu.Lock()
	defer node.mu.Unlock()
	return node.core.Holds(seg)
}

// lastPull returns the latest pull request the tap saw.
func lastPull(t *testing.T, tap *sendTap) *transport.Message {
	t.Helper()
	pulls := tap.pulls()
	if len(pulls) == 0 {
		t.Fatal("no pull sent")
	}
	return &pulls[len(pulls)-1]
}

// TestDecodedSegmentLeavesEveryPulledPeer: once the server decodes a
// segment, each peer's next answered pull lists it, and by the time the
// answer is back the peer holds no block of it. Segments the server has not
// decoded stay, and the dropped blocks are counted as purged by feedback.
func TestDecodedSegmentLeavesEveryPulledPeer(t *testing.T) {
	net := transport.NewNetwork()
	probe := net.Join(77)
	peers := []transport.NodeID{1, 2, 3}
	nodes := map[transport.NodeID]*Node{}
	decoded := rlnc.SegmentID{Origin: 9, Seq: 1}
	for _, id := range peers {
		nodes[id] = startIdleNode(t, net, id)
		bufferSegment(t, nodes[id], probe, decoded, 1)
		bufferSegment(t, nodes[id], probe, rlnc.SegmentID{Origin: uint64(id), Seq: 1}, 2)
	}
	srv, tap := handPulledServer(t, net, nil, peers...)
	decodeAt(t, srv, probe, decoded)

	pulled := map[transport.NodeID]bool{}
	for pulls := 0; len(pulled) < len(peers); pulls++ {
		if pulls == 200 {
			t.Fatalf("after 200 pulls only %d of %d peers were pulled", len(pulled), len(peers))
		}
		mustPull(t, srv)
		to := lastPull(t, tap).To
		if pulled[to] {
			continue
		}
		pulled[to] = true
		if !slices.Contains(lastPull(t, tap).DecodedList(), decoded) {
			t.Fatalf("the first pull to peer %d after the decode lists %v, not %v", to, lastPull(t, tap).DecodedList(), decoded)
		}
		node := nodes[to]
		if holds(node, decoded) {
			t.Fatalf("peer %d still buffers the decoded segment after its pull was answered", to)
		}
		if !holds(node, rlnc.SegmentID{Origin: uint64(to), Seq: 1}) {
			t.Fatalf("peer %d dropped a segment the server never decoded", to)
		}
		if got := node.Stats().Protocol[peercore.EvBlockPurged.String()]; got != 1 {
			t.Fatalf("peer %d counts %d blocks purged by feedback, want 1", to, got)
		}
	}
	if got := srv.Stats().Protocol["decodedNotices"]; got < int64(len(peers)) {
		t.Errorf("decodedNotices = %d after listing the segment to %d peers", got, len(peers))
	}
}

// TestLostDecodedListArrivesOnALaterPull: the server's sends cross a lossy
// link, so some pulls carrying a list never arrive. The cursor moves only
// when the peer answers, so every later pull lists the segment again until
// one gets through, and each decoded segment leaves the peer's buffer.
func TestLostDecodedListArrivesOnALaterPull(t *testing.T) {
	net := transport.NewNetwork()
	probe := net.Join(77)
	node := startIdleNode(t, net, 1)
	tap := &sendTap{Transport: transport.NewFaulty(net.Join(serverIDBase), transport.FaultConfig{LossProb: 0.5}, randx.New(11))}
	srv, err := NewServer(tap, ServerConfig{Peers: []transport.NodeID{1}, SegmentSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	lostLists := 0
	for k := 0; k < 8; k++ {
		seg := rlnc.SegmentID{Origin: 5, Seq: uint64(k)}
		bufferSegment(t, node, probe, seg, 1)
		decodeAt(t, srv, probe, seg)
		for pulls := 0; holds(node, seg); pulls++ {
			if pulls == 60 {
				t.Fatalf("segment %d still buffered after 60 pulls", k)
			}
			answered := pullOnce(srv, 20*time.Millisecond)
			listed := slices.Contains(lastPull(t, tap).DecodedList(), seg)
			if !answered && listed {
				lostLists++
			}
			if answered && !listed && holds(node, seg) {
				t.Fatalf("an answered pull did not list segment %d, which the peer still buffers", k)
			}
		}
	}
	if lostLists == 0 {
		t.Fatal("no pull carrying a list was lost: the test exercised nothing")
	}
}

// TestRegossipOfDecodedSegmentIsRefused: a peer told that a segment
// decoded refuses gossip of it afterwards, while other gossip is still
// stored.
func TestRegossipOfDecodedSegmentIsRefused(t *testing.T) {
	net := transport.NewNetwork()
	probe := net.Join(77)
	node := startIdleNode(t, net, 1)
	decoded := rlnc.SegmentID{Origin: 9, Seq: 4}
	bufferSegment(t, node, probe, decoded, 1)
	srv, _ := handPulledServer(t, net, nil, 1)
	decodeAt(t, srv, probe, decoded)
	mustPull(t, srv)
	if holds(node, decoded) {
		t.Fatal("the pull did not purge the decoded segment")
	}

	// The probe's messages arrive in order: once the later segment is
	// buffered, the re-gossiped block has been handled.
	cb := &rlnc.CodedBlock{Seg: decoded, Coeffs: []byte{4, 3, 2, 1}, Payload: make([]byte, node.cfg.BlockSize)}
	if err := probe.Send(node.ID(), &transport.Message{Type: transport.MsgBlock, Block: cb}); err != nil {
		t.Fatal(err)
	}
	bufferSegment(t, node, probe, rlnc.SegmentID{Origin: 9, Seq: 5}, 1)
	if holds(node, decoded) {
		t.Fatal("the node stored gossip of a segment the server listed as decoded")
	}
}

// TestDecodedMemoryStaysAtCap: a node remembers BufferCap listed segments
// however many it is told of, and keeps empty replies for at most
// emptyRepliesCap pullers however many From IDs pull it.
func TestDecodedMemoryStaysAtCap(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	n, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.started = time.Now()
	t.Cleanup(func() { n.tr.Close() })

	// Every pull comes from another From ID and lists a full page of new
	// segments.
	const pullers = 4 * emptyRepliesCap
	var seq uint64
	for i := 0; i < pullers; i++ {
		list := make([]rlnc.SegmentID, transport.DecodedPage)
		for j := range list {
			seq++
			list[j] = rlnc.SegmentID{Origin: 3, Seq: seq}
		}
		n.handle(&transport.Message{Type: transport.MsgPullRequest, From: serverIDBase + transport.NodeID(i), To: 1, Decoded: &list})
	}
	if seq < 10*uint64(cfg.BufferCap) {
		t.Fatalf("flooded %d IDs, want at least ten times the cap %d", seq, cfg.BufferCap)
	}
	if got := n.decoded.Len(); got != cfg.BufferCap {
		t.Errorf("the node remembers %d decoded segments after %d were listed, want its cap %d", got, seq, cfg.BufferCap)
	}
	if !n.decoded.Has(rlnc.SegmentID{Origin: 3, Seq: seq}) {
		t.Error("the newest listed segment is forgotten")
	}
	if got := len(n.empties); got != emptyRepliesCap {
		t.Errorf("the node keeps %d empty replies after %d pullers, want its cap %d", got, pullers, emptyRepliesCap)
	}
}

// TestOtherShardsDecodeIsAnnounced: on a 2-shard fleet a segment the other
// shard decodes reaches this shard's finished set by the completion notice,
// and this shard's next pull lists it to the peer.
func TestOtherShardsDecodeIsAnnounced(t *testing.T) {
	net := transport.NewNetwork()
	probe := net.Join(77)
	node := startIdleNode(t, net, 1)
	ring, err := fleet.NewRing(2, fleet.DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	// A segment shard 1 owns, so shard 1 decodes it alone: no exchange
	// reaches shard 0, only the completion notice.
	seg := rlnc.SegmentID{Origin: 9}
	for ring.Owner(seg) != 1 {
		seg.Seq++
	}
	bufferSegment(t, node, probe, seg, 1)

	shardIDs := map[int]transport.NodeID{0: serverIDBase, 1: serverIDBase + 1}
	var taps [2]*sendTap
	var shards [2]*Server
	for i := range shards {
		taps[i] = &sendTap{Transport: net.Join(shardIDs[i])}
		srv, err := NewServer(taps[i], ServerConfig{
			Peers: []transport.NodeID{1}, SegmentSize: 4, Seed: int64(i + 1),
			Shards: 2, ShardID: i, ShardPeers: shardIDs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		shards[i] = srv
	}
	decodeAt(t, shards[1], probe, seg)
	waitFor(t, 5*time.Second, "shard 0 to hear of the decode", func() bool {
		return shards[0].Stats().Protocol["fleetRemoteFinished"] == 1
	})
	if shards[0].Stats().DecodedSegments != 0 {
		t.Fatal("shard 0 decoded the segment itself")
	}
	mustPull(t, shards[0])
	if list := lastPull(t, taps[0]).DecodedList(); !slices.Equal(list, []rlnc.SegmentID{seg}) {
		t.Fatalf("shard 0's pull lists %v, want the segment shard 1 decoded, %v", list, seg)
	}
	if holds(node, seg) {
		t.Fatal("the peer still buffers the segment after shard 0's pull")
	}
}

// TestFirstCursorStartsOnePageBehind: a peer the server has not pulled
// before is told of the newest page of finished segments, not of the whole
// finished set; once it has answered, a pull with no news is the shared
// blind pull, and the next decode is listed alone.
func TestFirstCursorStartsOnePageBehind(t *testing.T) {
	net := transport.NewNetwork()
	probe := net.Join(77)
	startIdleNode(t, net, 1)
	srv, tap := handPulledServer(t, net, nil, 1)
	const finished = transport.DecodedPage + 10
	srv.mu.Lock()
	for i := uint64(1); i <= finished; i++ {
		srv.svc.FinishRemote(rlnc.SegmentID{Origin: 4, Seq: i})
	}
	srv.mu.Unlock()

	mustPull(t, srv)
	list := lastPull(t, tap).DecodedList()
	if len(list) != transport.DecodedPage || list[0].Seq != finished-transport.DecodedPage+1 || list[len(list)-1].Seq != finished {
		t.Fatalf("first pull lists %d segments from seq %v, want the newest %d (seq %d..%d)",
			len(list), list, transport.DecodedPage, finished-transport.DecodedPage+1, finished)
	}
	mustPull(t, srv)
	if m := lastPull(t, tap); m.Decoded != nil {
		t.Fatalf("a pull with no news lists %v", m.DecodedList())
	}
	srv.mu.Lock()
	blind := srv.pulls[1].blind
	srv.mu.Unlock()
	if blind == nil || blind.Decoded != nil {
		t.Fatal("no listless blind pull kept for the peer")
	}
	next := rlnc.SegmentID{Origin: 4, Seq: finished + 1}
	decodeAt(t, srv, probe, next)
	mustPull(t, srv)
	if list := lastPull(t, tap).DecodedList(); !slices.Equal(list, []rlnc.SegmentID{next}) {
		t.Fatalf("pull after one more decode lists %v, want [%v]", list, next)
	}
}

// TestNodeBlocksConserved: every block a node stores leaves its buffer by
// TTL or by a decoded-list purge, each counted once in the peer core (a
// live node has no departure of its own), so in any one Stats snapshot
// blocksStored − blocksLostToTTL − blocksPurgedByFeedback is what the node
// buffers. The run lasts until both ways out have been taken.
func TestNodeBlocksConserved(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		Peers:   8,
		Servers: 1,
		Degree:  3,
		Node:    fastNodeConfig(),
		Server:  ServerConfig{PullRate: 200},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	waitFor(t, 15*time.Second, "TTL losses and decoded-list purges", func() bool {
		var ttl, purged int64
		for i, node := range cluster.Nodes {
			st := node.Stats()
			get := func(ev peercore.Event) int64 { return st.Protocol[ev.String()] }
			if left := get(peercore.EvBlockStored) - get(peercore.EvBlockLostTTL) - get(peercore.EvBlockPurged); left != int64(st.BufferedBlocks) {
				t.Fatalf("node %d: %d blocks stored and not counted out, %d buffered", i, left, st.BufferedBlocks)
			}
			ttl += get(peercore.EvBlockLostTTL)
			purged += get(peercore.EvBlockPurged)
		}
		return ttl > 0 && purged > 0
	})
}
