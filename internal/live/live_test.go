package live

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2pcollect/internal/gf256"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// fastNodeConfig uses aggressive per-second rates so tests complete in a
// couple of wall-clock seconds.
func fastNodeConfig() NodeConfig {
	return NodeConfig{
		SegmentSize: 4,
		BlockSize:   logdata.RecordSize,
		Lambda:      40,
		Mu:          60,
		Gamma:       2,
		BufferCap:   256,
	}
}

func TestNodeConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*NodeConfig)
	}{
		{"zero segment", func(c *NodeConfig) { c.SegmentSize = 0 }},
		{"zero block size", func(c *NodeConfig) { c.BlockSize = 0 }},
		{"negative mu", func(c *NodeConfig) { c.Mu = -1 }},
		{"zero gamma", func(c *NodeConfig) { c.Gamma = 0 }},
		{"buffer below segment", func(c *NodeConfig) { c.BufferCap = 2 }},
	}
	net := transport.NewNetwork()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fastNodeConfig()
			tt.mutate(&cfg)
			if _, err := NewNode(net.Join(1), cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestServerConfigValidation(t *testing.T) {
	net := transport.NewNetwork()
	if _, err := NewServer(net.Join(1), ServerConfig{PullRate: 1}); err == nil {
		t.Error("server with no peers accepted")
	}
	if _, err := NewServer(net.Join(1), ServerConfig{PullRate: -1, Peers: []transport.NodeID{2}}); err == nil {
		t.Error("negative pull rate accepted")
	}
}

func TestNodeStartStopIdempotent(t *testing.T) {
	net := transport.NewNetwork()
	n, err := NewNode(net.Join(1), fastNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err == nil {
		t.Error("double start accepted")
	}
	n.Stop()
	n.Stop() // must not panic or hang
}

func TestEndToEndCollection(t *testing.T) {
	// 12 peers, 2 servers, in-memory fabric: the servers must reconstruct
	// real statistics records end to end.
	var mu sync.Mutex
	type decoded struct {
		id     rlnc.SegmentID
		blocks [][]byte
	}
	var got []decoded
	cluster, err := StartCluster(ClusterConfig{
		Peers:   12,
		Servers: 2,
		Degree:  3,
		Node:    fastNodeConfig(),
		Server:  ServerConfig{PullRate: 120},
		Seed:    1,
		OnSegment: func(id rlnc.SegmentID, blocks [][]byte) {
			mu.Lock()
			got = append(got, decoded{id: id, blocks: blocks})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 3 {
		t.Fatalf("decoded %d segments, want >= 3", len(got))
	}
	for _, d := range got {
		if len(d.blocks) != 4 {
			t.Fatalf("segment %v decoded into %d blocks", d.id, len(d.blocks))
		}
		for _, block := range d.blocks {
			records, err := logdata.UnpackRecords(block)
			if err != nil {
				t.Fatalf("segment %v: corrupt records: %v", d.id, err)
			}
			if len(records) != 1 {
				t.Fatalf("segment %v: %d records per block, want 1", d.id, len(records))
			}
			if records[0].PeerID != d.id.Origin {
				t.Errorf("segment %v: record claims peer %d", d.id, records[0].PeerID)
			}
		}
	}
}

func TestSegmentCompleteSuppressesGossip(t *testing.T) {
	// Two nodes: B already full for a segment announces completion; A must
	// stop targeting B for it. We verify the bookkeeping directly.
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda = 0 // manual injection only
	cfg.Neighbors = []transport.NodeID{2}
	a, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()

	seg := rlnc.SegmentID{Origin: 9, Seq: 1}
	bTransport := net.Join(2)
	bTransport.Send(1, &transport.Message{Type: transport.MsgSegmentComplete, Seg: seg})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		_, full := a.fullAt[seg][2]
		a.mu.Unlock()
		if full {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("segment-complete notice never registered")
}

func TestPullAgainstEmptyNode(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda = 0
	node, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	probe := net.Join(77)
	probe.Send(1, &transport.Message{Type: transport.MsgPullRequest})
	select {
	case m := <-probe.Receive():
		if m.Type != transport.MsgEmpty {
			t.Errorf("reply = %v, want MsgEmpty", m.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to pull")
	}
}

func TestTTLExpiryDrainsBuffer(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda = 200 // burst of segments
	cfg.Mu = 0       // no gossip out
	cfg.Gamma = 20   // 50ms mean TTL
	node, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if node.Stats().InjectedBlocks == 0 {
		node.Stop()
		t.Fatal("nothing injected")
	}
	node.Stop()
	stats := node.Stats()
	if stats.BlocksExpired == 0 {
		t.Error("no TTL expiries despite 50ms mean TTL")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := StartCluster(ClusterConfig{Peers: 1, Servers: 1, Degree: 1, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}}); err == nil {
		t.Error("1-peer cluster accepted")
	}
	if _, err := StartCluster(ClusterConfig{Peers: 4, Servers: 0, Degree: 1, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}}); err == nil {
		t.Error("serverless cluster accepted")
	}
	if _, err := StartCluster(ClusterConfig{Peers: 4, Servers: 1, Degree: 9, Node: fastNodeConfig(), Server: ServerConfig{PullRate: 1}}); err == nil {
		t.Error("infeasible degree accepted")
	}
}

func TestNodeGarbageCollectsStaleNotices(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda = 0
	node, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	probe := net.Join(2)
	// Notices for segments the node never buffers must not accumulate.
	for i := 0; i < 50; i++ {
		probe.Send(1, &transport.Message{
			Type: transport.MsgSegmentComplete,
			Seg:  rlnc.SegmentID{Origin: 9, Seq: uint64(i)},
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		node.mu.Lock()
		pending := len(node.fullAt)
		node.mu.Unlock()
		if pending == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	t.Fatalf("stale notices never reaped: %d entries", len(node.fullAt))
}

// TestSegmentCompleteUnmutesAfterExpiry is the regression test for the
// permanent-mute bug: a neighbor's segment-complete notice suppressed
// gossip of that segment toward it forever, even after the neighbor's
// holding drained by TTL. The notice must expire, after which the neighbor
// is a gossip target again.
func TestSegmentCompleteUnmutesAfterExpiry(t *testing.T) {
	net := transport.NewNetwork()
	cfg := fastNodeConfig()
	cfg.Lambda = 0
	cfg.Mu = 0
	cfg.Gamma = 0.05 // ~20s mean TTL: the segment outlives the test
	cfg.NoticeTTL = 0.15
	cfg.Neighbors = []transport.NodeID{2}
	a, err := NewNode(net.Join(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b := net.Join(2)

	a.inject()
	to, msg, ok := a.prepareGossip()
	if !ok || to != 2 || msg.Block == nil {
		t.Fatalf("node with a buffered segment and one neighbor prepared no gossip (to=%d ok=%v)", to, ok)
	}
	seg := msg.Block.Seg

	// The neighbor announces it is full for the segment: muted.
	if err := b.Send(1, &transport.Message{Type: transport.MsgSegmentComplete, Seg: seg}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	muted := false
	for time.Now().Before(deadline) {
		a.mu.Lock()
		_, muted = a.fullAt[seg][2]
		a.mu.Unlock()
		if muted {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !muted {
		t.Fatal("segment-complete notice never registered")
	}
	if _, _, ok := a.prepareGossip(); ok {
		t.Fatal("gossip targeted a neighbor inside its mute window")
	}

	// After the notice expires (a few TTL means in production, 150ms
	// here), the expired-and-refilled neighbor must receive gossip again.
	for time.Now().Before(deadline) {
		if to, _, ok := a.prepareGossip(); ok {
			if to != 2 {
				t.Fatalf("gossip target = %d, want 2", to)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("neighbor never un-muted after the notice expired")
}

// TestNodeDropsMisSizedPayload: a neighbour running another BlockSize
// gossips a block whose payload is longer or shorter than this node's. The
// node must drop it and keep running on the well-formed block of the same
// segment. Accepting the longer one crashed the process at the next recode
// (an index panic in the gossip goroutine); accepting the shorter one
// gossiped blocks whose payloads did not match their coefficients.
func TestNodeDropsMisSizedPayload(t *testing.T) {
	const blockSize = 64
	for _, tc := range []struct {
		name string
		bad  int
	}{{"longer", 2 * blockSize}, {"shorter", blockSize / 2}} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewNetwork()
			cfg := fastNodeConfig()
			cfg.BlockSize = blockSize
			cfg.Lambda = 0   // the probe's two blocks are all the node holds
			cfg.Mu = 400     // gossip every few milliseconds
			cfg.Gamma = 0.05 // ~20s mean TTL: nothing expires during the test
			cfg.Neighbors = []transport.NodeID{2}
			node, err := NewNode(net.Join(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			probe := net.Join(2)

			seg := rlnc.SegmentID{Origin: 9, Seq: 1}
			block := func(i, size int) *rlnc.CodedBlock {
				cb := rlnc.NewBlock(seg, cfg.SegmentSize)
				cb.Coeffs[i] = 1
				cb.Payload = make([]byte, size)
				for j := range cb.Payload {
					cb.Payload[j] = byte(i*size + j + 1)
				}
				return cb
			}
			good := block(0, blockSize)
			for _, cb := range []*rlnc.CodedBlock{good, block(1, tc.bad)} {
				if err := probe.Send(1, &transport.Message{Type: transport.MsgBlock, Block: cb}); err != nil {
					t.Fatal(err)
				}
			}

			// Every gossip is then a multiple of the good block alone.
			for gossiped := 0; gossiped < 20; {
				select {
				case m := <-probe.Receive():
					if m.Type != transport.MsgBlock {
						continue
					}
					gossiped++
					c := m.Block.Coeffs[0]
					want := append([]byte(nil), good.Payload...)
					gf256.MulSlice(c, want)
					if !bytes.Equal(m.Block.Coeffs, []byte{c, 0, 0, 0}) || !bytes.Equal(m.Block.Payload, want) {
						t.Fatalf("gossip %d combines the %d-byte block: coeffs %x, payload %d bytes",
							gossiped, tc.bad, m.Block.Coeffs, len(m.Block.Payload))
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("node stopped gossiping after %d blocks", gossiped)
				}
			}
			node.mu.Lock()
			held := node.core.BlocksOf(seg)
			node.mu.Unlock()
			if held != 1 {
				t.Errorf("node buffers %d blocks of the segment, want only the well-formed one", held)
			}
		})
	}
}

// The finished-ring steady-state allocation guard moved with the ring into
// internal/collect/store (TestMarkFinishedSteadyStateAllocations there).

// TestServerRequiresSegmentSize: s is fixed at construction; a server
// without one is an error, not a server that adopts the first block's.
func TestServerRequiresSegmentSize(t *testing.T) {
	net := transport.NewNetwork()
	if _, err := NewServer(net.Join(1), ServerConfig{PullRate: 1, Peers: []transport.NodeID{2}}); err == nil {
		t.Error("SegmentSize 0 accepted")
	}
}

func TestPeerRestartRejoinsSession(t *testing.T) {
	// Churn in a live deployment: a peer crashes and a replacement rejoins
	// under the same ID (Network.Join hands out a fresh mailbox). The
	// session must keep decoding afterwards.
	net := transport.NewNetwork()
	mk := func(id transport.NodeID, nbrs ...transport.NodeID) *Node {
		cfg := fastNodeConfig()
		cfg.Neighbors = nbrs
		cfg.Seed = int64(id)
		n, err := NewNode(net.Join(id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := mk(1, 2, 3)
	n2 := mk(2, 1, 3)
	n3 := mk(3, 1, 2)
	srv, err := NewServer(net.Join(9), ServerConfig{PullRate: 150, Peers: []transport.NodeID{1, 2, 3}, SegmentSize: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Stop()
		n1.Stop()
		n3.Stop()
	}()

	waitDecodes := func(target int64) bool {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if srv.Stats().DecodedSegments >= target {
				return true
			}
			time.Sleep(25 * time.Millisecond)
		}
		return false
	}
	if !waitDecodes(2) {
		t.Fatalf("no decodes before churn: %+v", srv.Stats())
	}
	// Crash peer 2 and bring up its replacement.
	n2.Stop()
	before := srv.Stats().DecodedSegments
	replacement := mk(2, 1, 3)
	defer replacement.Stop()
	if !waitDecodes(before + 2) {
		t.Fatalf("no decodes after restart: %+v", srv.Stats())
	}
}

// buildSegmentStream precomputes numSegs segments plus an interleaved
// stream of coded blocks (round-robin across segments, so several
// collections complete close together).
func buildSegmentStream(numSegs, size, payloadLen int) (map[rlnc.SegmentID][][]byte, []*rlnc.CodedBlock) {
	drv := rand.New(rand.NewSource(31))
	crng := randx.New(77)
	originals := make(map[rlnc.SegmentID][][]byte, numSegs)
	perSeg := make([][]*rlnc.CodedBlock, numSegs)
	for i := 0; i < numSegs; i++ {
		blocks := make([][]byte, size)
		for j := range blocks {
			blocks[j] = make([]byte, payloadLen)
			drv.Read(blocks[j])
		}
		seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 42, Seq: uint64(i)}, blocks)
		if err != nil {
			panic(err)
		}
		originals[seg.ID] = blocks
		src := seg.SourceBlocks()
		// size+3 random recodings virtually guarantee full rank.
		for k := 0; k < size+3; k++ {
			perSeg[i] = append(perSeg[i], rlnc.Recode(src, crng))
		}
	}
	var stream []*rlnc.CodedBlock
	for k := 0; k < size+3; k++ {
		for i := 0; i < numSegs; i++ {
			stream = append(stream, perSeg[i][k])
		}
	}
	return originals, stream
}

func waitForReceived(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().BlocksReceived >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server did not drain %d blocks in time", n)
}

// TestPushFedServerDeliversInCompletionOrder pushes an interleaved
// coded-block stream at a server that never pulls: OnSegment must fire
// once per segment, in the order a standalone decoder fed the same stream
// completes them, with the original bytes.
func TestPushFedServerDeliversInCompletionOrder(t *testing.T) {
	const numSegs, size, payloadLen = 12, 8, 256
	originals, stream := buildSegmentStream(numSegs, size, payloadLen)
	var wantOrder []rlnc.SegmentID
	decs := make(map[rlnc.SegmentID]*rlnc.Decoder)
	for _, cb := range stream {
		if decs[cb.Seg] == nil {
			decs[cb.Seg] = rlnc.NewDecoder(cb.Seg, size, payloadLen)
		}
		if ok, _ := decs[cb.Seg].Add(cb); ok && decs[cb.Seg].Complete() {
			wantOrder = append(wantOrder, cb.Seg)
		}
	}
	if len(wantOrder) != numSegs {
		t.Fatalf("stream completes %d/%d segments", len(wantOrder), numSegs)
	}

	net := transport.NewNetwork()
	peerTr := net.Join(1)
	defer peerTr.Close()
	srv, err := NewServer(net.Join(1000), ServerConfig{Peers: []transport.NodeID{1}, SegmentSize: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []rlnc.SegmentID
	srv.OnSegment = func(id rlnc.SegmentID, blocks [][]byte) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, id)
		for j := range blocks {
			if !bytes.Equal(blocks[j], originals[id][j]) {
				t.Errorf("segment %v block %d diverges from the original", id, j)
			}
		}
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for i, cb := range stream {
		if err := peerTr.Send(1000, &transport.Message{Type: transport.MsgBlock, Block: cb.Clone()}); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			// Let the receive loop drain so the 256-slot inbox never drops.
			waitForReceived(t, srv, int64(i+1))
		}
	}
	waitForReceived(t, srv, int64(len(stream)))
	srv.Stop()

	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("delivered %v, want %v", order, wantOrder)
	}
}
