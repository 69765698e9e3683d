package live

import (
	"testing"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/raceon"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
	"p2pcollect/internal/transport"
)

// pullPair wires a real Server and a real Node over the in-memory fabric
// without starting their loops, and returns one blind pull driven by hand:
// the server's pull event, the node serving it, the server receiving the
// reply.
func pullPair(tb testing.TB, segmentSize int) (n *Node, roundTrip func()) {
	tb.Helper()
	net := transport.NewNetwork()
	nodeTr, serverTr := net.Join(1), net.Join(serverIDBase)
	n, err := NewNode(nodeTr, NodeConfig{
		SegmentSize: segmentSize, BlockSize: 1024 / logdata.RecordSize * logdata.RecordSize,
		Lambda: 1, Mu: 1, Gamma: 1e-6, BufferCap: 4 * segmentSize,
		Neighbors: []transport.NodeID{2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewServer(serverTr, ServerConfig{PullRate: 1, Peers: []transport.NodeID{1}, SegmentSize: segmentSize})
	if err != nil {
		tb.Fatal(err)
	}
	n.started, s.started = time.Now(), time.Now()
	s.svc.Start(nil)
	tb.Cleanup(func() {
		s.svc.Close()
		nodeTr.Close()
		serverTr.Close()
	})
	return n, func() {
		s.pull()
		n.handle(<-nodeTr.Receive())
		s.handle(<-serverTr.Receive())
	}
}

// pullRoundTrip is pullPair over a node that holds a single coded block of
// a segment, so every block it serves is a multiple of that one: the
// server's rank for the segment stops at 1 and each further reply is
// received and found redundant, never decoded. That is the steady state of
// a saturated cluster, where nearly every pulled block is redundant,
// without a decode that would make the server list the segment and the
// node drop it.
func pullRoundTrip(tb testing.TB, segmentSize int) func() {
	tb.Helper()
	n, roundTrip := pullPair(tb, segmentSize)
	rng := randx.New(3)
	src := make([][]byte, segmentSize)
	for i := range src {
		src[i] = make([]byte, n.cfg.BlockSize)
		rng.FillCoefficients(src[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 2, Seq: 1}, src)
	if err != nil {
		tb.Fatal(err)
	}
	n.handle(&transport.Message{Type: transport.MsgBlock, From: 2, To: 1, Block: seg.Encode(rng)})
	if got := n.Stats().BufferedBlocks; got != 1 {
		tb.Fatalf("the node buffers %d blocks, want 1", got)
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	before := n.Stats().PullsServed
	roundTrip()
	if got := n.Stats().PullsServed; got != before+1 {
		tb.Fatalf("a round trip served %d blocks, want 1", got-before)
	}
	return roundTrip
}

// TestPullRoundTripAllocations pins the budget of the message the protocol
// sends most. The blind pull costs nothing: the server keeps one addressed
// pull per peer and the transport passes it through. The reply costs two:
// one object for the message, the block and its coefficients, and the
// recoded payload. One allocation of slack is left for the runtime.
func TestPullRoundTripAllocations(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	roundTrip := pullRoundTrip(t, 8)
	if n := testing.AllocsPerRun(500, roundTrip); n > 3 {
		t.Errorf("one blind pull round trip over chanmem: %v allocations, want at most 3", n)
	}
}

// TestEmptyPullAllocatesNothing: a blind pull to a node with nothing
// buffered costs nothing either way. The server sends its kept blind pull,
// the node answers with the empty notice it keeps for that server, and the
// transport passes both through uncopied.
func TestEmptyPullAllocatesNothing(t *testing.T) {
	if raceon.Enabled {
		t.Skip("allocation budgets describe the uninstrumented build")
	}
	n, roundTrip := pullPair(t, 8)
	roundTrip()
	if got := n.Stats().Protocol[peercore.EvPullServed.String()]; got != 0 {
		t.Fatalf("an empty node served %d blocks", got)
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Errorf("one blind pull answered empty over chanmem: %v allocations, want 0", allocs)
	}
}

func BenchmarkPullRoundTrip(b *testing.B) {
	roundTrip := pullRoundTrip(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
