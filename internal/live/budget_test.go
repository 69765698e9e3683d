package live

import (
	"testing"
	"time"

	"p2pcollect/internal/logdata"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/raceon"
	"p2pcollect/internal/transport"
)

// pullRoundTrip wires a real Server and a real Node over the in-memory
// fabric without starting their loops, and returns one blind pull driven by
// hand: the server's pull event, the node serving it, the server receiving
// the reply. The node holds one segment that the server has already
// finished, so the reply is received and dropped: the steady state of a
// saturated cluster, where nearly every pulled block is redundant.
func pullRoundTrip(tb testing.TB, segmentSize int) func() {
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
	n.inject()
	roundTrip := func() {
		s.pull()
		n.handle(<-nodeTr.Receive())
		s.handle(<-serverTr.Receive())
	}
	for i := 0; s.Stats().DeliveredSegments == 0; i++ {
		if i > 100*segmentSize {
			tb.Fatal("the segment never decoded")
		}
		roundTrip()
	}
	before := s.Stats().Protocol[peercore.EvBlockReceived.String()]
	roundTrip()
	if got := s.Stats().Protocol[peercore.EvBlockReceived.String()]; got != before+1 {
		tb.Fatalf("a round trip delivered %d blocks to the server, want 1", got-before)
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

func BenchmarkPullRoundTrip(b *testing.B) {
	roundTrip := pullRoundTrip(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
