package p2pcollect_test

import (
	"testing"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
)

func TestFacadeSolveODE(t *testing.T) {
	ss, err := p2pcollect.SolveODE(p2pcollect.ModelParams{
		Lambda: 6, Mu: 4, Gamma: 1, C: 2, S: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss.E <= 0 || ss.Rho <= 0 {
		t.Errorf("degenerate steady state: %+v", ss)
	}
	if len(ss.W) == 0 || len(ss.M) == 0 {
		t.Error("missing degree distributions")
	}
}

func TestFacadeNewSimulatorStepwise(t *testing.T) {
	s, err := p2pcollect.NewSimulator(p2pcollect.SimConfig{
		N: 50, Lambda: 4, Mu: 4, Gamma: 1, SegmentSize: 4,
		BufferCap: 64, C: 2, Warmup: 4, Horizon: 12, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step in intervals of 2, scraping the registry at each step.
	points, next := 0, 0.0
	runUntil := func(until float64) {
		for ; next <= until; next += 2 {
			s.RunUntil(next)
			if _, ok := s.Registry().Snapshot().Gauges["blocksPerPeer"]; ok {
				points++
			}
		}
	}
	runUntil(6)
	mid := s.TotalBlocks()
	if mid == 0 {
		t.Error("no blocks buffered mid-run")
	}
	added := s.AddPeers(10)
	if len(added) != 10 || s.Population() != 60 {
		t.Errorf("AddPeers via facade: %d slots, population %d", len(added), s.Population())
	}
	s.RemovePeer(added[0])
	if s.Population() != 59 {
		t.Errorf("RemovePeer via facade: population %d", s.Population())
	}
	runUntil(12)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Error("no trace points")
	}
}

func TestFacadeLiveNodeServerDirect(t *testing.T) {
	net := p2pcollect.NewNetwork()
	node, err := p2pcollect.NewNode(net.Join(1), p2pcollect.NodeConfig{
		SegmentSize: 2, BlockSize: logdata.RecordSize,
		Lambda: 40, Mu: 40, Gamma: 1, BufferCap: 64,
		Neighbors: []p2pcollect.NodeID{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer2, err := p2pcollect.NewNode(net.Join(2), p2pcollect.NodeConfig{
		SegmentSize: 2, BlockSize: logdata.RecordSize,
		Lambda: 40, Mu: 40, Gamma: 1, BufferCap: 64,
		Neighbors: []p2pcollect.NodeID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p2pcollect.NewServer(net.Join(3), p2pcollect.ServerConfig{
		PullRate: 80, Peers: []p2pcollect.NodeID{1, 2}, SegmentSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	decoded := make(chan struct{}, 1)
	srv.OnSegment = func(p2pcollect.SegmentID, [][]byte) {
		select {
		case decoded <- struct{}{}:
		default:
		}
	}
	for _, start := range []func() error{node.Start, peer2.Start, srv.Start} {
		if err := start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		srv.Stop()
		peer2.Stop()
		node.Stop()
	}()
	select {
	case <-decoded:
	case <-time.After(15 * time.Second):
		t.Fatal("no segment decoded through facade-built session")
	}
}
