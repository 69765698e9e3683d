package p2pcollect_test

import (
	"math"
	"testing"
	"time"

	"p2pcollect"
	"p2pcollect/internal/logdata"
)

func TestFacadeSimulate(t *testing.T) {
	r, err := p2pcollect.Simulate(p2pcollect.SimConfig{
		N: 60, Lambda: 6, Mu: 4, Gamma: 1, SegmentSize: 4,
		BufferCap: 64, C: 2, Warmup: 6, Horizon: 18, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredSegments == 0 {
		t.Error("facade simulation delivered nothing")
	}
}

func TestFacadeAnalyzeMatchesSim(t *testing.T) {
	// The headline integration check: analysis and simulation agree on the
	// normalized session throughput within sampling error.
	p := p2pcollect.ModelParams{Lambda: 10, Mu: 8, Gamma: 1, C: 4, S: 8}
	m, err := p2pcollect.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p2pcollect.SimConfig{
		N: 200, Lambda: p.Lambda, Mu: p.Mu, Gamma: p.Gamma,
		SegmentSize: p.S, BufferCap: 128, C: p.C,
		Warmup: 12, Horizon: 36, Seed: 2,
	}
	// Under the ODE's own sampling assumption the agreement is tight.
	mfCfg := cfg
	mfCfg.MeanFieldSampling = true
	mf, err := p2pcollect.Simulate(mfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mf.NormalizedThroughput-m.NormalizedThroughput) / m.NormalizedThroughput; rel > 0.1 {
		t.Errorf("mean-field sim %v vs analysis %v (rel %v)", mf.NormalizedThroughput, m.NormalizedThroughput, rel)
	}
	// The literal protocol deviates below the mean-field prediction (the
	// documented sampling gap) but stays in the same regime.
	r, err := p2pcollect.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalizedThroughput > m.NormalizedThroughput*1.05 ||
		r.NormalizedThroughput < m.NormalizedThroughput*0.6 {
		t.Errorf("protocol sim %v vs analysis %v out of expected band", r.NormalizedThroughput, m.NormalizedThroughput)
	}
}

func TestFacadeBaseline(t *testing.T) {
	r, err := p2pcollect.SimulateBaseline(p2pcollect.BaselineConfig{
		N: 40, Lambda: 4, C: 2, BufferCap: 20, Warmup: 5, Horizon: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collected == 0 {
		t.Error("baseline collected nothing")
	}
}

func TestFacadeNonCodingThroughput(t *testing.T) {
	got, err := p2pcollect.NonCodingThroughput(20, 10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got >= 0.2 {
		t.Errorf("throughput %v outside (0, capacity)", got)
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	decoded := make(chan p2pcollect.SegmentID, 64)
	cluster, err := p2pcollect.StartCluster(p2pcollect.ClusterConfig{
		Peers:   8,
		Servers: 1,
		Degree:  3,
		Node: p2pcollect.NodeConfig{
			SegmentSize: 2,
			BlockSize:   logdata.RecordSize,
			Lambda:      40,
			Mu:          60,
			Gamma:       2,
			BufferCap:   128,
		},
		Server: p2pcollect.ServerConfig{PullRate: 100},
		Seed:   4,
		OnSegment: func(id p2pcollect.SegmentID, blocks [][]byte) {
			select {
			case decoded <- id:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	select {
	case <-decoded:
	case <-time.After(15 * time.Second):
		t.Fatal("live cluster decoded nothing in 15s")
	}
}
