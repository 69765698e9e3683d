package sim

import (
	"math"
	"reflect"
	"testing"

	"p2pcollect/internal/rlnc"
)

// testConfig returns a small, fast configuration suitable for unit tests.
func testConfig() Config {
	return Config{
		N:           80,
		Lambda:      4,
		Mu:          4,
		Gamma:       1,
		SegmentSize: 4,
		BufferCap:   64,
		C:           2,
		NumServers:  2,
		Warmup:      8,
		Horizon:     24,
		Seed:        1,
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few peers", func(c *Config) { c.N = 1 }},
		{"negative lambda", func(c *Config) { c.Lambda = -1 }},
		{"negative mu", func(c *Config) { c.Mu = -1 }},
		{"zero gamma", func(c *Config) { c.Gamma = 0 }},
		{"zero segment size", func(c *Config) { c.SegmentSize = 0 }},
		{"buffer below segment", func(c *Config) { c.BufferCap = 2; c.SegmentSize = 4 }},
		{"negative capacity", func(c *Config) { c.C = -1 }},
		{"degree too large", func(c *Config) { c.Degree = 100 }},
		{"negative payload", func(c *Config) { c.PayloadLen = -1 }},
		{"warmup after horizon", func(c *Config) { c.Warmup = 50; c.Horizon = 40 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunProducesActivity(t *testing.T) {
	r, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.InjectedSegments == 0 {
		t.Error("no segments injected")
	}
	if r.DeliveredSegments == 0 {
		t.Error("no segments delivered (state-based)")
	}
	if r.RankDecodedSegments == 0 {
		t.Error("no segments decoded (rank-based)")
	}
	if r.GossipSends == 0 {
		t.Error("no gossip traffic")
	}
	if r.ServerPulls == 0 {
		t.Error("no server pulls")
	}
	if r.Throughput <= 0 || r.NormalizedThroughput <= 0 {
		t.Errorf("throughput = %v (normalized %v)", r.Throughput, r.NormalizedThroughput)
	}
	if r.NormalizedThroughput > 1.05 {
		t.Errorf("normalized throughput %v exceeds aggregate demand", r.NormalizedThroughput)
	}
	if r.MeanBlockDelay <= 0 {
		t.Errorf("block delay = %v", r.MeanBlockDelay)
	}
	if r.AvgBlocksPerPeer <= 0 {
		t.Errorf("avg blocks per peer = %v", r.AvgBlocksPerPeer)
	}
}

func TestInvariantsDuringRun(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, checkpoint := range []float64{2, 5, 10, 16, 24} {
		s.RunUntil(checkpoint)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("at t=%v: %v", checkpoint, err)
		}
	}
}

func TestInvariantsUnderChurn(t *testing.T) {
	cfg := testConfig()
	cfg.ChurnMeanLifetime = 3
	cfg.Seed = 7
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, checkpoint := range []float64{3, 9, 18, 24} {
		s.RunUntil(checkpoint)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("at t=%v: %v", checkpoint, err)
		}
	}
	r := s.Result()
	if r.Departures == 0 {
		t.Error("no departures despite churn")
	}
	if r.BlocksLostToExit == 0 {
		t.Error("no blocks lost to departures")
	}
}

func TestInvariantsWithOverlayTopology(t *testing.T) {
	cfg := testConfig()
	cfg.Degree = 4
	cfg.ChurnMeanLifetime = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(cfg.Horizon)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Result().DeliveredSegments == 0 {
		t.Error("overlay run delivered nothing")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.ChurnMeanLifetime = 5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveredSegments == c.DeliveredSegments && a.GossipSends == c.GossipSends {
		t.Error("different seeds produced identical traffic (suspicious)")
	}
}

func TestStorageOverheadMatchesTheorem1(t *testing.T) {
	// Theorem 1: ρ = (1−z̃0)·μ/γ + λ/γ with z̃0 = e^{-ρ} for s=1.
	cfg := Config{
		N:           300,
		Lambda:      6,
		Mu:          4,
		Gamma:       1,
		SegmentSize: 1,
		BufferCap:   256,
		C:           2,
		Warmup:      15,
		Horizon:     45,
		Seed:        3,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point of ρ = (1−e^{-ρ})μ/γ + λ/γ.
	rho := cfg.Lambda / cfg.Gamma
	for i := 0; i < 100; i++ {
		rho = (1-math.Exp(-rho))*cfg.Mu/cfg.Gamma + cfg.Lambda/cfg.Gamma
	}
	if rel := math.Abs(r.AvgBlocksPerPeer-rho) / rho; rel > 0.08 {
		t.Errorf("avg blocks per peer = %v, Theorem 1 predicts %v (rel err %v)", r.AvgBlocksPerPeer, rho, rel)
	}
	wantOverhead := (1 - math.Exp(-rho)) * cfg.Mu / cfg.Gamma
	if rel := math.Abs(r.StorageOverhead-wantOverhead) / wantOverhead; rel > 0.12 {
		t.Errorf("overhead = %v, want ~%v", r.StorageOverhead, wantOverhead)
	}
	if r.StorageOverhead > cfg.Mu/cfg.Gamma {
		t.Errorf("overhead %v exceeds bound μ/γ = %v", r.StorageOverhead, cfg.Mu/cfg.Gamma)
	}
}

func TestCodingImprovesThroughputWhenCapacityScarce(t *testing.T) {
	// The central claim of Fig. 3: with c < λ, larger segments push
	// throughput toward capacity because redundant pulls disappear.
	base := Config{
		N:         150,
		Lambda:    8,
		Mu:        6,
		Gamma:     1,
		BufferCap: 256,
		C:         3,
		Warmup:    12,
		Horizon:   40,
		Seed:      5,
	}
	small := base
	small.SegmentSize = 1
	large := base
	large.SegmentSize = 16
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.NormalizedThroughput <= rs.NormalizedThroughput {
		t.Errorf("s=16 throughput %v not above s=1 throughput %v",
			rl.NormalizedThroughput, rs.NormalizedThroughput)
	}
	capacity := base.C / base.Lambda
	if rl.NormalizedThroughput > capacity*1.05 {
		t.Errorf("throughput %v exceeds capacity %v", rl.NormalizedThroughput, capacity)
	}
	// Collection efficiency must also order the same way.
	if rl.CollectionEfficiency() <= rs.CollectionEfficiency() {
		t.Errorf("efficiency: s=16 %v <= s=1 %v", rl.CollectionEfficiency(), rs.CollectionEfficiency())
	}
}

func TestNoServersMeansNoDecodes(t *testing.T) {
	cfg := testConfig()
	cfg.C = 0
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredSegments != 0 || r.ServerPulls != 0 {
		t.Errorf("deliveries/pulls with zero capacity: %d/%d", r.DeliveredSegments, r.ServerPulls)
	}
	if r.SavedPerPeer <= 0 {
		t.Error("nothing saved in network with zero server capacity")
	}
}

func TestInjectUntilStopsInjection(t *testing.T) {
	cfg := testConfig()
	cfg.InjectUntil = 10
	cfg.Horizon = 30
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	injectedAt10 := s.Result().InjectedSegments
	s.RunUntil(30)
	r := s.Result()
	if r.InjectedSegments != injectedAt10 {
		t.Errorf("injection continued after InjectUntil: %d -> %d", injectedAt10, r.InjectedSegments)
	}
	// The network does NOT drain: gossip keeps re-seeding copies, and the
	// buffered pool settles near the Theorem 1 equilibrium (1−z̃0)·μ/γ per
	// peer. That retention is the paper's "buffering zone".
	if s.TotalBlocks() == 0 {
		t.Error("network drained completely; buffering zone lost")
	}
	bound := int64(float64(cfg.N) * (cfg.Mu/cfg.Gamma + 2))
	if s.TotalBlocks() > bound {
		t.Errorf("retained pool %d above equilibrium bound %d", s.TotalBlocks(), bound)
	}
}

func TestDrainDeliversBufferedData(t *testing.T) {
	// Theorem 4's mechanism: segments decodable in the network at the end
	// of the stream are still collected afterwards.
	cfg := testConfig()
	cfg.C = 1 // scarce capacity: backlog builds up
	cfg.SegmentSize = 8
	cfg.InjectUntil = 12
	cfg.Horizon = 40
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(12)
	undelivered := 0
	s.ForEachSegment(func(v SegmentView) {
		if !v.Delivered {
			undelivered++
		}
	})
	if undelivered == 0 {
		t.Fatal("no backlog at end of stream; drain test vacuous")
	}
	deliveredBefore := s.Result().DeliveredSegments
	s.RunUntil(40)
	deliveredAfter := s.Result().DeliveredSegments
	if deliveredAfter <= deliveredBefore {
		t.Errorf("no delayed deliveries: %d -> %d", deliveredBefore, deliveredAfter)
	}
}

func TestPayloadModeDecodesRealRecords(t *testing.T) {
	cfg := testConfig()
	cfg.N = 40
	cfg.PayloadLen = 128
	cfg.Horizon = 16
	cfg.Warmup = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decodes := 0
	s.OnDecode(func(v SegmentView) {
		decodes++
		if v.ServerRank != cfg.SegmentSize {
			t.Errorf("decoded segment with rank %d", v.ServerRank)
		}
	})
	s.RunUntil(cfg.Horizon)
	if decodes == 0 {
		t.Fatal("no decodes in payload mode")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentViewsConsistent(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(12)
	count := 0
	s.ForEachSegment(func(v SegmentView) {
		count++
		if v.Degree <= 0 {
			t.Errorf("live segment %v with degree %d", v.ID, v.Degree)
		}
		if v.ServerRank > s.Config().SegmentSize {
			t.Errorf("rank %d above segment size", v.ServerRank)
		}
		if v.Decoded != (v.DecodedAt >= 0) {
			t.Errorf("decoded flag inconsistent for %v", v.ID)
		}
		if v.Delivered != (v.DeliveredAt >= 0) {
			t.Errorf("delivered flag inconsistent for %v", v.ID)
		}
		if v.PullState < v.ServerRank && v.PullState < s.Config().SegmentSize {
			t.Errorf("segment %v rank %d above state %d", v.ID, v.ServerRank, v.PullState)
		}
	})
	if count != s.LiveSegments() {
		t.Errorf("ForEachSegment visited %d, LiveSegments = %d", count, s.LiveSegments())
	}
}

func TestChurnLosesSegmentsWithoutCoding(t *testing.T) {
	cfg := Config{
		N:                 100,
		Lambda:            4,
		Mu:                2,
		Gamma:             1,
		SegmentSize:       8,
		BufferCap:         128,
		C:                 0.5, // starved servers
		ChurnMeanLifetime: 2,   // severe churn
		Warmup:            8,
		Horizon:           24,
		Seed:              11,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LostSegments == 0 {
		t.Error("severe churn with starved servers lost nothing")
	}
}

func TestSmallSegmentIDsAreUnique(t *testing.T) {
	cfg := testConfig()
	cfg.ChurnMeanLifetime = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[rlnc.SegmentID]bool)
	dup := false
	s.OnDecode(func(v SegmentView) {
		if seen[v.ID] {
			dup = true
		}
		seen[v.ID] = true
	})
	s.RunUntil(cfg.Horizon)
	if dup {
		t.Error("duplicate segment IDs decoded (identity reuse across churn)")
	}
}

// tracePoint is one registry scrape of a stepped run: a trajectory sample
// as every experiment reads it, RunUntil(t) then Registry().Snapshot().
type tracePoint struct {
	T                 float64
	E, Z0             float64 // blocksPerPeer and emptyPeerFrac gauges
	CumServerPulls    int64
	CumUsefulPulls    int64
	CumInjectedBlocks int64
	Population        int
}

func scrape(s *Simulator) tracePoint {
	snap := s.Registry().Snapshot()
	return tracePoint{
		T:                 s.Now(),
		E:                 snap.Gauges["blocksPerPeer"],
		Z0:                snap.Gauges["emptyPeerFrac"],
		CumServerPulls:    snap.Counters["serverPulls"],
		CumUsefulPulls:    snap.Counters["usefulPulls"],
		CumInjectedBlocks: snap.Counters["injectedBlocks"],
		Population:        s.Population(),
	}
}

func TestTrajectorySamplesTransient(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []tracePoint
	for tm := 0.0; tm <= 10; tm++ {
		s.RunUntil(tm)
		pts = append(pts, scrape(s))
	}
	if len(pts) < 10 {
		t.Fatalf("got %d trace points", len(pts))
	}
	if pts[0].T != 0 || pts[0].E != 0 || pts[0].Z0 != 1 {
		t.Errorf("initial point = %+v, want empty network", pts[0])
	}
	// e(t) must grow from empty toward its equilibrium.
	last := pts[len(pts)-1]
	if last.E <= pts[1].E {
		t.Errorf("e(t) did not grow: %v -> %v", pts[1].E, last.E)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("trace times not increasing at %d", i)
		}
	}
}

// TestStateCounterRunsAheadOfRank pins the paper's state-based accounting,
// which only the simulator keeps: a pull advances a segment's state while
// it is below s whether or not the block is innovative, so a segment can
// read as delivered before its decoder has full rank, and pulls past state
// s are redundant even when the decoder still gains rank from them. Both
// views, and the registry, must report the same counters.
func TestStateCounterRunsAheadOfRank(t *testing.T) {
	for _, independent := range []bool{false, true} {
		cfg := testConfig()
		cfg.IndependentServers = independent
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deliveredFirst := 0
		s.OnDecode(func(v SegmentView) {
			if !v.Delivered || v.DeliveredAt > v.DecodedAt {
				t.Errorf("independent=%v: %v decoded at %g before its state reached s (delivered at %g)",
					independent, v.ID, v.DecodedAt, v.DeliveredAt)
			}
			if v.DeliveredAt < v.DecodedAt {
				deliveredFirst++
			}
		})
		s.RunUntil(cfg.Horizon)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		r := s.Result()
		c := r.ProtocolCounters
		if deliveredFirst == 0 {
			t.Errorf("independent=%v: no segment reached state s before full rank", independent)
		}
		if c["usefulPulls"] != r.UsefulPulls || c["redundantPulls"] != r.RedundantPulls {
			t.Errorf("independent=%v: ProtocolCounters %v disagree with Result useful/redundant %d/%d",
				independent, c, r.UsefulPulls, r.RedundantPulls)
		}
		if r.UsefulPulls+r.RedundantPulls != r.ServerPulls || r.RedundantPulls == 0 {
			t.Errorf("independent=%v: useful %d + redundant %d, server pulls %d",
				independent, r.UsefulPulls, r.RedundantPulls, r.ServerPulls)
		}
		if r.UsefulPulls <= r.InnovativePulls || c["deliveredSegments"] < c["decodedSegments"] {
			t.Errorf("independent=%v: state accounting not ahead of rank: %v", independent, c)
		}
		snap := s.Registry().Snapshot()
		for _, name := range []string{"usefulPulls", "redundantPulls", "deliveredSegments"} {
			if got, ok := snap.Counters[name]; !ok || got != c[name] {
				t.Errorf("independent=%v: registry %s = %d (present %v), result %d",
					independent, name, got, ok, c[name])
			}
		}
	}
}
