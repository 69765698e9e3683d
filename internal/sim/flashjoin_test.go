package sim

import "testing"

func TestAddPeersGrowsSession(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(8)
	if s.Population() != cfg.N {
		t.Fatalf("initial population %d", s.Population())
	}
	s.AddPeers(40)
	if s.Population() != cfg.N+40 {
		t.Fatalf("population after join %d", s.Population())
	}
	injectedBefore := s.Result().InjectedSegments
	s.RunUntil(20)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Result().InjectedSegments <= injectedBefore {
		t.Error("joined peers never injected")
	}
}

func TestAddPeersWithOverlayAndChurn(t *testing.T) {
	cfg := testConfig()
	cfg.Degree = 4
	cfg.ChurnMeanLifetime = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(6)
	joined := s.AddPeers(30)
	s.RunUntil(12)
	for _, pi := range append(joined[:10:10], 0, 1) {
		s.RemovePeer(pi)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after RemovePeer(%d): %v", pi, err)
		}
	}
	s.RunUntil(18)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRemovePeerOrphansLikeDepart: a permanent departure and a replaced
// one are the same departure, so on identical runs they flag the same
// segments as orphaned. Without gossip every segment lives only at its
// origin and dies with it; both must count it before its blocks go.
func TestRemovePeerOrphansLikeDepart(t *testing.T) {
	cfg := Config{
		N: 4, Lambda: 4, Mu: 0, Gamma: 0.01, SegmentSize: 2, BufferCap: 64,
		C: 0, Warmup: 0.1, Horizon: 10, Seed: 3,
	}
	orphans := func(leave func(*Simulator)) int64 {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(5)
		leave(s)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.Result().OrphanedSegments
	}
	removed := orphans(func(s *Simulator) { s.RemovePeer(0) })
	departed := orphans(func(s *Simulator) { s.depart(0) })
	if removed != departed || removed != 7 {
		t.Fatalf("RemovePeer orphaned %d segments, depart %d; want 7 each", removed, departed)
	}
}

func TestFlashJoinOverloadsFixedServers(t *testing.T) {
	// Servers provisioned for the initial population; tripling the peers
	// must push the per-demand delivered fraction down.
	cfg := Config{
		N: 80, Lambda: 8, Mu: 6, Gamma: 1, SegmentSize: 8,
		BufferCap: 128, C: 6, Warmup: 0.1, Horizon: 50, Seed: 41,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []tracePoint
	for tm := 0.0; tm <= 50; tm += 5 {
		s.RunUntil(tm)
		pts = append(pts, scrape(s))
		if tm == 20 {
			s.AddPeers(160)
		}
	}
	rate := func(a, b tracePoint) float64 {
		return float64(b.CumUsefulPulls-a.CumUsefulPulls) / (b.T - a.T)
	}
	offered := func(a, b tracePoint) float64 {
		return float64(b.CumInjectedBlocks-a.CumInjectedBlocks) / (b.T - a.T)
	}
	// Window [10,20): pre-join; window [35,50): post-join steady-ish.
	var pre, post [2]tracePoint
	for _, p := range pts {
		switch p.T {
		case 10:
			pre[0] = p
		case 20:
			pre[1] = p
		case 35:
			post[0] = p
		case 50:
			post[1] = p
		}
	}
	preFrac := rate(pre[0], pre[1]) / offered(pre[0], pre[1])
	postFrac := rate(post[0], post[1]) / offered(post[0], post[1])
	if postFrac >= preFrac {
		t.Errorf("delivered fraction did not drop after flash join: pre %v post %v", preFrac, postFrac)
	}
	// Offered load must have roughly tripled.
	if offered(post[0], post[1]) < 2*offered(pre[0], pre[1]) {
		t.Errorf("offered load did not grow: pre %v post %v", offered(pre[0], pre[1]), offered(post[0], post[1]))
	}
}

func TestBaselineAddPeers(t *testing.T) {
	b, err := NewBaseline(BaselineConfig{
		N: 50, Lambda: 4, C: 3, BufferCap: 30, Warmup: 1, Horizon: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.RunUntil(10)
	if b.Population() != 50 {
		t.Fatalf("population %d", b.Population())
	}
	genBefore := b.Generated()
	b.AddPeers(100)
	if b.Population() != 150 {
		t.Fatalf("population after join %d", b.Population())
	}
	b.RunUntil(40)
	r := b.Result()
	if r.Generated <= genBefore {
		t.Error("joined peers never generated")
	}
	// Servers sized for 50 peers now face 150: queues must overflow.
	if r.LostToOverflow == 0 {
		t.Error("no overflow despite tripled population")
	}
}
