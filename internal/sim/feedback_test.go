package sim

import "testing"

func TestServerFeedbackPurgesAndHelps(t *testing.T) {
	base := Config{
		N: 150, Lambda: 10, Mu: 8, Gamma: 1, SegmentSize: 8,
		BufferCap: 128, C: 4, Warmup: 10, Horizon: 30, Seed: 21,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fb := base
	fb.ServerFeedback = true
	withFB, err := Run(fb)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BlocksPurgedByFeedback != 0 {
		t.Errorf("purges without feedback: %d", plain.BlocksPurgedByFeedback)
	}
	if withFB.BlocksPurgedByFeedback == 0 {
		t.Error("feedback enabled but nothing purged")
	}
	// Purging delivered segments frees pull capacity for undelivered ones:
	// collection efficiency must improve.
	if withFB.CollectionEfficiency() <= plain.CollectionEfficiency() {
		t.Errorf("efficiency with feedback %v not above without %v",
			withFB.CollectionEfficiency(), plain.CollectionEfficiency())
	}
	if withFB.NormalizedThroughput <= plain.NormalizedThroughput {
		t.Errorf("throughput with feedback %v not above without %v",
			withFB.NormalizedThroughput, plain.NormalizedThroughput)
	}
}

func TestServerFeedbackInvariants(t *testing.T) {
	cfg := testConfig()
	cfg.ServerFeedback = true
	cfg.ChurnMeanLifetime = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, checkpoint := range []float64{4, 10, 18, 24} {
		s.RunUntil(checkpoint)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("at t=%v: %v", checkpoint, err)
		}
	}
	if s.Result().BlocksPurgedByFeedback == 0 {
		t.Error("no purges in feedback run")
	}
}

// TestDecodedOrRankLostBalance: every injected segment ends a run in
// exactly one of three places — decoded (OnDecode fired), extinct before
// full rank (RankLostSegments), or still live and undecoded. Under
// ServerFeedback a pull that brings state and rank to s together purges the
// segment; the purge must not run before the decode is recorded, or the
// segment is counted both decoded and rank-lost.
func TestDecodedOrRankLostBalance(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"literal", func(*Config) {}},
		{"meanfield", func(c *Config) { c.MeanFieldSampling = true }},
		{"churn-feedback", func(c *Config) {
			c.ChurnMeanLifetime = 6
			c.ServerFeedback = true
			c.Degree = 4
		}},
		{"independent", func(c *Config) {
			c.IndependentServers = true
			c.PayloadLen = 64
		}},
		{"independent-feedback", func(c *Config) {
			c.IndependentServers = true
			c.ServerFeedback = true
		}},
		{"rarest-feedback", func(c *Config) {
			c.PullPolicy = "rarest"
			c.ServerFeedback = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenBase()
			tc.mutate(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var decoded int64
			s.OnDecode(func(SegmentView) { decoded++ })
			s.RunUntil(cfg.Horizon)
			var undecoded int64
			s.ForEachSegment(func(v SegmentView) {
				if !v.Decoded {
					undecoded++
				}
			})
			r := s.Result()
			if got := decoded + r.RankLostSegments + undecoded; got != r.InjectedSegments {
				t.Errorf("decoded %d + rank-lost %d + live undecoded %d = %d, want injected %d",
					decoded, r.RankLostSegments, undecoded, got, r.InjectedSegments)
			}
		})
	}
}
