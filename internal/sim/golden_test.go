package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The golden values below were captured from the simulator BEFORE the pull
// scheduler existed (commit "Make the live TCP path non-blocking and
// fault-tolerant"), so they pin the acceptance contract of the pullsched
// subsystem: with the Blind policy (or none), a seeded run is unchanged
// from pre-scheduler main, byte for byte, across every protocol counter.

func goldenBase() Config {
	return Config{
		N: 40, Lambda: 8, Mu: 10, Gamma: 1,
		SegmentSize: 4, BufferCap: 64, C: 4, NumServers: 2,
		Warmup: 2, Horizon: 8, Seed: 7,
	}
}

func TestBlindPolicyPreservesSeededRuns(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		counters map[string]int64 // non-zero protocol counters
		// windowed result fields, fixed-point to 9 decimals
		delivered     int64
		meanDelay     string
		blocksPerPeer string
	}{
		{
			name:   "literal",
			mutate: func(*Config) {},
			counters: map[string]int64{
				"blocksLostToTTL": 4835, "blocksStored": 5511,
				"decodedSegments": 17, "deliveredSegments": 98,
				"gossipSends": 3118, "injectedBlocks": 2552,
				"injectedSegments": 638, "innovativePulls": 579,
				"redundantBlocks": 159, "redundantGossip": 159,
				"redundantPulls": 441, "serverPulls": 1242,
				"usefulPulls": 801,
			},
			delivered:     83,
			meanDelay:     "2.859204083",
			blocksPerPeer: "17.449000000",
		},
		{
			name:   "meanfield",
			mutate: func(c *Config) { c.MeanFieldSampling = true },
			counters: map[string]int64{
				"blocksLostToTTL": 4969, "blocksStored": 5688,
				"decodedSegments": 47, "deliveredSegments": 99,
				"gossipSends": 3106, "injectedBlocks": 2628,
				"injectedSegments": 657, "innovativePulls": 853,
				"redundantBlocks": 46, "redundantGossip": 46,
				"redundantPulls": 281, "serverPulls": 1260,
				"usefulPulls": 979,
			},
			delivered:     74,
			meanDelay:     "2.239854514",
			blocksPerPeer: "17.667000000",
		},
		{
			name: "churn-feedback",
			mutate: func(c *Config) {
				c.ChurnMeanLifetime = 6
				c.ServerFeedback = true
				c.Degree = 4
			},
			counters: map[string]int64{
				"blocksLostToExit": 480, "blocksLostToTTL": 2608,
				"blocksPurgedByFeedback": 1378, "blocksStored": 4808,
				"decodedSegments": 29, "deliveredSegments": 245,
				"departures": 61, "gossipSends": 2855,
				"injectedBlocks": 2348, "injectedSegments": 587,
				"innovativePulls": 870, "redundantBlocks": 395,
				"redundantGossip": 395, "redundantPulls": 0,
				"serverPulls": 1308, "usefulPulls": 1308,
			},
			delivered:     185,
			meanDelay:     "1.740938255",
			blocksPerPeer: "9.290000000",
		},
		{
			name: "independent",
			mutate: func(c *Config) {
				c.IndependentServers = true
				c.PayloadLen = 64
			},
			counters: map[string]int64{
				"blocksLostToTTL": 4694, "blocksStored": 5396,
				"decodedSegments": 16, "deliveredSegments": 80,
				"gossipSends": 3130, "injectedBlocks": 2452,
				"injectedSegments": 613, "innovativePulls": 773,
				"redundantBlocks": 186, "redundantGossip": 186,
				"redundantPulls": 328, "serverPulls": 1337,
				"usefulPulls": 1009,
			},
			delivered:     40,
			meanDelay:     "3.404827975",
			blocksPerPeer: "16.856000000",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenBase()
			tc.mutate(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range tc.counters {
				if got := res.ProtocolCounters[name]; got != want {
					t.Errorf("counter %s = %d, want golden %d", name, got, want)
				}
			}
			if res.DeliveredSegments != tc.delivered {
				t.Errorf("DeliveredSegments = %d, want golden %d", res.DeliveredSegments, tc.delivered)
			}
			if got := fmt.Sprintf("%.9f", res.MeanSegmentDelay); got != tc.meanDelay {
				t.Errorf("MeanSegmentDelay = %s, want golden %s", got, tc.meanDelay)
			}
			if got := fmt.Sprintf("%.9f", res.AvgBlocksPerPeer); got != tc.blocksPerPeer {
				t.Errorf("AvgBlocksPerPeer = %s, want golden %s", got, tc.blocksPerPeer)
			}

			// Selecting "blind" explicitly is the same run as leaving the
			// policy unset.
			cfg.PullPolicy = "blind"
			res2, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res2.ProtocolCounters, res.ProtocolCounters) {
				t.Errorf("explicit blind diverged from default:\n%v\nvs\n%v", res2.ProtocolCounters, res.ProtocolCounters)
			}
			if res2.DeliveredSegments != res.DeliveredSegments || res2.MeanSegmentDelay != res.MeanSegmentDelay {
				t.Error("explicit blind changed windowed results")
			}
		})
	}
}

// TestFeedbackPoliciesCutRedundantPulls is the subsystem's reason to exist:
// at every seed, the rarest-first policy must strictly reduce the
// redundant-pull fraction relative to the blind baseline.
func TestFeedbackPoliciesCutRedundantPulls(t *testing.T) {
	frac := func(policy string, seed int64) float64 {
		cfg := goldenBase()
		cfg.PullPolicy = policy
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ServerPulls == 0 {
			t.Fatalf("%s seed %d: no server pulls", policy, seed)
		}
		return float64(res.RedundantPulls) / float64(res.ServerPulls)
	}
	for seed := int64(1); seed <= 8; seed++ {
		blind, rarest := frac("blind", seed), frac("rarest", seed)
		t.Logf("seed %d: blind %.3f, rarest %.3f", seed, blind, rarest)
		if rarest >= blind {
			t.Errorf("seed %d: rarest redundant fraction %.4f, want < blind %.4f", seed, rarest, blind)
		}
	}
}
