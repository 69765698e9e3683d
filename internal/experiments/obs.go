package experiments

import (
	"fmt"

	"p2pcollect/internal/metrics"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/ode"
	"p2pcollect/internal/sim"
)

// obsSeedSalt decorrelates the A7 run from the other experiments.
const obsSeedSalt = 700

// ObsTable (A7) validates the observability layer end to end against the
// analysis: one mean-field run whose measurements are read back
// exclusively through the obs registry snapshot — the same scrape a live
// debug endpoint serves — never from simulator internals. The run is
// scraped the way Prometheus scrapes an endpoint: every interval of
// simulated time the occupancy and empty-peer-fraction gauges are read,
// and the resulting trajectories are overlaid on the ODE's e(t)/z_0(t).
// The title row reports the delivery-delay p50/p90/p99 from the histogram
// scraped at the horizon. If the obs plumbing dropped or mislabeled a
// reading, the curves would visibly diverge from the prediction.
func ObsTable(opt Options) (*metrics.Table, error) {
	opt = opt.withDefaults()
	const (
		lambda = 20.0
		mu     = 10.0
		gamma  = 1.0
		c      = 12.0
		segSz  = 8
	)
	interval := opt.Horizon / 40

	s, err := sim.New(sim.Config{
		N: opt.N, Lambda: lambda, Mu: mu, Gamma: gamma,
		SegmentSize: segSz, C: c, MeanFieldSampling: true,
		Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + obsSeedSalt,
		Tracer: obs.NewRingTracer(1 << 12),
	})
	if err != nil {
		return nil, fmt.Errorf("a7 sim: %w", err)
	}
	reg := s.Registry()

	tbl := metrics.NewTable(
		fmt.Sprintf("A7: observability scrape vs ODE (lambda=%g mu=%g gamma=%g c=%g s=%d, sampled every %.2g)",
			lambda, mu, gamma, c, segSz, interval), "t")
	simBlocks := tbl.AddSeries("scraped blocks/peer")
	odeBlocks := tbl.AddSeries("ODE e(t)")
	simZ0 := tbl.AddSeries("scraped empty fraction")
	odeZ0 := tbl.AddSeries("ODE z0(t)")

	for t := 0.0; t <= opt.Horizon; t += interval {
		s.RunUntil(t)
		g := reg.Snapshot().Gauges
		blocks, ok := g["blocksPerPeer"]
		if !ok {
			return nil, fmt.Errorf("a7: registry scrape carried no occupancy gauge")
		}
		simBlocks.Add(t, blocks)
		simZ0.Add(t, g["emptyPeerFrac"])
	}
	s.RunUntil(opt.Horizon)
	snap := reg.Snapshot()

	traj, err := ode.EvolveE(ode.Params{Lambda: lambda, Mu: mu, Gamma: gamma, C: c, S: segSz},
		opt.Horizon, interval)
	if err != nil {
		return nil, fmt.Errorf("a7 ode: %w", err)
	}
	for _, p := range traj {
		odeBlocks.Add(p.T, p.E)
		odeZ0.Add(p.T, p.Z0)
	}

	for _, h := range snap.Histograms {
		if h.Name == "deliveryDelay" && h.Count > 0 {
			tbl.Title += fmt.Sprintf(" | delivery delay p50=%.2f p90=%.2f p99=%.2f (n=%d)",
				h.P50, h.P90, h.P99, h.Count)
		}
	}
	return tbl, nil
}
