package experiments

import (
	"fmt"

	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/sim"
)

// PullPolicyTable (A6) measures the pull-scheduling extension: the paper's
// servers pull blindly — a uniformly random peer, a random buffered
// segment — so near the end of a segment's collection most pulls land on
// already-delivered data (the coupon-collector tail). The pullsched
// policies spend the feedback already in every pull reply to aim instead.
// Rows compare the policies at one fixed seed: (1) redundant-pull
// fraction, (2) server pulls per delivered segment, (3) delivered
// segments, (4) mean segment delivery delay. Blind is the paper-faithful
// baseline; its column is the reference rarest must beat.
func PullPolicyTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("A6: pull-scheduling policies (lambda=8, mu=10, gamma=1, s=8, c=4, Ns=2; rows: 1 redundant-pull fraction, 2 pulls per delivered segment, 3 delivered segments, 4 mean segment delay)", "row")
	policies := pullsched.Names()
	type cell struct {
		r   *sim.Result
		err error
	}
	cells := make([]cell, len(policies))
	runParallel(len(cells), func(i int) {
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 8, Mu: 10, Gamma: 1, SegmentSize: 8,
			BufferCap: bufferFor(8, 10, 1, 8), C: 4, NumServers: 2,
			PullPolicy: policies[i],
			Warmup:     opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed,
		})
		if err != nil {
			cells[i].err = fmt.Errorf("a6 %s: %w", policies[i], err)
			return
		}
		cells[i].r = r
	})
	for i, policy := range policies {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
		r := cells[i].r
		s := tbl.AddSeries(policy)
		pulls := float64(r.ServerPulls)
		if pulls == 0 {
			return nil, fmt.Errorf("a6 %s: no server pulls", policy)
		}
		s.Add(1, float64(r.RedundantPulls)/pulls)
		delivered := float64(r.DeliveredSegments)
		if delivered > 0 {
			s.Add(2, pulls/delivered)
		}
		s.Add(3, delivered)
		s.Add(4, r.MeanSegmentDelay)
	}
	return tbl, nil
}
