// Package experiments regenerates every evaluation figure and table of the
// paper: Fig. 3 (throughput vs segment size), Fig. 4 (throughput vs μ under
// churn), Fig. 5 (block delivery delay), Fig. 6 (data saved per peer), and
// four validation tables (storage overhead, the s=1 closed form, the
// direct-pull baseline comparison, and post-session draining).
//
// Each generator returns a Table whose series correspond to the
// curves of the figure; Render prints the rows the paper plots. The sim
// population and horizon are configurable so the same harness serves the
// CLI (full size) and the benchmarks (reduced size).
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"p2pcollect/internal/analysis"
	"p2pcollect/internal/logdata"
	"p2pcollect/internal/ode"
	"p2pcollect/internal/sim"
)

// Options scales the simulation side of every experiment.
type Options struct {
	// N is the simulated peer population.
	N int
	// Horizon and Warmup bound each simulation run.
	Horizon float64
	Warmup  float64
	// Seed makes the whole suite reproducible.
	Seed int64
	// Quick trims the parameter sweeps (fewer s values and capacities) so
	// benchmarks and smoke runs stay fast. Figure shapes remain visible.
	Quick bool
}

// DefaultOptions returns the sizes used by the CLI harness.
func DefaultOptions() Options {
	return Options{N: 300, Horizon: 40, Warmup: 15, Seed: 42}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.N == 0 {
		o.N = d.N
	}
	if o.Horizon == 0 {
		o.Horizon = d.Horizon
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// fig3SegmentSizes is the s sweep of Figs. 3, 5, and 6.
var fig3SegmentSizes = []int{1, 2, 3, 5, 8, 12, 20, 30, 50, 75, 100}

// fig3Capacities are the normalized server capacities behind the dashed
// lines of Fig. 3 (capacity = c/λ ∈ {0.2, 0.4, 0.6, 0.8} at λ = 20).
var fig3Capacities = []float64{4, 8, 12, 16}

// segmentSweep returns the s values for the figure sweeps.
func (o Options) segmentSweep() []int {
	if o.Quick {
		return []int{1, 4, 12}
	}
	return fig3SegmentSizes
}

// capacitySweep returns the c values for Fig. 3.
func (o Options) capacitySweep() []float64 {
	if o.Quick {
		return []float64{4, 12}
	}
	return fig3Capacities
}

// delayCapacitySweep returns the c values for Figs. 5 and 6.
func (o Options) delayCapacitySweep() []float64 {
	if o.Quick {
		return []float64{8}
	}
	return fig56Capacities
}

// figureCell holds one (c, s) grid point of a figure sweep.
type figureCell struct {
	ana  *analysis.Metrics
	simR *sim.Result
	err  error
}

// sweepFigure evaluates analysis and simulation over a (capacity, segment
// size) grid in parallel and assembles the requested series.
func sweepFigure(
	opt Options,
	title string,
	capacities []float64,
	withCapacityLine bool,
	seedSalt int64,
	extractAna func(*analysis.Metrics) float64,
	extractSim func(*sim.Result) float64,
) (*Table, error) {
	sizes := opt.segmentSweep()
	cells := make([]figureCell, len(capacities)*len(sizes))
	runParallel(len(cells), func(k int) {
		c := capacities[k/len(sizes)]
		s := sizes[k%len(sizes)]
		cell := &cells[k]
		m, err := analysis.Compute(ode.Params{Lambda: 20, Mu: 10, Gamma: 1, C: c, S: s})
		if err != nil {
			cell.err = fmt.Errorf("analysis s=%d c=%g: %w", s, c, err)
			return
		}
		cell.ana = m
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 20, Mu: 10, Gamma: 1, SegmentSize: s,
			BufferCap: bufferFor(20, 10, 1, s), C: c,
			Warmup: opt.Warmup, Horizon: opt.Horizon,
			Seed: opt.Seed + int64(s)*seedSalt + int64(c),
		})
		if err != nil {
			cell.err = fmt.Errorf("sim s=%d c=%g: %w", s, c, err)
			return
		}
		cell.simR = r
	})
	tbl := NewTable(title, "s")
	for ci, c := range capacities {
		var capSeries *Series
		if withCapacityLine {
			capSeries = tbl.AddSeries(fmt.Sprintf("capacity c=%g", c))
		}
		ana := tbl.AddSeries(fmt.Sprintf("analysis c=%g", c))
		simS := tbl.AddSeries(fmt.Sprintf("sim c=%g", c))
		for si, s := range sizes {
			cell := cells[ci*len(sizes)+si]
			if cell.err != nil {
				return nil, cell.err
			}
			if capSeries != nil {
				capSeries.Add(float64(s), cell.ana.Capacity)
			}
			ana.Add(float64(s), extractAna(cell.ana))
			simS.Add(float64(s), extractSim(cell.simR))
		}
	}
	return tbl, nil
}

// Fig3 reproduces "Session throughput as a function of segment size s"
// (λ=20, μ=10, γ=1). One analysis and one simulation series per c, plus the
// capacity line.
func Fig3(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	return sweepFigure(opt,
		"Fig. 3: normalized session throughput vs segment size s (lambda=20, mu=10, gamma=1)",
		opt.capacitySweep(), true, 1000,
		func(m *analysis.Metrics) float64 { return m.NormalizedThroughput },
		func(r *sim.Result) float64 { return r.NormalizedThroughput },
	)
}

// fig4Mus is the μ sweep of Fig. 4.
var fig4Mus = []float64{2, 6, 10, 14, 18}

// Fig4 reproduces "Session throughput as a function of μ under different
// scenarios" (λ=8, γ=1): ample (c=8) vs scarce (c=2) capacity, non-coding
// (s=1) vs coded (s=30), static vs severe churn (mean lifetime L=5).
func Fig4(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("Fig. 4: normalized session throughput vs mu (lambda=8, gamma=1)", "mu")
	mus := fig4Mus
	if opt.Quick {
		mus = []float64{4, 12}
	}
	type scenario struct {
		c     float64
		s     int
		churn float64
	}
	var scenarios []scenario
	for _, c := range []float64{2, 8} {
		for _, s := range []int{1, 30} {
			for _, churn := range []float64{0, 5} {
				scenarios = append(scenarios, scenario{c: c, s: s, churn: churn})
			}
		}
	}
	type fig4Cell struct {
		val float64
		err error
	}
	cells := make([]fig4Cell, len(scenarios)*len(mus))
	runParallel(len(cells), func(k int) {
		sc := scenarios[k/len(mus)]
		mu := mus[k%len(mus)]
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 8, Mu: mu, Gamma: 1, SegmentSize: sc.s,
			BufferCap: bufferFor(8, mu, 1, sc.s), C: sc.c,
			ChurnMeanLifetime: sc.churn,
			Warmup:            opt.Warmup, Horizon: opt.Horizon,
			Seed: opt.Seed + int64(mu*100) + int64(sc.s)*17 + int64(sc.c) + int64(sc.churn*3),
		})
		if err != nil {
			cells[k].err = fmt.Errorf("fig4 mu=%g %+v: %w", mu, sc, err)
			return
		}
		cells[k].val = r.NormalizedThroughput
	})
	for sci, sc := range scenarios {
		label := fmt.Sprintf("c=%g s=%d static", sc.c, sc.s)
		if sc.churn > 0 {
			label = fmt.Sprintf("c=%g s=%d churn L=%g", sc.c, sc.s, sc.churn)
		}
		series := tbl.AddSeries(label)
		for mi, mu := range mus {
			cell := cells[sci*len(mus)+mi]
			if cell.err != nil {
				return nil, cell.err
			}
			series.Add(mu, cell.val)
		}
	}
	return tbl, nil
}

// fig56Capacities are the c values for the delay and saved-data figures.
var fig56Capacities = []float64{4, 8, 16}

// Fig5 reproduces "Average block delivery delay T for different values of
// s" (λ=20, μ=10, γ=1): Theorem 3 plus the simulator's measured
// injection→delivery delay.
func Fig5(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	return sweepFigure(opt,
		"Fig. 5: average block delivery delay T vs segment size s (lambda=20, mu=10, gamma=1)",
		opt.delayCapacitySweep(), false, 977,
		func(m *analysis.Metrics) float64 { return m.BlockDelay },
		func(r *sim.Result) float64 { return r.MeanBlockDelay },
	)
}

// Fig6 reproduces "Data saved in each peer" (λ=20, μ=10, γ=1): original
// blocks buffered per peer in decodable segments the servers have not
// finished collecting (Theorem 4), analysis and simulation.
func Fig6(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	return sweepFigure(opt,
		"Fig. 6: original blocks saved per peer vs segment size s (lambda=20, mu=10, gamma=1)",
		opt.delayCapacitySweep(), false, 389,
		func(m *analysis.Metrics) float64 { return m.SavedPerPeer },
		func(r *sim.Result) float64 { return r.SavedPerPeer },
	)
}

// OverheadTable (T1) validates Theorem 1 over a μ sweep: the storage
// overhead per peer, analysis vs simulation, must stay below μ/γ.
func OverheadTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("T1: storage overhead per peer vs mu (Theorem 1; lambda=8, gamma=1, s=4)", "mu")
	bound := tbl.AddSeries("bound mu/gamma")
	ana := tbl.AddSeries("analysis")
	anaRho := tbl.AddSeries("analysis rho")
	simS := tbl.AddSeries("sim")
	simRho := tbl.AddSeries("sim rho")
	for _, mu := range []float64{2, 4, 8, 12, 16} {
		bound.Add(mu, mu)
		rho, overhead, err := analysis.OverheadOnly(ode.Params{Lambda: 8, Mu: mu, Gamma: 1, S: 4})
		if err != nil {
			return nil, fmt.Errorf("t1 analysis mu=%g: %w", mu, err)
		}
		ana.Add(mu, overhead)
		anaRho.Add(mu, rho)
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 8, Mu: mu, Gamma: 1, SegmentSize: 4,
			BufferCap: bufferFor(8, mu, 1, 4), C: 3,
			Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(mu),
		})
		if err != nil {
			return nil, fmt.Errorf("t1 sim mu=%g: %w", mu, err)
		}
		simS.Add(mu, r.StorageOverhead)
		simRho.Add(mu, r.AvgBlocksPerPeer)
	}
	return tbl, nil
}

// S1Table (T2) cross-validates the non-coding case three ways: Theorem 2's
// closed form, the numerically solved m-system, and the simulator.
func S1Table(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("T2: normalized throughput, non-coding case s=1 (lambda=20, mu=10, gamma=1)", "c")
	closed := tbl.AddSeries("closed form (Thm 2)")
	numeric := tbl.AddSeries("m-system")
	simS := tbl.AddSeries("sim")
	for _, c := range []float64{1, 2, 4, 8} {
		cf, err := analysis.ThroughputNonCoding(20, 10, 1, c)
		if err != nil {
			return nil, fmt.Errorf("t2 closed form c=%g: %w", c, err)
		}
		closed.Add(c, cf)
		m, err := analysis.Compute(ode.Params{Lambda: 20, Mu: 10, Gamma: 1, C: c, S: 1})
		if err != nil {
			return nil, fmt.Errorf("t2 m-system c=%g: %w", c, err)
		}
		numeric.Add(c, m.NormalizedThroughput)
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 20, Mu: 10, Gamma: 1, SegmentSize: 1,
			BufferCap: bufferFor(20, 10, 1, 1), C: c,
			Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(c)*7,
		})
		if err != nil {
			return nil, fmt.Errorf("t2 sim c=%g: %w", c, err)
		}
		simS.Add(c, r.NormalizedThroughput)
	}
	return tbl, nil
}

// BaselineTable (T3) reproduces the motivation of Fig. 1: a flash crowd
// with churn, servers provisioned near the *average* load. Rows compare
// delivered fraction and losses for direct pull vs indirect collection.
func BaselineTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	const (
		lambdaBase = 2.0
		lambdaPeak = 10.0
		burstStart = 15.0
		burstRamp  = 2.0
		burstEnd   = 25.0
		churnLife  = 20.0
	)
	horizon := math.Max(opt.Horizon, 60)
	rate := logdata.FlashCrowdRate(lambdaBase, lambdaPeak, burstStart, burstRamp, burstEnd)
	// Provision the servers for ~1.25× the *average* load — the paper's
	// thesis — which is far below the burst peak. Mean of the trapezoidal
	// rate profile over [0, horizon]:
	meanLambda := (lambdaBase*(horizon-(burstEnd-burstStart)-burstRamp) +
		lambdaPeak*(burstEnd-burstStart) +
		(lambdaBase+lambdaPeak)/2*2*burstRamp) / horizon
	capacity := 1.5 * meanLambda

	direct, err := sim.RunBaseline(sim.BaselineConfig{
		N: opt.N, LambdaAt: rate, LambdaPeak: lambdaPeak, C: capacity,
		BufferCap: 15, ChurnMeanLifetime: churnLife,
		Warmup: 5, Horizon: horizon, Seed: opt.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("t3 baseline: %w", err)
	}
	// The indirect scheme under the same average offered load (the DES
	// models a homogeneous Poisson stream at the mean rate); the buffering
	// zone absorbs the peak-vs-average gap. Under churn a short TTL is the
	// right choice: blocks are short-lived anyway, and what matters is that
	// pulls outpace the degree decay (see EXPERIMENTS.md).
	indirect, err := sim.Run(sim.Config{
		N: opt.N, Lambda: meanLambda, Mu: 8, Gamma: 1, SegmentSize: 8,
		BufferCap: 256, C: capacity, ChurnMeanLifetime: churnLife,
		Warmup: 5, Horizon: horizon, Seed: opt.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("t3 indirect: %w", err)
	}

	tbl := NewTable("T3: flash crowd + churn, direct pull vs indirect collection (c = 1.5x average load; rows: 1 delivered fraction, 2 loss fraction, 3 departed-peer data recovered, 4 mean block delay)", "row")
	d := tbl.AddSeries("direct pull")
	ind := tbl.AddSeries("indirect (s=8)")
	// Row 1: delivered fraction of offered load.
	d.Add(1, direct.NormalizedThroughput)
	ind.Add(1, indirect.NormalizedThroughput)
	// Row 2: fraction of generated blocks lost.
	d.Add(2, direct.LossFraction())
	lostBlocks := float64(indirect.LostSegments) * float64(indirect.Config.SegmentSize)
	ind.Add(2, lostBlocks/math.Max(1, float64(indirect.InjectedBlocks)))
	// Row 3: of the segments orphaned by a departure before delivery, the
	// fraction the servers still recovered afterwards. A direct-pull
	// architecture loses a departed peer's queued statistics by
	// construction, which is the paper's core resilience argument.
	d.Add(3, 0)
	ind.Add(3, float64(indirect.PostmortemDelivered)/math.Max(1, float64(indirect.OrphanedSegments)))
	// Row 4: mean block delay.
	d.Add(4, direct.MeanBlockDelay)
	ind.Add(4, indirect.MeanBlockDelay)
	return tbl, nil
}

// DrainTable (T4) demonstrates Theorem 4: injection stops mid-run and the
// servers keep harvesting the buffered backlog afterwards.
func DrainTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	stop := opt.Horizon / 2
	tbl := NewTable(fmt.Sprintf("T4: post-session delayed delivery (injection stops at t=%g; lambda=12, mu=8, gamma=1, c=2)", stop), "s")
	backlog := tbl.AddSeries("backlog segments at stop")
	drained := tbl.AddSeries("delivered after stop")
	savedAna := tbl.AddSeries("analysis saved/peer")
	savedSim := tbl.AddSeries("sim saved/peer at stop")
	for _, segSize := range []int{4, 16} {
		s, err := sim.New(sim.Config{
			N: opt.N, Lambda: 12, Mu: 8, Gamma: 1, SegmentSize: segSize,
			BufferCap: bufferFor(12, 8, 1, segSize), C: 2,
			InjectUntil: stop, Warmup: opt.Warmup,
			Horizon: opt.Horizon, Seed: opt.Seed + int64(segSize),
		})
		if err != nil {
			return nil, fmt.Errorf("t4 sim s=%d: %w", segSize, err)
		}
		s.RunUntil(stop)
		var pending, savedBlocks int
		s.ForEachSegment(func(v sim.SegmentView) {
			if !v.Delivered {
				pending++
				if v.Degree >= segSize {
					savedBlocks += segSize
				}
			}
		})
		before := s.Result().DeliveredSegments
		s.RunUntil(opt.Horizon)
		after := s.Result().DeliveredSegments
		backlog.Add(float64(segSize), float64(pending))
		drained.Add(float64(segSize), float64(after-before))
		savedSim.Add(float64(segSize), float64(savedBlocks)/float64(opt.N))
		m, err := analysis.Compute(ode.Params{Lambda: 12, Mu: 8, Gamma: 1, C: 2, S: segSize})
		if err != nil {
			return nil, fmt.Errorf("t4 analysis s=%d: %w", segSize, err)
		}
		savedAna.Add(float64(segSize), m.SavedPerPeer)
	}
	return tbl, nil
}

// AblationTable (A1) quantifies the paper's mean-field sampling
// approximation: the ODE assumes gossip and pulls hit a segment with
// probability deg/E, while the literal protocol of §2 picks uniformly among
// a random peer's distinct segments. Running the simulator both ways
// isolates the gap, which grows with s and c.
func AblationTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("A1: mean-field sampling ablation, normalized throughput (lambda=20, mu=10, gamma=1, c=16)", "s")
	ana := tbl.AddSeries("ODE (Thm 2)")
	meanField := tbl.AddSeries("sim, degree-proportional sampling")
	protocol := tbl.AddSeries("sim, literal protocol")
	ablationSizes := []int{1, 5, 20, 50, 100}
	if opt.Quick {
		ablationSizes = []int{1, 20}
	}
	for _, s := range ablationSizes {
		m, err := analysis.Compute(ode.Params{Lambda: 20, Mu: 10, Gamma: 1, C: 16, S: s})
		if err != nil {
			return nil, fmt.Errorf("a1 analysis s=%d: %w", s, err)
		}
		ana.Add(float64(s), m.NormalizedThroughput)
		for _, mf := range []bool{true, false} {
			r, err := sim.Run(sim.Config{
				N: opt.N, Lambda: 20, Mu: 10, Gamma: 1, SegmentSize: s,
				BufferCap: bufferFor(20, 10, 1, s), C: 16, MeanFieldSampling: mf,
				Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(s),
			})
			if err != nil {
				return nil, fmt.Errorf("a1 sim s=%d mf=%v: %w", s, mf, err)
			}
			if mf {
				meanField.Add(float64(s), r.NormalizedThroughput)
			} else {
				protocol.Add(float64(s), r.NormalizedThroughput)
			}
		}
	}
	return tbl, nil
}

// FeedbackTable (A2) measures the extension the paper leaves open: an
// idealized server→peer feedback channel that purges delivered segments
// from peer buffers, freeing pull capacity and storage for undelivered
// data. Rows sweep the capacity ratio c/λ.
func FeedbackTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("A2: server-feedback extension, normalized throughput (lambda=10, mu=8, gamma=1, s=8)", "c")
	plain := tbl.AddSeries("base protocol")
	withFB := tbl.AddSeries("with feedback purge")
	purged := tbl.AddSeries("blocks purged/peer/time")
	cs := []float64{2, 4, 8}
	if opt.Quick {
		cs = []float64{4}
	}
	for _, c := range cs {
		cfg := sim.Config{
			N: opt.N, Lambda: 10, Mu: 8, Gamma: 1, SegmentSize: 8,
			BufferCap: bufferFor(10, 8, 1, 8), C: c,
			Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(c),
		}
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("a2 base c=%g: %w", c, err)
		}
		plain.Add(c, r.NormalizedThroughput)
		cfg.ServerFeedback = true
		rf, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("a2 feedback c=%g: %w", c, err)
		}
		withFB.Add(c, rf.NormalizedThroughput)
		purged.Add(c, float64(rf.BlocksPurgedByFeedback)/(float64(opt.N)*opt.Horizon))
	}
	return tbl, nil
}

// ServersTable (A3) removes the server collaboration the paper's model
// assumes (pulled blocks pool into one collection state): with independent
// servers each must gather s blocks alone, and completed-segment
// throughput falls as N_s grows. Rows sweep N_s at fixed aggregate
// capacity.
func ServersTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("A3: server collaboration ablation, delivered-segment throughput (lambda=10, mu=8, gamma=1, s=8, c=4)", "Ns")
	collab := tbl.AddSeries("collaborating (paper)")
	indep := tbl.AddSeries("independent")
	counts := []int{1, 2, 4, 8}
	if opt.Quick {
		counts = []int{1, 4}
	}
	for _, ns := range counts {
		cfg := sim.Config{
			N: opt.N, Lambda: 10, Mu: 8, Gamma: 1, SegmentSize: 8,
			BufferCap: bufferFor(10, 8, 1, 8), C: 4, NumServers: ns,
			Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(ns),
		}
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("a3 collab Ns=%d: %w", ns, err)
		}
		collab.Add(float64(ns), r.DeliveredNormalizedThroughput)
		cfg.IndependentServers = true
		ri, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("a3 indep Ns=%d: %w", ns, err)
		}
		indep.Add(float64(ns), ri.DeliveredNormalizedThroughput)
	}
	return tbl, nil
}

// TransientTable (T5) validates the differential-equation characterization
// itself: Wormald's theorem [12] says the rescaled finite-N process tracks
// the ODE trajectory, so e(t) measured in a simulator started from the
// empty network must follow the integrated z system, not just its fixed
// point. Rows are time samples.
func TransientTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	p := ode.Params{Lambda: 8, Mu: 6, Gamma: 1, S: 4}
	horizon := math.Min(opt.Horizon, 16)
	const interval = 1.0
	const c = 2.0
	tbl := NewTable("T5: transient from the empty network, ODE vs simulation (lambda=8, mu=6, gamma=1, s=4, c=2)", "t")
	anaE := tbl.AddSeries("ODE e(t)")
	simE := tbl.AddSeries("sim e(t)")
	anaEta := tbl.AddSeries("ODE eta(t)")
	simEta := tbl.AddSeries("sim eta(t)")

	p.C = c
	traj, err := ode.EvolveFull(p, horizon+1e-9, interval)
	if err != nil {
		return nil, fmt.Errorf("t5 ode: %w", err)
	}
	for _, pt := range traj {
		anaE.Add(math.Round(pt.T), pt.E)
		anaEta.Add(math.Round(pt.T), pt.Eta)
	}
	s, err := sim.New(sim.Config{
		N: opt.N, Lambda: p.Lambda, Mu: p.Mu, Gamma: p.Gamma, SegmentSize: p.S,
		BufferCap: bufferFor(p.Lambda, p.Mu, p.Gamma, p.S), C: c,
		Warmup: horizon / 2, Horizon: horizon, Seed: opt.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("t5 sim: %w", err)
	}
	// The trajectory is a sequence of registry scrapes, one per interval.
	reg := s.Registry()
	var prevPulls, prevUseful int64
	for t := 0.0; t <= horizon; t += interval {
		s.RunUntil(t)
		snap := reg.Snapshot()
		simE.Add(t, snap.Gauges["blocksPerPeer"])
		pulls, useful := snap.Counters["serverPulls"], snap.Counters["usefulPulls"]
		// Windowed efficiency between consecutive scrapes; skip empty
		// windows (no pulls yet).
		if dPulls := pulls - prevPulls; t > 0 && dPulls > 0 {
			simEta.Add(t, float64(useful-prevUseful)/float64(dPulls))
		}
		prevPulls, prevUseful = pulls, useful
	}
	return tbl, nil
}

// TopologyTable (A4) relaxes the analysis's full-mesh assumption: gossip
// targets come from a bounded-degree random overlay (each peer links to k
// partners). Rows sweep k; the full mesh is the paper's reference point.
func TopologyTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	tbl := NewTable("A4: overlay connectivity ablation, normalized throughput (lambda=10, mu=8, gamma=1, s=8, c=4)", "k")
	series := tbl.AddSeries("sim")
	degrees := []int{1, 2, 4, 8, 16}
	if opt.Quick {
		degrees = []int{2, 8}
	}
	type cell struct {
		val float64
		err error
	}
	cells := make([]cell, len(degrees)+1)
	runParallel(len(cells), func(i int) {
		deg := 0 // full mesh sentinel for the last slot
		if i < len(degrees) {
			deg = degrees[i]
		}
		r, err := sim.Run(sim.Config{
			N: opt.N, Lambda: 10, Mu: 8, Gamma: 1, SegmentSize: 8,
			BufferCap: bufferFor(10, 8, 1, 8), C: 4, Degree: deg,
			Warmup: opt.Warmup, Horizon: opt.Horizon, Seed: opt.Seed + int64(deg),
		})
		if err != nil {
			cells[i].err = fmt.Errorf("a4 k=%d: %w", deg, err)
			return
		}
		cells[i].val = r.NormalizedThroughput
	})
	for i, deg := range degrees {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
		series.Add(float64(deg), cells[i].val)
	}
	last := cells[len(degrees)]
	if last.err != nil {
		return nil, last.err
	}
	mesh := tbl.AddSeries("full mesh (paper)")
	for _, deg := range degrees {
		mesh.Add(float64(deg), last.val)
	}
	return tbl, nil
}

// FlashJoinTable (T6) is the introduction's scenario measured directly: a
// flash crowd of arrivals doubles the population at t=20, the crowd leaves
// again at t=35, and the logging servers keep the capacity provisioned for
// the initial session (0.75x its demand). Rows are time-window starts;
// values are each architecture's delivered fraction of the load offered in
// that window. The indirect mechanism's delivered fraction *overshoots*
// after the crowd leaves — the buffered backlog draining in delayed
// fashion — while the direct architecture's overflow and departed-peer
// losses are permanent.
func FlashJoinTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	const (
		lambda    = 8.0
		joinTime  = 20.0
		leaveTime = 35.0
		window    = 5.0
		joinScale = 1 // peers added = joinScale x N
	)
	horizon := math.Max(opt.Horizon, 70)
	tbl := NewTable(
		fmt.Sprintf("T6: transient flash crowd (x%d arrivals at t=%g, departing t=%g; servers fixed at 0.75x initial demand; lambda=%g)",
			joinScale+1, joinTime, leaveTime, lambda), "window start")
	indirectS := tbl.AddSeries("indirect delivered fraction")
	directS := tbl.AddSeries("direct delivered fraction")
	population := tbl.AddSeries("population")

	// A longer TTL (gamma=0.25) gives the network the buffering slack that
	// makes delayed delivery of the burst data visible.
	const gamma = 0.25
	s, err := sim.New(sim.Config{
		N: opt.N, Lambda: lambda, Mu: 6, Gamma: gamma, SegmentSize: 8,
		BufferCap: int(4*(lambda+6)/gamma) + 48, C: 0.75 * lambda,
		Warmup: 0.1, Horizon: horizon, Seed: opt.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("t6 indirect: %w", err)
	}
	// Track the eventual fate of data injected during the burst window.
	var burstDelivered int64
	s.OnDeliver(func(v sim.SegmentView) {
		if v.InjectTime >= joinTime && v.InjectTime < leaveTime {
			burstDelivered++
		}
	})
	// Step through the run one window at a time, scraping the registry at
	// each window boundary; the crowd arrives and leaves right after the
	// scrapes at joinTime and leaveTime.
	reg := s.Registry()
	var crowd []int
	var injAtJoin, injAtLeave, prevInj, prevUseful int64
	for t := 0.0; t <= horizon; t += window {
		s.RunUntil(t)
		c := reg.Snapshot().Counters
		inj, useful := c["injectedBlocks"], c["usefulPulls"]
		if offered := float64(inj - prevInj); t > 0 && offered > 0 {
			indirectS.Add(t-window, float64(useful-prevUseful)/offered)
			population.Add(t-window, float64(s.Population()))
		}
		prevInj, prevUseful = inj, useful
		switch t {
		case joinTime:
			injAtJoin = inj
			crowd = s.AddPeers(joinScale * opt.N)
		case leaveTime:
			injAtLeave = inj
			for _, pi := range crowd {
				s.RemovePeer(pi)
			}
		}
	}
	s.RunUntil(horizon)

	d, err := sim.NewBaseline(sim.BaselineConfig{
		N: opt.N, Lambda: lambda, C: 0.75 * lambda, BufferCap: 20,
		Warmup: 0.1, Horizon: horizon, Seed: opt.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("t6 direct: %w", err)
	}
	var dCrowd []int
	crowdGone := false
	prevGen, prevCol := int64(0), int64(0)
	for t := window; t <= horizon+1e-9; t += window {
		d.RunUntil(math.Min(t, horizon))
		gen, col := d.Generated(), d.Collected()
		if dGen := gen - prevGen; dGen > 0 {
			directS.Add(t-window, float64(col-prevCol)/float64(dGen))
		}
		prevGen, prevCol = gen, col
		if t >= joinTime && dCrowd == nil {
			dCrowd = d.AddPeers(joinScale * opt.N)
		}
		if t >= leaveTime && dCrowd != nil && !crowdGone {
			for _, pi := range dCrowd {
				d.RemovePeer(pi)
			}
			crowdGone = true
		}
	}
	// Summary row at x = -1: the fraction of the burst-window data the
	// indirect mechanism eventually delivered (exact attribution by segment
	// injection time — segments delivered even after their origins left),
	// next to the hard feasibility bound capacity/offered for that window.
	// The direct architecture has no deferred-delivery path: whatever its
	// servers could not pull during the burst is gone with the crowd.
	burstSummary := tbl.AddSeries("indirect burst data eventually delivered (x=-1)")
	feasible := tbl.AddSeries("capacity bound during burst (x=-1)")
	burstOffered := float64(injAtLeave - injAtJoin)
	if burstOffered > 0 {
		burstSummary.Add(-1, float64(burstDelivered)*8/burstOffered)
		feasible.Add(-1, 0.75*lambda*float64(opt.N)*(leaveTime-joinTime)/burstOffered)
	}
	return tbl, nil
}

// experiment is one row of the experiment table: the name collectsim
// takes, the short label EXPERIMENTS.md files it under (t1, a7, ...; empty
// for the paper's figures), and its generator.
type experiment struct {
	name, alias string
	run         func(Options) (*Table, error)
}

// experiments is the one list of experiments, in the order All runs them.
var experiments = []experiment{
	{"fig3", "", Fig3},
	{"fig4", "", Fig4},
	{"fig5", "", Fig5},
	{"fig6", "", Fig6},
	{"overhead", "t1", OverheadTable},
	{"s1", "t2", S1Table},
	{"baseline", "t3", BaselineTable},
	{"drain", "t4", DrainTable},
	{"ablation", "a1", AblationTable},
	{"feedback", "a2", FeedbackTable},
	{"transient", "t5", TransientTable},
	{"servers", "a3", ServersTable},
	{"flashjoin", "t6", FlashJoinTable},
	{"topology", "a4", TopologyTable},
	{"codingcost", "a5", CodingCostTable},
	{"pullsched", "a6", PullPolicyTable},
	{"obs", "a7", ObsTable},
	{"fleet", "a8", FleetScalingTable},
}

// All runs every experiment and writes the rendered tables to w.
func All(opt Options, w io.Writer) error {
	for _, e := range experiments {
		tbl, err := e.run(opt)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.name, err)
		}
		if _, err := io.WriteString(w, tbl.Render()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// ByName returns the generator for an experiment, by name or alias.
func ByName(name string) (func(Options) (*Table, error), bool) {
	for _, e := range experiments {
		if name == e.name || (name == e.alias && e.alias != "") {
			return e.run, true
		}
	}
	return nil, false
}

// Names lists every experiment in run order, each alias in parentheses
// after its name: "fig3, ..., overhead (t1), ...".
func Names() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
		if e.alias != "" {
			names[i] += " (" + e.alias + ")"
		}
	}
	return strings.Join(names, ", ")
}

// bufferFor sizes B comfortably above the Theorem 1 occupancy for the given
// rates, plus headroom for the batch arrivals of size s.
func bufferFor(lambda, mu, gamma float64, s int) int {
	return int(4*(lambda+mu)/gamma) + 4*s + 16
}

// runParallel runs job(0..n-1) across GOMAXPROCS workers and waits for
// completion; jobs report failures through shared state they own. Work is
// handed out through a shared atomic counter, so there is no dispatcher
// goroutine and no per-item channel rendezvous — a worker grabs the next
// index the moment it finishes the previous one. A panic in any job is
// captured and re-raised on the caller's goroutine after all workers drain,
// instead of killing the process from an anonymous worker with the
// dispatch stack.
func runParallel(n int, job func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
		stack   []byte
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
						stack = debug.Stack()
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				job(int(i))
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(fmt.Sprintf("experiments: worker panic: %v\n%s", panicV, stack))
	}
}
