package sim

import (
	"errors"
	"fmt"

	"p2pcollect/internal/des"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
)

// BaselineConfig parameterizes the traditional logging-server architecture
// of Fig. 1(a): every peer queues its own statistics blocks and the servers
// pull directly from the peers. There is no gossip, no coding, and no TTL —
// a block either reaches a server or is lost to buffer overflow or peer
// departure.
type BaselineConfig struct {
	// N is the number of peers.
	N int
	// Lambda is the per-peer block generation rate. LambdaAt, when non-nil,
	// overrides it with a time-varying rate (flash crowds); it must be
	// bounded by LambdaPeak.
	Lambda     float64
	LambdaAt   func(t float64) float64
	LambdaPeak float64
	// C is the normalized aggregate server capacity c = c_s·N_s/N, split
	// over DefaultNumServers servers.
	C float64
	// BufferCap bounds each peer's unreported-block queue.
	BufferCap int
	// ChurnMeanLifetime is the replacement-model mean lifetime; zero
	// disables churn.
	ChurnMeanLifetime float64
	// Warmup and Horizon are as in Config.
	Warmup  float64
	Horizon float64
	// Seed makes the run reproducible.
	Seed int64
}

func (c BaselineConfig) withDefaults() BaselineConfig {
	if c.BufferCap == 0 {
		c.BufferCap = DefaultBufferCap
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.LambdaAt != nil && c.LambdaPeak == 0 {
		c.LambdaPeak = c.Lambda
	}
	return c
}

func (c BaselineConfig) validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("sim: baseline N = %d", c.N)
	case c.Lambda < 0:
		return errors.New("sim: negative Lambda")
	case c.LambdaAt != nil && c.LambdaPeak <= 0:
		return errors.New("sim: LambdaAt requires positive LambdaPeak")
	case c.C < 0:
		return errors.New("sim: negative C")
	case c.BufferCap < 1:
		return errors.New("sim: BufferCap must be positive")
	case c.ChurnMeanLifetime < 0:
		return errors.New("sim: negative ChurnMeanLifetime")
	case c.Warmup >= c.Horizon:
		return fmt.Errorf("sim: Warmup %v >= Horizon %v", c.Warmup, c.Horizon)
	}
	return nil
}

// BaselineResult aggregates a baseline run.
type BaselineResult struct {
	Config BaselineConfig
	Window float64

	Generated            int64 // blocks generated (whole run)
	Collected            int64 // blocks pulled within the window
	Throughput           float64
	NormalizedThroughput float64 // Throughput / (N · mean lambda over window)
	MeanBlockDelay       float64 // generation → pull

	LostToOverflow  int64
	LostToDeparture int64
	Departures      int64
	AvgQueuePerPeer float64
}

// LossFraction returns the fraction of generated blocks lost over the whole
// run (blocks still queued at the end are not counted as lost).
func (r *BaselineResult) LossFraction() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.LostToOverflow+r.LostToDeparture) / float64(r.Generated)
}

// Baseline is the direct-pull simulator. RunBaseline runs it over the
// whole horizon; experiments that change the session mid-run (population
// growth, drains) step it like a Simulator.
type Baseline struct {
	cfg   BaselineConfig
	rng   *randx.Rand
	clock *des.Sim

	queues   []baselineQueue
	nonEmpty *indexSet

	generated        int64
	collected        int64
	delay            obs.Mean
	queuePerPeer     obs.Mean
	lostToOverflow   int64
	lostToDeparture  int64
	departures       int64
	totalQueued      int64
	lambdaIntegral   float64 // ∫ lambda dt over the window, for normalization
	lastLambdaSample float64
}

// baselineQueue is one peer's FIFO of unreported block generation times.
type baselineQueue struct {
	times []float64
	dead  bool
}

// RunBaseline executes the traditional direct-pull architecture and returns
// its measurements.
func RunBaseline(cfg BaselineConfig) (*BaselineResult, error) {
	b, err := NewBaseline(cfg)
	if err != nil {
		return nil, err
	}
	b.RunUntil(b.cfg.Horizon)
	return b.Result(), nil
}

// NewBaseline validates the configuration and builds the direct-pull
// simulator with all processes scheduled.
func NewBaseline(cfg BaselineConfig) (*Baseline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Baseline{
		cfg:      cfg,
		rng:      randx.New(cfg.Seed),
		clock:    des.New(),
		queues:   make([]baselineQueue, cfg.N),
		nonEmpty: newIndexSet(cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		b.schedulePeer(i)
	}
	if cfg.C > 0 {
		perServer := cfg.C * float64(cfg.N) / DefaultNumServers
		for j := 0; j < DefaultNumServers; j++ {
			b.clock.After(b.rng.Exp(perServer), func() { b.pullTick(perServer) })
		}
	}
	b.lastLambdaSample = cfg.Warmup
	b.clock.After(sampleInterval, b.sampleTick)
	return b, nil
}

// RunUntil advances the simulation to the given time.
func (b *Baseline) RunUntil(t float64) { b.clock.RunUntil(t) }

// Now returns the current simulated time.
func (b *Baseline) Now() float64 { return b.clock.Now() }

// AddPeers grows the session by k freshly joined peers (flash crowd of
// arrivals); the servers keep their provisioned capacity. The returned
// slot indices can later be passed to RemovePeer.
func (b *Baseline) AddPeers(k int) []int {
	slots := make([]int, 0, k)
	for i := 0; i < k; i++ {
		pi := len(b.queues)
		b.queues = append(b.queues, baselineQueue{})
		b.nonEmpty.grow(len(b.queues))
		b.schedulePeer(pi)
		slots = append(slots, pi)
	}
	return slots
}

// RemovePeer departs the peer in slot pi permanently: its unreported queue
// is lost, as the direct architecture cannot recover departed data.
func (b *Baseline) RemovePeer(pi int) {
	if b.queues[pi].dead {
		return
	}
	b.leave(pi)
	b.queues[pi].dead = true
}

// leave is the departure of the peer in slot i, replaced or not: its
// unreported blocks are lost.
func (b *Baseline) leave(i int) {
	q := &b.queues[i]
	b.departures++
	b.lostToDeparture += int64(len(q.times))
	b.totalQueued -= int64(len(q.times))
	q.times = nil
	b.nonEmpty.remove(i)
}

// Population returns the number of live peers.
func (b *Baseline) Population() int {
	n := 0
	for i := range b.queues {
		if !b.queues[i].dead {
			n++
		}
	}
	return n
}

// Collected returns the cumulative blocks pulled inside the measurement
// window so far.
func (b *Baseline) Collected() int64 { return b.collected }

// Generated returns the cumulative blocks generated so far.
func (b *Baseline) Generated() int64 { return b.generated }

// schedulePeer starts the generation and lifetime processes for queue pi.
func (b *Baseline) schedulePeer(pi int) {
	b.clock.After(b.nextGenDelay(), func() { b.generateTick(pi) })
	if b.cfg.ChurnMeanLifetime > 0 {
		b.clock.After(b.rng.Exp(1/b.cfg.ChurnMeanLifetime), func() { b.departTick(pi) })
	}
}

// nextGenDelay samples the next inter-generation gap. Time-varying rates
// use thinning against the peak, implemented by resampling in generateTick.
func (b *Baseline) nextGenDelay() float64 {
	if b.cfg.LambdaAt != nil {
		return b.rng.Exp(b.cfg.LambdaPeak)
	}
	return b.rng.Exp(b.cfg.Lambda)
}

func (b *Baseline) generateTick(i int) {
	if b.queues[i].dead {
		return // departed without replacement; process ends
	}
	accept := true
	if b.cfg.LambdaAt != nil {
		accept = b.rng.Float64() <= b.cfg.LambdaAt(b.clock.Now())/b.cfg.LambdaPeak
	}
	if accept {
		b.generate(i)
	}
	b.clock.After(b.nextGenDelay(), func() { b.generateTick(i) })
}

func (b *Baseline) generate(i int) {
	b.generated++
	q := &b.queues[i]
	if len(q.times) >= b.cfg.BufferCap {
		b.lostToOverflow++
		return
	}
	q.times = append(q.times, b.clock.Now())
	b.totalQueued++
	if len(q.times) == 1 {
		b.nonEmpty.add(i)
	}
}

func (b *Baseline) pullTick(rate float64) {
	b.pull()
	b.clock.After(b.rng.Exp(rate), func() { b.pullTick(rate) })
}

func (b *Baseline) pull() {
	i, ok := b.nonEmpty.sample(b.rng)
	if !ok {
		return
	}
	q := &b.queues[i]
	genTime := q.times[0]
	q.times = q.times[1:]
	b.totalQueued--
	if len(q.times) == 0 {
		b.nonEmpty.remove(i)
	}
	if b.clock.Now() >= b.cfg.Warmup {
		b.collected++
		b.delay.Add(b.clock.Now() - genTime)
	}
}

func (b *Baseline) departTick(i int) {
	if b.queues[i].dead {
		return
	}
	b.leave(i)
	b.clock.After(b.rng.Exp(1/b.cfg.ChurnMeanLifetime), func() { b.departTick(i) })
}

func (b *Baseline) sampleTick() {
	now := b.clock.Now()
	if now >= b.cfg.Warmup {
		if live := b.Population(); live > 0 {
			b.queuePerPeer.Add(float64(b.totalQueued) / float64(live))
		}
		rate := b.cfg.Lambda
		if b.cfg.LambdaAt != nil {
			rate = b.cfg.LambdaAt(now)
		}
		b.lambdaIntegral += rate * (now - b.lastLambdaSample)
		b.lastLambdaSample = now
	}
	b.clock.After(sampleInterval, b.sampleTick)
}

// Result assembles the run's measurements.
func (b *Baseline) Result() *BaselineResult {
	window := b.clock.Now() - b.cfg.Warmup
	r := &BaselineResult{
		Config:          b.cfg,
		Window:          window,
		Generated:       b.generated,
		Collected:       b.collected,
		LostToOverflow:  b.lostToOverflow,
		LostToDeparture: b.lostToDeparture,
		Departures:      b.departures,
	}
	if window > 0 {
		r.Throughput = float64(b.collected) / window
		meanLambda := b.cfg.Lambda
		if b.cfg.LambdaAt != nil {
			meanLambda = b.lambdaIntegral / window
		}
		if meanLambda > 0 {
			r.NormalizedThroughput = r.Throughput / (float64(len(b.queues)) * meanLambda)
		}
	}
	if b.delay.N() > 0 {
		r.MeanBlockDelay = b.delay.Mean()
	}
	if b.queuePerPeer.N() > 0 {
		r.AvgQueuePerPeer = b.queuePerPeer.Mean()
	}
	return r
}
