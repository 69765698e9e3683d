package obs

// Gauge is a spot value with atomic set/read — buffer occupancy, outbox
// depth, current rank. Unlike a Histogram it has no history; pair it with
// a TimeSeries when the trajectory matters.
type Gauge struct {
	name string
	val  atomicFloat
}

// NewGauge returns a gauge with the given metric name.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Name returns the gauge's metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.val.Store(v) }

// Add increments the current value by d (d may be negative).
func (g *Gauge) Add(d float64) { g.val.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.Load() }

// Point is one (time, value) sample. T is whatever clock the driver runs
// on: simulated time in the DES, wall seconds since start in live runs.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// TimeSeries is a bounded ring of samples: once capacity is reached the
// oldest sample is dropped, so a long-running endpoint keeps a sliding
// window rather than growing without bound. A sampler appends on the
// driver's clock (the simulator's, on a DES event); snapshots copy the
// window out under the ring's lock.
type TimeSeries struct {
	name string
	ring ring[Point]
}

// NewTimeSeries returns an empty series holding at most capacity samples
// (minimum 1).
func NewTimeSeries(name string, capacity int) *TimeSeries {
	return &TimeSeries{name: name, ring: ring[Point]{max: ringCap(capacity)}}
}

// Name returns the series' metric name.
func (ts *TimeSeries) Name() string { return ts.name }

// Observe appends a sample, evicting the oldest when full.
func (ts *TimeSeries) Observe(t, v float64) { ts.ring.push(&Point{T: t, V: v}) }

// Len returns the number of stored samples.
func (ts *TimeSeries) Len() int { return ts.ring.len() }

// Points returns the stored window oldest-first as a fresh slice.
func (ts *TimeSeries) Points() []Point { return ts.ring.snapshot() }
