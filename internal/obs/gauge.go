package obs

// Gauge is a spot value with atomic set/read — buffer occupancy, outbox
// depth, current rank. Unlike a Histogram it has no history.
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
