package obs

import "sync/atomic"

// CounterSet is a fixed vocabulary of named monotone counters with atomic
// updates. It backs the protocol event sink shared by the discrete-event
// simulator and the live runtime: single-threaded drivers pay one atomic add
// per event, concurrent drivers (goroutine loops under -race) stay safe
// without extra locking, and Snapshot gives observers a consistent-enough
// view for stats endpoints.
type CounterSet struct {
	names []string
	vals  []atomic.Int64
}

// NewCounterSet returns a zeroed counter per name. The name slice defines
// both the index space and the Snapshot keys.
func NewCounterSet(names []string) *CounterSet {
	return &CounterSet{names: names, vals: make([]atomic.Int64, len(names))}
}

// Add increments counter i by n.
func (c *CounterSet) Add(i int, n int64) { c.vals[i].Add(n) }

// Get returns the current value of counter i.
func (c *CounterSet) Get(i int) int64 { return c.vals[i].Load() }

// Snapshot returns a name→value copy of all counters.
func (c *CounterSet) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.names))
	c.Range(func(name string, v int64) { out[name] = v })
	return out
}

// Range calls f with every counter's name and current value, in
// registration order, without allocating. Registry scrapes and every
// endpoint's Stats() walk counters through it (see RegisterCounters), so
// a scrape never pressures the garbage collector.
func (c *CounterSet) Range(f func(name string, v int64)) {
	for i, name := range c.names {
		f(name, c.vals[i].Load())
	}
}
