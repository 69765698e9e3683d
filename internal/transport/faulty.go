package transport

import (
	"sync"
	"time"

	"p2pcollect/internal/obs"
	"p2pcollect/internal/randx"
)

// FaultPartition is one scheduled partition window: sends to the listed
// peers (all peers when the list is empty) are dropped while the wrapper's
// age is inside [Start, End).
type FaultPartition struct {
	Start, End time.Duration
	Peers      []NodeID
}

// FaultConfig parameterizes injected network faults. Faults apply on the
// send side only: wrapping both endpoints of a link with the same schedule
// models a symmetric partition.
type FaultConfig struct {
	// LossProb drops each message independently with this probability.
	LossProb float64
	// LatencyMin/LatencyMax delay each surviving message by a uniform
	// sample from [LatencyMin, LatencyMax]. Zero means no added latency.
	LatencyMin, LatencyMax time.Duration
	// Partitions is the partition schedule, relative to NewFaulty.
	Partitions []FaultPartition
}

// Faulty wraps any Transport with seeded fault injection: random loss, a
// latency distribution, and a partition schedule. It exists so the chaos
// tests (and operators rehearsing failure) can exercise the exact
// production code paths over both the in-memory and the TCP transports.
type Faulty struct {
	inner    Transport
	cfg      FaultConfig
	start    time.Time
	counters *obs.CounterSet

	mu     sync.Mutex
	rng    *randx.Rand
	closed bool

	wg sync.WaitGroup
}

var _ Transport = (*Faulty)(nil)
var _ CounterRanger = (*Faulty)(nil)

// NewFaulty wraps inner with the given fault schedule. The rng makes loss
// and latency draws reproducible; the partition clock starts now.
func NewFaulty(inner Transport, cfg FaultConfig, rng *randx.Rand) *Faulty {
	return &Faulty{
		inner:    inner,
		cfg:      cfg,
		start:    time.Now(),
		counters: newTransportCounters(),
		rng:      rng,
	}
}

// LocalID returns the wrapped transport's identity.
func (f *Faulty) LocalID() NodeID { return f.inner.LocalID() }

// Addr returns the wrapped transport's listen address, or "" when the
// inner transport has no addressing (the in-memory fabric).
func (f *Faulty) Addr() string {
	if a, ok := f.inner.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

// AddRoute forwards route registration to an address-book inner transport;
// a no-op otherwise. Fault injection applies to traffic, not routing.
func (f *Faulty) AddRoute(id NodeID, addr string) {
	if r, ok := f.inner.(interface{ AddRoute(NodeID, string) }); ok {
		r.AddRoute(id, addr)
	}
}

// Receive returns the wrapped transport's incoming channel.
func (f *Faulty) Receive() <-chan *Message { return f.inner.Receive() }

// Send applies the fault schedule, then forwards to the wrapped transport
// (possibly from a timer goroutine when latency is injected). Dropped
// messages return nil, like any other best-effort loss.
func (f *Faulty) Send(to NodeID, m *Message) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.partitioned(to) {
		f.mu.Unlock()
		f.counters.Add(ctrFaultPartitionDrops, 1)
		return nil
	}
	if f.cfg.LossProb > 0 && f.rng.Bernoulli(f.cfg.LossProb) {
		f.mu.Unlock()
		f.counters.Add(ctrFaultLossDrops, 1)
		return nil
	}
	var delay time.Duration
	if f.cfg.LatencyMax > 0 {
		span := f.cfg.LatencyMax - f.cfg.LatencyMin
		delay = f.cfg.LatencyMin
		if span > 0 {
			delay += time.Duration(f.rng.Float64() * float64(span))
		}
	}
	if delay > 0 {
		f.wg.Add(1)
	}
	f.mu.Unlock()
	if delay <= 0 {
		return f.inner.Send(to, m)
	}
	f.counters.Add(ctrFaultDelayed, 1)
	// The late send runs after this call has returned, when m is the
	// caller's to reuse: delay a copy.
	late := *m
	time.AfterFunc(delay, func() {
		defer f.wg.Done()
		f.inner.Send(to, &late) //nolint:errcheck // best-effort late delivery
	})
	return nil
}

// partitioned reports whether a send to the destination falls inside an
// active partition window. Callers hold f.mu (for the clock read only; the
// schedule is immutable).
func (f *Faulty) partitioned(to NodeID) bool {
	age := time.Since(f.start)
	for _, p := range f.cfg.Partitions {
		if age < p.Start || age >= p.End {
			continue
		}
		if len(p.Peers) == 0 {
			return true
		}
		for _, id := range p.Peers {
			if id == to {
				return true
			}
		}
	}
	return false
}

// Close waits for in-flight delayed sends, then closes the wrapped
// transport.
func (f *Faulty) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.wg.Wait()
	return f.inner.Close()
}

// RangeCounters visits the merged wrapper+inner health counters. Each name
// is visited exactly once: the vocabulary is fixed, and every counter is
// incremented by exactly one layer (fault counters by the wrapper, network
// health by the inner transport), so summing the two sets is exact.
func (f *Faulty) RangeCounters(fn func(name string, v int64)) {
	var sums [numTransportCounters]int64
	add := func(name string, v int64) {
		if i, ok := transportCounterIndex[name]; ok {
			sums[i] += v
		}
	}
	f.counters.Range(add)
	if ic, ok := f.inner.(CounterRanger); ok {
		ic.RangeCounters(add)
	}
	for i := range sums {
		fn(transportCounterNames[i], sums[i])
	}
}

// OutboxDepth reports the inner transport's queue depth, if it has one.
func (f *Faulty) OutboxDepth() int {
	if dr, ok := f.inner.(DepthReporter); ok {
		return dr.OutboxDepth()
	}
	return 0
}
