package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution estimator with atomic updates:
// Observe is lock-free and allocation-free, so it can sit on the pull and
// gossip hot paths, and scrapes can read while counting continues. Bucket
// counts use the Prometheus le (less-or-equal upper bound) convention with
// an implicit +Inf overflow bucket, so two histograms with the same bounds
// merge exactly — across servers, or across nodes of a cluster.
//
// A histogram is read through Snapshot; quantiles, merging and exposition
// all work on the HistogramSnapshot. Choose bounds (ExpBuckets) so the
// interesting mass does not land in the overflow bucket, whose quantiles
// saturate at the last bound.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. It panics on an empty or unsorted bound list (a programming
// error, like an invalid peercore config).
func NewHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
	}
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n exponentially spaced bounds start, start·factor,
// start·factor², … — the usual choice for delays and RTTs.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bounds := make([]float64, n)
	v := start
	for i := range bounds {
		bounds[i] = v
		v *= factor
	}
	return bounds
}

// DelayBuckets are the default bounds for delay-like quantities: 5 ms to
// ~164 s (or 0.005 to ~164 simulated time units), doubling.
func DelayBuckets() []float64 { return ExpBuckets(0.005, 2, 16) }

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Lock-free; safe under concurrent scrapes.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// bucketOf returns the index of the le bucket for v (len(bounds) for the
// +Inf overflow bucket).
func (h *Histogram) bucketOf(v float64) int {
	// First bound >= v, i.e. the smallest le bucket containing v.
	return sort.SearchFloat64s(h.bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// BucketCount is one bucket of a histogram snapshot.
type BucketCount struct {
	// LE is the bucket's inclusive upper bound (+Inf for the overflow).
	LE float64 `json:"le"`
	// Count is the number of observations in this bucket (not cumulative).
	Count int64 `json:"count"`
}

// MarshalJSON encodes the overflow bound as the string "+Inf" (encoding/json
// rejects infinite floats).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := `"+Inf"`
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both the numeric and the "+Inf" bound encodings.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if string(raw.LE) == `"+Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// HistogramSnapshot is the JSON shape of one histogram scrape.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot copies the histogram's state. Count and the headline
// percentiles are computed from the copied buckets, so one snapshot always
// agrees with itself however many Observes race the copy. An empty
// histogram reports zero percentiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Name:    h.name,
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	for i := range h.counts {
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		c := h.counts[i].Load()
		snap.Buckets[i] = BucketCount{LE: le, Count: c}
		snap.Count += c
	}
	snap.setPercentiles()
	return snap
}

// atomicFloat is a float64 with atomic add/load (CAS on the bit pattern).
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
