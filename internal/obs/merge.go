package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot's
// buckets by linear interpolation inside the bucket that contains the
// target rank, the standard fixed-bucket estimator. Values in the overflow
// bucket clamp to the last finite bound. Returns 0 when the snapshot is
// empty.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	lastFinite := 0.0
	for i := len(hs.Buckets) - 1; i >= 0; i-- {
		if !isInfBound(hs.Buckets[i].LE) {
			lastFinite = hs.Buckets[i].LE
			break
		}
	}
	target := q * float64(total)
	var cum float64
	for i, b := range hs.Buckets {
		if b.Count == 0 {
			continue
		}
		if cum+float64(b.Count) < target {
			cum += float64(b.Count)
			continue
		}
		if isInfBound(b.LE) {
			return lastFinite // overflow: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = hs.Buckets[i-1].LE
		}
		frac := (target - cum) / float64(b.Count)
		if frac < 0 {
			frac = 0
		}
		return lo + frac*(b.LE-lo)
	}
	return lastFinite
}

func isInfBound(le float64) bool { return le > 1e308 }

// setPercentiles fills the headline percentiles from the buckets.
func (hs *HistogramSnapshot) setPercentiles() {
	hs.P50 = hs.Quantile(0.50)
	hs.P90 = hs.Quantile(0.90)
	hs.P99 = hs.Quantile(0.99)
}

// MergeHistogramSnapshots adds b into a. The bucket layouts must match
// exactly; merging across the endpoints of a cluster relies on every one
// using the same layout.
func MergeHistogramSnapshots(a, b HistogramSnapshot) (HistogramSnapshot, error) {
	if len(a.Buckets) != len(b.Buckets) {
		return a, fmt.Errorf("obs: merge %q: %d buckets vs %d", a.Name, len(a.Buckets), len(b.Buckets))
	}
	out := a
	out.Buckets = append([]BucketCount(nil), a.Buckets...)
	for i := range out.Buckets {
		if out.Buckets[i].LE != b.Buckets[i].LE && !(isInfBound(out.Buckets[i].LE) && isInfBound(b.Buckets[i].LE)) {
			return a, fmt.Errorf("obs: merge %q: bound %d is %g vs %g", a.Name, i, out.Buckets[i].LE, b.Buckets[i].LE)
		}
		out.Buckets[i].Count += b.Buckets[i].Count
	}
	out.Count += b.Count
	out.Sum += b.Sum
	out.setPercentiles()
	return out, nil
}

// MergeSnapshots folds per-endpoint registry snapshots into one cluster
// view: counters and gauges are summed, histograms with matching bucket
// layouts are merged bucket-wise with percentiles recomputed from the
// combined distribution, and trace tails are concatenated in time order.
// The source endpoint labels are recorded under Info["endpoints"].
// Histograms whose layouts conflict across endpoints are kept from the
// first endpoint and the conflict noted under Info["mergeConflicts"].
func MergeSnapshots(label string, snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Label:    label,
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
		Info:     make(map[string]string),
	}
	histIdx := make(map[string]int)
	var endpoints, conflicts []string
	for _, s := range snaps {
		endpoints = append(endpoints, s.Label)
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for _, h := range s.Histograms {
			i, ok := histIdx[h.Name]
			if !ok {
				histIdx[h.Name] = len(out.Histograms)
				clone := h
				clone.Buckets = append([]BucketCount(nil), h.Buckets...)
				out.Histograms = append(out.Histograms, clone)
				continue
			}
			merged, err := MergeHistogramSnapshots(out.Histograms[i], h)
			if err != nil {
				conflicts = append(conflicts, h.Name)
				continue
			}
			out.Histograms[i] = merged
		}
		out.TraceTail = append(out.TraceTail, s.TraceTail...)
	}
	sort.SliceStable(out.TraceTail, func(i, j int) bool { return out.TraceTail[i].T < out.TraceTail[j].T })
	out.Info["endpoints"] = strings.Join(endpoints, ",")
	if len(conflicts) > 0 {
		out.Info["mergeConflicts"] = strings.Join(conflicts, ",")
	}
	return out
}
