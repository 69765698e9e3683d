package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"p2pcollect/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// info is printed on its own line before the result: sample counts,
	// host facts, the first oracle violation.
	info map[string]any
}

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// started is when the process began; the first rig's set-up time counts
	// from it. Zero means "now".
	started time.Time
}

// counters is one reading of everything the windows difference.
type counters struct {
	at      time.Time
	cpu     float64 // user+sys seconds of this process
	mallocs uint64
	server  map[string]int64 // every server's Stats(), summed
	node    map[string]int64 // every node's Stats().Protocol, summed
	hists   map[string]obs.HistogramSnapshot
	tap     map[string]int64 // the tracing taps' message counts
	replies int64            // scripted peers
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// read takes one reading.
func (r *rig) read() counters {
	c := counters{
		server: map[string]int64{}, node: map[string]int64{},
		hists: map[string]obs.HistogramSnapshot{},
	}
	for _, n := range r.nodes {
		for k, v := range n.Stats().Protocol {
			c.node[k] += v
		}
	}
	for _, p := range r.peers {
		c.replies += p.replies.Load()
	}
	if t := r.trc; t != nil {
		c.tap = map[string]int64{
			"sent": t.sent.Load(), "recvd": t.recvd.Load(),
			"decisions": t.decisions.Load(), "hinted": t.hinted.Load(),
			"inventories": t.inventories.Load(),
		}
	}
	for _, s := range r.servers {
		st := s.Stats()
		for k, v := range st.Protocol {
			c.server[k] += v
		}
		c.server["redundantBlocksCoarse"] += st.RedundantBlocks
		for _, h := range s.Registry().Snapshot().Histograms {
			c.hists[h.Name] = mergeHist(c.hists[h.Name], h)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.cpu = cpuSeconds()
	c.at = time.Now()
	return c
}

func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(a.Buckets) != len(b.Buckets) {
		return b
	}
	out := b
	out.Buckets = append([]obs.BucketCount(nil), b.Buckets...)
	for i := range out.Buckets {
		out.Buckets[i].Count += a.Buckets[i].Count
	}
	out.Count += a.Count
	return out
}

// histQuantile is the q-quantile of what a registry histogram observed
// between two scrapes, interpolated inside the bucket it falls in.
func histQuantile(begin, end obs.HistogramSnapshot, q float64) float64 {
	n := len(end.Buckets)
	if n == 0 {
		return 0 // the histogram does not exist on this workload
	}
	delta := make([]int64, n)
	var total int64
	for i := range delta {
		delta[i] = end.Buckets[i].Count
		if i < len(begin.Buckets) {
			delta[i] -= begin.Buckets[i].Count
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, d := range delta {
		if float64(cum+d) < rank || d == 0 {
			cum += d
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = end.Buckets[i-1].LE
		}
		hi := end.Buckets[i].LE
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(d)
	}
	return end.Buckets[n-1].LE
}

func delta(begin, end map[string]int64, key string) float64 {
	return float64(end[key] - begin[key])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one measured interval of a running rig.
type window struct {
	begin, end counters
	seconds    float64
	injected   int64 // segments injected in the window
	delivered  int64 // segments delivered (and verified) in the window
	latencyMS  []float64
}

// measure warms the rig up, then records back-to-back windows that together
// span seconds: ten of them, or fewer so that none is shorter than a
// second. The end-to-end metrics are computed in each and reported as the
// median across them, which keeps a slow phase of the host (this sandbox
// has multi-second ones that cost a CPU-bound loop 40 %) from moving the
// result the way it moves a mean over the whole span.
func (r *rig) measure(warmup, seconds float64) []window {
	parts := int(seconds)
	if parts < 1 {
		parts = 1
	}
	if parts > 10 {
		parts = 10
	}
	time.Sleep(time.Duration(warmup * float64(time.Second)))
	wins := make([]window, parts)
	begin := r.read()
	r.orc.cut(true)
	for i := range wins {
		time.Sleep(time.Duration(seconds / float64(parts) * float64(time.Second)))
		win := &wins[i]
		win.injected, win.delivered, win.latencyMS = r.orc.cut(i < parts-1)
		win.begin, win.end = begin, r.read()
		win.seconds = win.end.at.Sub(win.begin.at).Seconds()
		if len(r.nodes) > 0 {
			win.injected = win.end.node["injectedSegments"] - win.begin.node["injectedSegments"]
		}
		begin = win.end
	}
	return wins
}

// whole joins back-to-back windows into the one that spans them.
func whole(wins []window) window {
	all := window{begin: wins[0].begin, end: wins[len(wins)-1].end}
	for _, win := range wins {
		all.seconds += win.seconds
		all.injected += win.injected
		all.delivered += win.delivered
		all.latencyMS = append(all.latencyMS, win.latencyMS...)
	}
	return all
}

func (win *window) deliveredMBs(w *workload) float64 {
	return float64(win.delivered) * float64(w.segmentBytes()) / 1e6 / win.seconds
}

// medianMBs is the median delivered payload rate across windows.
func medianMBs(w *workload, wins []window) float64 {
	v := make([]float64, len(wins))
	for i := range wins {
		v[i] = wins[i].deliveredMBs(w)
	}
	return median(v)
}

// tailQuantile is the highest percentile, at most p99, that still has ten
// samples beyond it.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// endToEnd computes the end-to-end metrics (all but setup_s and
// peak_rss_mb, which belong to the process) and the tail latency in every
// window and reports each as its median across the windows.
func endToEnd(w *workload, wins []window) (map[string]metric, map[string]any) {
	units := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs[:2]...) {
		units[s.Name] = s.Unit
	}
	per := map[string][]float64{}
	var samples, windowMBs []float64
	for i := range wins {
		win := &wins[i]
		windowMBs = append(windowMBs, win.deliveredMBs(w))
		blocks := float64(win.delivered) * float64(w.segmentSize)
		gb := float64(win.delivered) * float64(w.segmentBytes()) / 1e9
		lat := append([]float64(nil), win.latencyMS...)
		samples = append(samples, float64(len(lat)))
		for name, v := range map[string]float64{
			"delivered_mb_s":   win.deliveredMBs(w),
			"delivered_ratio":  ratio(float64(win.delivered), float64(win.injected)),
			"latency_p50_ms":   quantile(lat, 0.5),
			"latency.p99_ms":   quantile(lat, tailQuantile(len(lat))),
			"cpu.s_per_gb":     ratio(win.end.cpu-win.begin.cpu, gb),
			"allocs_per_block": ratio(float64(win.end.mallocs-win.begin.mallocs), blocks),
		} {
			per[name] = append(per[name], v)
		}
	}
	m := map[string]metric{}
	for name, v := range per {
		m[name] = metric{median(v), units[name]}
	}
	all := whole(wins)
	info := map[string]any{
		"windows":              len(wins),
		"window_s":             all.seconds / float64(len(wins)),
		"segments_injected":    all.injected,
		"segments_delivered":   all.delivered,
		"latency_samples":      len(all.latencyMS),
		"latency_tail_reports": fmt.Sprintf("p%.4g of each window", 100*tailQuantile(int(median(samples)))),
		"window_mb_s":          windowMBs,
	}
	return m, info
}

func hostInfo(cfg runConfig) map[string]any {
	info := map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"load_peers": cfg.w.loadPeers(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"link":       "loopback/in-process, not a real network link",
	}
	if runtime.NumCPU() < 2 {
		info["warning"] = "fewer than 2 CPUs: load generator and server share one core"
	}
	return info
}

// verdict folds the oracle's findings of every rig of the run into the
// result.
func (res *result) verdict(rigs ...*rig) {
	for _, r := range rigs {
		r.orc.mu.Lock()
		res.Attempted += r.orc.checked
		res.Failed += r.orc.violations
		if r.orc.firstBad != "" && res.info["first_violation"] == nil {
			res.info["first_violation"] = r.orc.firstBad
		}
		r.orc.mu.Unlock()
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.info["first_violation"] = "no segment was delivered"
	}
	res.Correct = res.Failed == 0
}

// runTimed is the tracing-off run behind the end-to-end metrics.
func runTimed(cfg runConfig) (*result, error) {
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch data

	began := cfg.started
	if began.IsZero() {
		began = time.Now()
	}
	r, err := startRig(cfg.w, cfg.seed, scratch, nil, began)
	if err != nil {
		return nil, err
	}
	setups := []float64{r.setupSeconds}
	wins := r.measure(cfg.seconds*warmupShare, cfg.seconds)
	r.stop()
	// The high-water mark of the measured run alone: read after the extra
	// set-up cycles it would also hold whichever of their 16 MB delivery
	// journals the collector had not yet returned.
	peakRSS := peakRSSMB()

	// Set-up again, several times, after the window so the measured run
	// saw a fresh process; the median is what setup_s reports.
	for i := 0; i < setupRepeats; i++ {
		// Collect what the window and the previous cycle left behind and
		// let the kernel finish closing their sockets, so that no set-up is
		// timed with the previous tear-down on top.
		runtime.GC()
		time.Sleep(setupSettle)
		again, err := startRig(cfg.w, cfg.seed+int64(i)+1, scratch, nil, time.Now())
		if err != nil {
			return nil, err
		}
		setups = append(setups, again.setupSeconds)
		again.stop()
	}

	res := &result{info: hostInfo(cfg)}
	var winInfo map[string]any
	res.Metrics, winInfo = endToEnd(cfg.w, wins)
	for _, s := range perLayerSpecs[:2] {
		delete(res.Metrics, s.Name) // reported by the traced run: see spec.go
	}
	for k, v := range winInfo {
		res.info[k] = v
	}
	res.info["setup_samples"] = len(setups)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
	res.verdict(r)
	if whole(wins).delivered == 0 {
		res.Correct = false
		res.info["first_violation"] = "no segment was delivered in the window"
	}
	return res, nil
}

// ensureOutDir creates the directory runs put their scratch data and
// trace files under.
func ensureOutDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
