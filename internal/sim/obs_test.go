package sim

import (
	"math"
	"reflect"
	"testing"

	"p2pcollect/internal/obs"
)

func obsTestConfig() Config {
	return Config{
		N: 60, Lambda: 1, Mu: 8, Gamma: 0.5,
		SegmentSize: 4, BufferCap: 32, C: 2, NumServers: 2,
		Warmup: 5, Horizon: 25, Seed: 42,
	}
}

// TestObsDoesNotPerturbSeededRun is the tentpole contract: a ring tracer
// and scrapes of the registry between RunUntil steps leave a seeded run's
// measurements identical to the bare run, because no instrument draws from
// the protocol RNG. The registry itself exists in every run, so the sim
// goldens pin its half of the contract.
func TestObsDoesNotPerturbSeededRun(t *testing.T) {
	bare, err := Run(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := obsTestConfig()
	cfg.Tracer = obs.NewRingTracer(4096)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for now := 0.0; now < cfg.Horizon; now += 0.5 {
		s.RunUntil(now)
		s.Registry().Snapshot()
	}
	s.RunUntil(cfg.Horizon)
	instrumented := s.Result()

	// Configs differ by the Tracer field; measurements must not.
	bare.Config = Config{}
	instrumented.Config = Config{}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Errorf("instrumented run diverged:\nbare: %+v\nobs:  %+v", bare, instrumented)
	}
}

// TestSimObsInstruments scrapes the registry between RunUntil steps: each
// scrape's state gauges must be the simulator's state at that instant, and
// the final scrape's counters and delay histogram must agree with Result.
func TestSimObsInstruments(t *testing.T) {
	cfg := obsTestConfig()
	rt := obs.NewRingTracer(1 << 16)
	cfg.Tracer = rt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	for _, now := range []float64{0, 3, 7.5, 12, 20} {
		s.RunUntil(now)
		g := reg.Snapshot().Gauges
		n := float64(s.Population())
		want := map[string]float64{
			"blocksPerPeer": float64(s.TotalBlocks()) / n,
			"emptyPeerFrac": 1 - float64(s.nonEmpty.len())/n,
			"liveSegments":  float64(s.LiveSegments()),
		}
		for name, v := range want {
			if got, ok := g[name]; !ok || got != v {
				t.Errorf("t=%g: %s = %v (present %v), simulator state %v", now, name, got, ok, v)
			}
		}
		if now > cfg.Warmup && s.TotalBlocks() == 0 {
			t.Fatalf("t=%g: no blocks buffered; the gauges were not exercised", now)
		}
	}
	s.RunUntil(cfg.Horizon)
	res := s.Result()

	snap := reg.Snapshot()
	if snap.Label != "sim" {
		t.Errorf("label = %q", snap.Label)
	}
	if snap.Counters["serverPulls"] != res.ServerPulls {
		t.Errorf("scraped serverPulls = %d, Result has %d",
			snap.Counters["serverPulls"], res.ServerPulls)
	}

	// The delivery histogram sees every delivery (warmup included), so it
	// must hold at least the windowed count and agree with the tracer.
	var delivery *obs.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "deliveryDelay" {
			delivery = &snap.Histograms[i]
		}
	}
	if delivery == nil {
		t.Fatal("no deliveryDelay histogram in snapshot")
	}
	if delivery.Count < res.DeliveredSegments || delivery.Count == 0 {
		t.Errorf("deliveryDelay count = %d, windowed deliveries = %d",
			delivery.Count, res.DeliveredSegments)
	}
	if delivery.P50 <= 0 || delivery.P90 < delivery.P50 || delivery.P99 < delivery.P90 {
		t.Errorf("percentiles not ordered: p50=%g p90=%g p99=%g",
			delivery.P50, delivery.P90, delivery.P99)
	}

	// The trace tail reached the snapshot through the registry.
	if len(snap.TraceTail) == 0 {
		t.Error("snapshot carries no trace tail despite ring tracer")
	}

	// Lifecycle reconstruction: some delivered segment must show a full
	// inject→delivered story with non-negative phase durations.
	deliveredEvents := 0
	checked := false
	for _, ev := range rt.Tail(1 << 16) {
		if ev.Kind != obs.TraceDelivered {
			continue
		}
		deliveredEvents++
		st := rt.Query(ev.Seg)
		if len(st.Events) < 2 {
			continue
		}
		for _, ph := range st.Phases() {
			if ph.Dur < 0 {
				t.Errorf("segment %v phase %q negative: %g", ev.Seg, ph.Name, ph.Dur)
			}
			checked = true
		}
	}
	if deliveredEvents == 0 {
		t.Error("tracer recorded no deliveries")
	}
	if !checked {
		t.Error("no segment had a reconstructable phase breakdown")
	}
}

// TestEmptyPopulationLeavesAveragesFinite empties the session, runs through
// the gap, and repopulates it. The samples taken while nobody is alive are
// skipped, so the per-peer averages and trace points stay finite, and the
// state gauges read 0 rather than NaN.
func TestEmptyPopulationLeavesAveragesFinite(t *testing.T) {
	cfg := obsTestConfig()
	cfg.N, cfg.Warmup, cfg.Horizon = 4, 1, 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StartTrace(1)
	s.RunUntil(2)
	for pi := 0; pi < cfg.N; pi++ {
		s.RemovePeer(pi)
	}
	s.RunUntil(3)
	g := s.Registry().Snapshot().Gauges
	if g["blocksPerPeer"] != 0 || g["emptyPeerFrac"] != 0 {
		t.Errorf("gauges at zero population = %v, want 0", g)
	}
	s.AddPeers(cfg.N)
	s.RunUntil(cfg.Horizon)

	res := s.Result()
	for name, v := range map[string]float64{
		"AvgBlocksPerPeer": res.AvgBlocksPerPeer,
		"AvgNonEmptyFrac":  res.AvgNonEmptyFrac,
		"SavedPerPeer":     res.SavedPerPeer,
		"StorageOverhead":  res.StorageOverhead,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Result.%s = %v", name, v)
		}
	}
	for _, p := range s.TracePoints() {
		if p.Population == 0 || math.IsNaN(p.E) || math.IsNaN(p.Z0) {
			t.Errorf("trace point at t=%g: population %d, E %v, Z0 %v", p.T, p.Population, p.E, p.Z0)
		}
	}
}
