package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyOptions keeps the smoke tests fast; statistical assertions stay
// loose accordingly.
func tinyOptions() Options {
	return Options{N: 60, Horizon: 14, Warmup: 6, Seed: 7}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6", "overhead", "t1", "s1", "t2", "baseline", "t3", "drain", "t4", "ablation", "a1", "feedback", "a2", "transient", "t5", "servers", "a3", "flashjoin", "t6", "topology", "a4", "codingcost", "a5", "pullsched", "a6", "obs", "a7", "fleet", "a8"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) = false", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name accepted")
	}
}

func TestOverheadTableShape(t *testing.T) {
	tbl, err := OverheadTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, want := range []string{"bound mu/gamma", "analysis", "sim"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in:\n%s", want, out)
		}
	}
	// The occupancy ρ is the well-conditioned quantity to compare (the
	// overhead is a small difference of large numbers and amplifies the
	// tiny population's sampling noise): sim ρ within 12% of analysis ρ.
	var simRho, anaRho []float64
	for _, s := range tbl.Series() {
		switch s.Name {
		case "sim rho":
			for _, p := range s.Points {
				simRho = append(simRho, p.Y)
			}
		case "analysis rho":
			for _, p := range s.Points {
				anaRho = append(anaRho, p.Y)
			}
		}
	}
	if len(simRho) == 0 || len(simRho) != len(anaRho) {
		t.Fatalf("series lengths: sim=%d analysis=%d", len(simRho), len(anaRho))
	}
	for i := range simRho {
		if rel := (simRho[i] - anaRho[i]) / anaRho[i]; rel > 0.12 || rel < -0.12 {
			t.Errorf("row %d: sim rho %v vs analysis rho %v (rel %v)", i, simRho[i], anaRho[i], rel)
		}
	}
}

func TestS1TableAgreement(t *testing.T) {
	tbl, err := S1Table(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var closed, numeric []float64
	for _, s := range tbl.Series() {
		switch s.Name {
		case "closed form (Thm 2)":
			for _, p := range s.Points {
				closed = append(closed, p.Y)
			}
		case "m-system":
			for _, p := range s.Points {
				numeric = append(numeric, p.Y)
			}
		}
	}
	if len(closed) != len(numeric) || len(closed) == 0 {
		t.Fatalf("series lengths %d/%d", len(closed), len(numeric))
	}
	for i := range closed {
		if diff := closed[i] - numeric[i]; diff > 0.01 || diff < -0.01 {
			t.Errorf("row %d: closed form %v vs m-system %v", i, closed[i], numeric[i])
		}
	}
}

func TestBaselineTableIndirectWins(t *testing.T) {
	tbl, err := BaselineTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	series := tbl.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	direct, indirect := series[0], series[1]
	// Row 3 is the departed-peer recovery fraction: structurally zero for
	// direct pull, strictly positive for the indirect mechanism.
	if direct.Points[2].Y != 0 {
		t.Errorf("direct postmortem recovery = %v, want 0", direct.Points[2].Y)
	}
	if indirect.Points[2].Y <= 0 {
		t.Errorf("indirect postmortem recovery = %v, want > 0", indirect.Points[2].Y)
	}
	// Row 1: the indirect scheme must deliver a meaningful share of the
	// offered load even though the servers are provisioned at 1.5x the
	// average (vs a 5x peak).
	if indirect.Points[0].Y < 0.2 {
		t.Errorf("indirect delivered fraction %v too low", indirect.Points[0].Y)
	}
}

func TestDrainTableProducesBacklogAndDrain(t *testing.T) {
	tbl, err := DrainTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series() {
		if s.Name == "analysis saved/peer" {
			continue
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("series %q has negative value at s=%v", s.Name, p.X)
			}
		}
		if s.Name == "backlog segments at stop" {
			for _, p := range s.Points {
				if p.Y == 0 {
					t.Errorf("no backlog at s=%v; drain experiment vacuous", p.X)
				}
			}
		}
	}
}

func TestFeedbackTableImproves(t *testing.T) {
	opt := tinyOptions()
	opt.N = 120 // enough peers to see the efficiency gain over noise
	tbl, err := FeedbackTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	series := tbl.Series()
	base, fb := series[0], series[1]
	for i := range base.Points {
		if fb.Points[i].Y <= base.Points[i].Y {
			t.Errorf("c=%v: feedback %v not above base %v",
				base.Points[i].X, fb.Points[i].Y, base.Points[i].Y)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	d := o.withDefaults()
	if d.N == 0 || d.Horizon == 0 || d.Warmup == 0 || d.Seed == 0 {
		t.Errorf("defaults not applied: %+v", d)
	}
	custom := Options{N: 10, Horizon: 5, Warmup: 1, Seed: 3}.withDefaults()
	if custom.N != 10 || custom.Horizon != 5 || custom.Warmup != 1 || custom.Seed != 3 {
		t.Errorf("explicit options overridden: %+v", custom)
	}
}

func TestTransientTableTracksODE(t *testing.T) {
	opt := tinyOptions()
	opt.N = 150 // trajectory comparison needs some population
	tbl, err := TransientTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][]float64)
	for _, s := range tbl.Series() {
		for _, p := range s.Points {
			byName[s.Name] = append(byName[s.Name], p.Y)
		}
	}
	ana, sim := byName["ODE e(t)"], byName["sim e(t)"]
	if len(ana) == 0 || len(sim) < len(ana)-1 {
		t.Fatalf("series lengths: ode=%d sim=%d", len(ana), len(sim))
	}
	// Compare the overlapping prefix, skipping t=0 (both zero).
	n := len(ana)
	if len(sim) < n {
		n = len(sim)
	}
	for i := 1; i < n; i++ {
		diff := ana[i] - sim[i]
		if diff < 0 {
			diff = -diff
		}
		if scale := ana[i]; scale > 1 && diff/scale > 0.15 {
			t.Errorf("t=%d: ODE e=%v, sim e=%v", i, ana[i], sim[i])
		}
	}
}

func TestFlashJoinRecoveryOvershoot(t *testing.T) {
	opt := tinyOptions()
	opt.N = 100
	tbl, err := FlashJoinTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	var indirect []float64
	var xs []float64
	for _, s := range tbl.Series() {
		if s.Name == "indirect delivered fraction" {
			for _, p := range s.Points {
				xs = append(xs, p.X)
				indirect = append(indirect, p.Y)
			}
		}
	}
	if len(indirect) < 10 {
		t.Fatalf("got %d indirect windows", len(indirect))
	}
	// During the burst ([20,35)) the delivered fraction must drop below
	// the pre-burst level, and the first post-departure window must exceed
	// the burst level (the buffered backlog draining).
	var pre, burst, recovery float64
	for i, x := range xs {
		switch {
		case x == 15:
			pre = indirect[i]
		case x == 30:
			burst = indirect[i]
		case x == 35:
			recovery = indirect[i]
		}
	}
	if burst >= pre {
		t.Errorf("no burst degradation: pre %v, burst %v", pre, burst)
	}
	if recovery <= burst {
		t.Errorf("no recovery: burst %v, recovery %v", burst, recovery)
	}
}

// TestTrajectoryGoldens pins T5 and T6 byte for byte at N=40. Both step a
// simulator through its run and scrape its registry at every sample time,
// so a change to the stepping, the scraped instruments or the seeded event
// order shows up here.
func TestTrajectoryGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(Options) (*Table, error)
	}{
		{"transient", TransientTable},
		{"flashjoin", FlashJoinTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+"_n40.txt"))
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := tc.gen(Options{N: 40})
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl.Render(); got != string(want) {
				t.Errorf("%s at N=40 drifted from testdata:\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// TestTableGoldens pins every sim-only paper table byte for byte at a
// quick N=40 run, so a refactor of the simulator, the peer state machine
// or the collection code that shifts one seeded draw shows up here.
// codingcost and fleet time real work and are left out.
func TestTableGoldens(t *testing.T) {
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6", "overhead", "s1", "baseline", "drain", "ablation", "feedback", "servers", "topology", "pullsched", "obs", "transient", "flashjoin"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", name+"_quick_n40.txt"))
			if err != nil {
				t.Fatal(err)
			}
			gen, _ := ByName(name)
			tbl, err := gen(Options{N: 40, Quick: true, Horizon: 12, Warmup: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl.Render(); got != string(want) {
				t.Errorf("%s drifted from testdata:\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

func TestTopologyTableCoversSweep(t *testing.T) {
	tbl, err := TopologyTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	series := tbl.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Y <= 0 || p.Y > 1 {
				t.Errorf("series %q at k=%v: throughput %v out of range", s.Name, p.X, p.Y)
			}
		}
	}
}

func TestCodingCostTableMonotone(t *testing.T) {
	tbl, err := CodingCostTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series() {
		if s.Name != "decode us/block" {
			continue
		}
		// Per-block decode cost grows with s (O(s) per input block).
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Y <= first.Y {
			t.Errorf("decode cost not growing with s: %v at s=%v, %v at s=%v",
				first.Y, first.X, last.Y, last.X)
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("non-positive cost at s=%v", p.X)
			}
		}
	}
}

func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		hits := make([]atomic.Int32, n)
		runParallel(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times, want 1", n, i, got)
			}
		}
	}
}

func TestRunParallelPropagatesPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom at 3") {
			t.Fatalf("propagated panic %v does not carry the original value", r)
		}
		// The surviving workers must still have drained the remaining work
		// (with a single worker there is no survivor to drain it).
		if got := ran.Load(); runtime.GOMAXPROCS(0) > 1 && got != 7 {
			t.Fatalf("ran %d non-panicking jobs, want 7", got)
		}
	}()
	runParallel(8, func(i int) {
		if i == 3 {
			panic("boom at 3")
		}
		ran.Add(1)
	})
}
