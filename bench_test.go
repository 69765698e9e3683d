// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (one benchmark per figure/table, using the same harness
// as cmd/collectsim), plus kernel benchmarks for the hot paths: GF(2^8)
// arithmetic, RLNC re-encoding and decoding, the event loop, and the ODE
// solver.
//
// Figure benchmarks report a "series" metric (number of curves produced) so
// a regression that silently drops a curve is visible in the bench output.
package p2pcollect_test

import (
	"testing"

	"p2pcollect"
	"p2pcollect/internal/experiments"
	"p2pcollect/internal/ode"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// benchOptions trims the experiment harness to benchmark scale.
func benchOptions() experiments.Options {
	return experiments.Options{N: 60, Horizon: 12, Warmup: 5, Seed: 17, Quick: true}
}

func benchExperiment(b *testing.B, gen func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = gen(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil {
		b.ReportMetric(float64(len(tbl.Series())), "series")
	}
}

// BenchmarkFig3 regenerates Fig. 3 (throughput vs segment size).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, experiments.Fig3) }

// BenchmarkFig4 regenerates Fig. 4 (throughput vs mu under churn).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, experiments.Fig4) }

// BenchmarkFig5 regenerates Fig. 5 (block delivery delay).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, experiments.Fig5) }

// BenchmarkFig6 regenerates Fig. 6 (data saved per peer).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, experiments.Fig6) }

// BenchmarkOverheadTable regenerates T1 (Theorem 1 storage overhead).
func BenchmarkOverheadTable(b *testing.B) { benchExperiment(b, experiments.OverheadTable) }

// BenchmarkS1ClosedForm regenerates T2 (non-coding closed form vs m-system
// vs simulation).
func BenchmarkS1ClosedForm(b *testing.B) { benchExperiment(b, experiments.S1Table) }

// BenchmarkBaseline regenerates T3 (flash crowd: direct pull vs indirect).
func BenchmarkBaseline(b *testing.B) { benchExperiment(b, experiments.BaselineTable) }

// BenchmarkDrain regenerates T4 (post-session delayed delivery).
func BenchmarkDrain(b *testing.B) { benchExperiment(b, experiments.DrainTable) }

// BenchmarkAblation regenerates A1 (mean-field sampling ablation).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, experiments.AblationTable) }

// BenchmarkFeedback regenerates A2 (server-feedback extension).
func BenchmarkFeedback(b *testing.B) { benchExperiment(b, experiments.FeedbackTable) }

// BenchmarkServers regenerates A3 (server collaboration ablation).
func BenchmarkServers(b *testing.B) { benchExperiment(b, experiments.ServersTable) }

// BenchmarkTopology regenerates A4 (overlay connectivity ablation).
func BenchmarkTopology(b *testing.B) { benchExperiment(b, experiments.TopologyTable) }

// BenchmarkCodingCost regenerates A5 (coding cost vs segment size).
func BenchmarkCodingCost(b *testing.B) { benchExperiment(b, experiments.CodingCostTable) }

// BenchmarkTransient regenerates T5 (Wormald transient validation).
func BenchmarkTransient(b *testing.B) { benchExperiment(b, experiments.TransientTable) }

// BenchmarkFlashJoin regenerates T6 (transient flash crowd of arrivals).
func BenchmarkFlashJoin(b *testing.B) { benchExperiment(b, experiments.FlashJoinTable) }

// BenchmarkSimulatorEvents measures raw simulator speed and reports
// processed events per operation.
func BenchmarkSimulatorEvents(b *testing.B) {
	cfg := p2pcollect.SimConfig{
		N: 100, Lambda: 10, Mu: 8, Gamma: 1, SegmentSize: 8,
		BufferCap: 128, C: 4, Warmup: 2, Horizon: 10, Seed: 3,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := p2pcollect.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkODESolve measures the steady-state solver at a Fig. 3 operating
// point.
func BenchmarkODESolve(b *testing.B) {
	p := ode.Params{Lambda: 20, Mu: 10, Gamma: 1, C: 8, S: 20}
	for i := 0; i < b.N; i++ {
		if _, err := ode.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecode measures gossip-path re-encoding (s=32, 1 KiB blocks).
func BenchmarkRecode(b *testing.B) {
	rng := randx.New(5)
	blocks := make([][]byte, 32)
	for i := range blocks {
		blocks[i] = make([]byte, 1024)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 1, Seq: 1}, blocks)
	if err != nil {
		b.Fatal(err)
	}
	src := seg.SourceBlocks()
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rlnc.Recode(src, rng)
	}
}

// BenchmarkDecodeSegment measures full segment reconstruction at the
// server (s=32, 1 KiB blocks).
func BenchmarkDecodeSegment(b *testing.B) {
	rng := randx.New(6)
	blocks := make([][]byte, 32)
	for i := range blocks {
		blocks[i] = make([]byte, 1024)
		rng.FillCoefficients(blocks[i])
	}
	id := rlnc.SegmentID{Origin: 1, Seq: 1}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		b.Fatal(err)
	}
	coded := make([]*rlnc.CodedBlock, 48)
	for i := range coded {
		coded[i] = seg.Encode(rng)
	}
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := rlnc.NewDecoder(id, 32, 1024)
		for _, cb := range coded {
			if _, err := dec.Add(cb); err != nil {
				b.Fatal(err)
			}
			if dec.Complete() {
				break
			}
		}
		if !dec.Complete() {
			b.Fatal("decoder incomplete")
		}
	}
}
