package experiments

import (
	"fmt"
	"time"

	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

// codingCostBlockSize is the payload used for the coding-cost measurements;
// 1 KiB is a typical statistics-bundle size.
const codingCostBlockSize = 1024

// CodingCostTable (A5) measures the computational side of the paper's
// complexity argument: "we can vary the coding complexity by changing the
// segment size" and "the use of a small segment size (e.g. around 20∼30) is
// sufficient ... with an acceptable computational complexity incurred".
// Rows sweep s; columns give per-block re-encoding and decoding cost in
// microseconds and the implied decode throughput in MB/s (1 KiB blocks).
func CodingCostTable(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	sizes := []int{1, 5, 10, 20, 30, 50, 100}
	if opt.Quick {
		sizes = []int{1, 10, 30}
	}
	tbl := NewTable("A5: coding cost vs segment size (1 KiB blocks)", "s")
	encCost := tbl.AddSeries("recode us/block")
	decCost := tbl.AddSeries("decode us/block")
	decRate := tbl.AddSeries("decode MB/s")
	rng := randx.New(opt.Seed)
	for _, s := range sizes {
		enc, dec, err := measureCodingCost(rng, s)
		if err != nil {
			return nil, fmt.Errorf("a5 s=%d: %w", s, err)
		}
		encCost.Add(float64(s), enc.Seconds()*1e6)
		decCost.Add(float64(s), dec.Seconds()*1e6)
		if dec > 0 {
			decRate.Add(float64(s), codingCostBlockSize/dec.Seconds()/1e6)
		}
	}
	return tbl, nil
}

// measureCodingCost times one full-buffer re-encode and one progressive
// decode per coded block at segment size s, averaged over enough rounds to
// smooth scheduler noise.
func measureCodingCost(rng *randx.Rand, s int) (recode, decode time.Duration, err error) {
	blocks := make([][]byte, s)
	for i := range blocks {
		blocks[i] = make([]byte, codingCostBlockSize)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(rlnc.SegmentID{Origin: 1, Seq: uint64(s)}, blocks)
	if err != nil {
		return 0, 0, err
	}
	src := seg.SourceBlocks()

	// Enough rounds for ≥ ~2ms of work per measurement at any s.
	rounds := 20000 / s
	if rounds < 20 {
		rounds = 20
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		rlnc.Recode(src, rng)
	}
	recode = time.Since(start) / time.Duration(rounds)

	// Pre-draw the coded blocks so decode timing excludes encoding.
	coded := make([]*rlnc.CodedBlock, 0, 2*s)
	dec := rlnc.NewDecoder(seg.ID, s, codingCostBlockSize)
	for !dec.Complete() {
		cb := seg.Encode(rng)
		innovative, err := dec.Add(cb)
		if err != nil {
			return 0, 0, err
		}
		if innovative {
			coded = append(coded, cb)
		}
	}
	decRounds := rounds/4 + 4
	start = time.Now()
	for r := 0; r < decRounds; r++ {
		d := rlnc.NewDecoder(seg.ID, s, codingCostBlockSize)
		for _, cb := range coded {
			if _, err := d.Add(cb); err != nil {
				return 0, 0, err
			}
		}
		if !d.Complete() {
			return 0, 0, fmt.Errorf("decoder incomplete at s=%d", s)
		}
		if _, err := d.Decode(); err != nil {
			return 0, 0, err
		}
	}
	decode = time.Since(start) / time.Duration(decRounds*s)
	return recode, decode, nil
}
