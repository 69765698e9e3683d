package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if New(42).Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestExpMoments(t *testing.T) {
	r := New(1)
	const n = 200000
	rates := []float64{0.5, 1, 4, 20}
	for _, rate := range rates {
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Exp(rate)
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("Exp(rate=%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpNonPositiveRate(t *testing.T) {
	r := New(1)
	if !math.IsInf(r.Exp(0), 1) {
		t.Error("Exp(0) should be +Inf")
	}
	if !math.IsInf(r.Exp(-3), 1) {
		t.Error("Exp(-3) should be +Inf")
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(2)
	const n = 100000
	for _, mean := range []float64{0.3, 2, 10, 50} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean)/mean > 0.03 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean)/mean > 0.06 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(3)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestCoefficientNonZero(t *testing.T) {
	r := New(4)
	seen := make(map[byte]bool)
	for i := 0; i < 10000; i++ {
		c := r.Coefficient()
		if c == 0 {
			t.Fatal("Coefficient returned zero")
		}
		seen[c] = true
	}
	if len(seen) != 255 {
		t.Errorf("Coefficient covered %d values, want 255", len(seen))
	}
}

func TestFillCoefficientsCoverage(t *testing.T) {
	r := New(5)
	buf := make([]byte, 20000)
	r.FillCoefficients(buf)
	seen := make(map[byte]bool)
	for _, b := range buf {
		seen[b] = true
	}
	if len(seen) != 256 {
		t.Errorf("FillCoefficients covered %d values, want 256", len(seen))
	}
}

func TestChoose(t *testing.T) {
	r := New(6)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := r.Choose(5, 2)
		if v == 2 {
			t.Fatal("Choose returned the excluded value")
		}
		counts[v]++
	}
	for i, c := range counts {
		if i == 2 {
			continue
		}
		if math.Abs(float64(c)-12500)/12500 > 0.06 {
			t.Errorf("Choose bias at %d: %d draws", i, c)
		}
	}
}

func TestChooseNoExclusion(t *testing.T) {
	r := New(7)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[r.Choose(3, -1)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choose(-1 exclude) covered %d of 3 values", len(seen))
	}
}

func TestChoosePanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choose(1, 0) did not panic")
		}
	}()
	New(8).Choose(1, 0)
}

func TestBernoulli(t *testing.T) {
	r := New(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", float64(hits)/n)
	}
}

func TestForkIndependentButDeterministic(t *testing.T) {
	a := New(11).Fork()
	b := New(11).Fork()
	for i := 0; i < 50; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("forks of identical parents diverge")
		}
	}
}
