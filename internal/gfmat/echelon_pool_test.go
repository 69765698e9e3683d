package gfmat

import (
	"math/rand"
	"testing"

	"p2pcollect/internal/slab"
)

// TestEchelonRedundantInsertNoAlloc pins the scratch-row contract: once the
// basis is full, further Inserts (all redundant) must not allocate.
func TestEchelonRedundantInsertNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEchelon(32)
	for !e.Full() {
		v := make([]byte, 32)
		rng.Read(v)
		e.Insert(v)
	}
	v := make([]byte, 32)
	rng.Read(v)
	allocs := testing.AllocsPerRun(100, func() {
		if e.Insert(v) {
			t.Fatal("insert into full basis reported innovative")
		}
	})
	if allocs != 0 {
		t.Fatalf("redundant Insert allocates %v times per run, want 0", allocs)
	}
}

// TestEchelonPooledRelease checks that a pooled basis behaves identically
// to a plain one and that Release hands its rows back to the slab (observed
// via poisoning: released rows get overwritten).
func TestEchelonPooledRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	plain := NewEchelon(24)
	pooled := NewAugmented(24, 0, true)
	for i := 0; i < 64; i++ {
		v := make([]byte, 24)
		rng.Read(v)
		if got, want := pooled.Insert(v), plain.Insert(v); got != want {
			t.Fatalf("insert %d: pooled=%v plain=%v", i, got, want)
		}
	}
	if pooled.Rank() != plain.Rank() {
		t.Fatalf("rank: pooled=%d plain=%d", pooled.Rank(), plain.Rank())
	}

	slab.SetPoison(true)
	defer slab.SetPoison(false)
	row := pooled.rows[0]
	pooled.Release()
	if pooled.Rank() != 0 {
		t.Fatal("Release did not empty the basis")
	}
	poisoned := true
	for _, b := range row {
		if b != slab.PoisonByte {
			poisoned = false
		}
	}
	if !poisoned {
		t.Fatal("released pooled row was not handed back to the slab")
	}

	// The basis must be usable again after Release.
	v := make([]byte, 24)
	rng.Read(v)
	if !pooled.Insert(v) {
		t.Fatal("insert into released basis failed")
	}
}

// TestSolveWideRHS exercises the augmented elimination with a right-hand
// side much wider than the coefficient matrix (the payload-decoding shape)
// and verifies m·x = rhs.
func TestSolveWideRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k = 16, 96
	var m *Matrix
	for {
		m = New(n, n)
		rng.Read(m.data)
		if m.Rank() == n {
			break
		}
	}
	rhs := New(n, k)
	rng.Read(rhs.data)
	x, err := m.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	back := m.Mul(x)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			if back.At(i, j) != rhs.At(i, j) {
				t.Fatalf("m·x != rhs at (%d,%d)", i, j)
			}
		}
	}
}

// TestSolveTallAndSingular checks tall systems (more equations than
// unknowns) still solve, and singular ones still fail, after the augmented
// rewrite.
func TestSolveTallAndSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := New(8, 8)
	for {
		rng.Read(base.data)
		if base.Rank() == 8 {
			break
		}
	}
	tall := New(12, 8)
	for i := 0; i < 12; i++ {
		copy(tall.Row(i), base.Row(i%8))
	}
	rhs := New(12, 4)
	for i := 0; i < 12; i++ {
		rng.Read(rhs.Row(i))
		copy(rhs.Row(i), rhs.Row(i%8)) // keep the tall system consistent
	}
	if _, err := tall.Solve(rhs); err != nil {
		t.Fatalf("consistent overdetermined system: %v", err)
	}

	sing := New(8, 8)
	for i := 0; i < 8; i++ {
		copy(sing.Row(i), base.Row(0))
	}
	if _, err := sing.Solve(New(8, 1)); err != ErrSingular {
		t.Fatalf("singular system returned %v, want ErrSingular", err)
	}
}

func BenchmarkSolveWide16x1024(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n = 16
	var m *Matrix
	for {
		m = New(n, n)
		rng.Read(m.data)
		if m.Rank() == n {
			break
		}
	}
	rhs := New(n, 1024)
	rng.Read(rhs.data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
