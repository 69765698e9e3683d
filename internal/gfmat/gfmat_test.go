package gfmat

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"p2pcollect/internal/gf256"
)

func randomRows(rng *rand.Rand, rows, cols int) [][]byte {
	m := make([][]byte, rows)
	for i := range m {
		m[i] = make([]byte, cols)
		rng.Read(m[i])
	}
	return m
}

// refRank is the rank of rows by textbook scalar Gaussian elimination on
// copies of them, sharing no code with Echelon.
func refRank(rows [][]byte) int {
	m := make([][]byte, len(rows))
	for i, r := range rows {
		m[i] = append([]byte(nil), r...)
	}
	rank := 0
	for col := 0; len(m) > 0 && col < len(m[0]) && rank < len(m); col++ {
		p := rank
		for p < len(m) && m[p][col] == 0 {
			p++
		}
		if p == len(m) {
			continue
		}
		m[rank], m[p] = m[p], m[rank]
		inv := gf256.Inv(m[rank][col])
		for i := rank + 1; i < len(m); i++ {
			if f := m[i][col]; f != 0 {
				gf256.RefAddMulSlice(m[i], gf256.Mul(f, inv), m[rank])
			}
		}
		rank++
	}
	return rank
}

// mulRow is the row vector a times the matrix x: Σ a[k]·x[k].
func mulRow(a []byte, x [][]byte) []byte {
	out := make([]byte, len(x[0]))
	for k, c := range a {
		gf256.RefAddMulSlice(out, c, x[k])
	}
	return out
}

func echelonRank(width int, rows [][]byte) int {
	e := NewEchelon(width)
	for _, r := range rows {
		e.Insert(r)
	}
	return e.Rank()
}

func TestRank(t *testing.T) {
	tests := []struct {
		name  string
		width int
		rows  [][]byte
		want  int
	}{
		{"empty", 2, nil, 0},
		{"zero", 2, [][]byte{{0, 0}, {0, 0}}, 0},
		{"identity", 2, [][]byte{{1, 0}, {0, 1}}, 2},
		{"dependent", 2, [][]byte{{1, 2}, {2, 4}}, 1},
		{"three rows rank two", 3, [][]byte{{1, 0, 1}, {0, 1, 1}, {1, 1, 0}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := echelonRank(tt.width, tt.rows); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
			if got := refRank(tt.rows); got != tt.want {
				t.Errorf("reference rank = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEchelonInsertRank(t *testing.T) {
	e := NewEchelon(3)
	if !e.Insert([]byte{1, 1, 0}) {
		t.Fatal("first insert not innovative")
	}
	if e.Insert([]byte{2, 2, 0}) {
		t.Fatal("dependent insert reported innovative")
	}
	if !e.Insert([]byte{0, 0, 5}) {
		t.Fatal("independent insert rejected")
	}
	if e.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", e.Rank())
	}
	if e.Full() {
		t.Fatal("Full() true at rank 2 of 3")
	}
	if !e.Insert([]byte{1, 2, 3}) || !e.Full() {
		t.Fatal("could not complete the basis")
	}
	if e.Insert([]byte{9, 9, 9}) {
		t.Fatal("insert into full basis reported innovative")
	}
}

// TestEchelonMatchesMatrixRank checks every insert's innovation verdict
// against the rank of the rows so far under the scalar reference. Every
// third row is a combination of the rows above it, so dependent rows occur
// below full rank too.
func TestEchelonMatchesMatrixRank(t *testing.T) {
	f := func(seed int64, rows8, cols8 uint8) bool {
		rows := int(rows8%12) + 1
		cols := int(cols8%12) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randomRows(rng, rows, cols)
		for i := 2; i < rows; i += 3 {
			m[i] = mulRow(randomRows(rng, 1, i)[0], m[:i])
		}
		e := NewEchelon(cols)
		for i, r := range m {
			if e.Insert(r) != (refRank(m[:i+1]) > refRank(m[:i])) {
				return false
			}
		}
		return e.Rank() == refRank(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAugmentedEchelonCarriesColumns inserts rows [a | a·X] and checks that
// pivots are sought in the first width columns only while the carried
// columns follow every row operation: at full rank row i reads [e_i | X_i].
// The wide shape reduces against more than two fused batches per insert.
func TestAugmentedEchelonCarriesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][2]int{{6, 10}, {2*fuseBatch + 16, 40}} {
		width, extra := shape[0], shape[1]
		x := randomRows(rng, width, extra)
		e := NewAugmented(width, extra)
		for tries := 0; !e.Full(); tries++ {
			if tries == 4*width {
				t.Fatalf("width %d: rank %d after %d random rows", width, e.Rank(), tries)
			}
			a := randomRows(rng, 1, width)[0]
			rank := e.Rank()
			if e.InsertRow(a, mulRow(a, x)) != (e.Rank() == rank+1) {
				t.Fatal("InsertRow verdict disagrees with the rank change")
			}
		}
		for i := 0; i < width; i++ {
			row := e.Row(i)
			unit := make([]byte, width)
			unit[i] = 1
			if !bytes.Equal(row[:width], unit) {
				t.Fatalf("width %d: pivot columns of row %d are not e_%d: %v", width, i, i, row[:width])
			}
			if !bytes.Equal(row[width:], x[i]) {
				t.Fatalf("width %d: carried columns of row %d are not X_%d", width, i, i)
			}
		}
		// Dependent pivot columns make a row redundant whatever it carries.
		if e.InsertRow(make([]byte, width), x[0]) {
			t.Fatal("row with zero pivot columns reported innovative")
		}
	}
}

// TestEchelonStorageBound pins the growth rule of the slot storage: after
// every insert, innovative or not, a basis of rank r holds at most 2r+1
// rows, so one that stalls at low rank never pays for width rows. Every
// other row is dependent, so redundant candidates claim the free slot at
// every rank.
func TestEchelonStorageBound(t *testing.T) {
	f := func(seed int64, rows8, cols8, extra8 uint8) bool {
		rows := int(rows8%48) + 1
		cols := int(cols8%40) + 1
		extra := int(extra8 % 5)
		rng := rand.New(rand.NewSource(seed))
		m := randomRows(rng, rows, cols)
		for i := 1; i < rows; i += 2 {
			m[i] = mulRow(randomRows(rng, 1, i)[0], m[:i])
		}
		e := NewAugmented(cols, extra)
		x := make([]byte, extra)
		for _, r := range m {
			e.InsertRow(r, x)
			if len(e.slots) > 2*e.Rank()+1 {
				t.Logf("%dx%d+%d: %d rows held at rank %d", rows, cols, extra, len(e.slots), e.Rank())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEchelonInsertDoesNotModifyInput(t *testing.T) {
	e := NewEchelon(2)
	v := []byte{3, 4}
	e.Insert(v)
	if v[0] != 3 || v[1] != 4 {
		t.Error("Insert modified caller's vector")
	}
}

func TestEchelonReset(t *testing.T) {
	e := NewEchelon(2)
	e.Insert([]byte{1, 0})
	e.Reset()
	if e.Rank() != 0 {
		t.Errorf("Rank after Reset = %d", e.Rank())
	}
	if !e.Insert([]byte{1, 0}) {
		t.Error("insert after Reset rejected")
	}
}

func TestEchelonWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert with wrong width did not panic")
		}
	}()
	NewEchelon(3).Insert([]byte{1})
}

// TestEchelonRedundantInsertNoAlloc pins that a full basis rejects further
// Inserts (all redundant) without allocating.
func TestEchelonRedundantInsertNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEchelon(32)
	for !e.Full() {
		e.Insert(randomRows(rng, 1, 32)[0])
	}
	v := randomRows(rng, 1, 32)[0]
	allocs := testing.AllocsPerRun(100, func() {
		if e.Insert(v) {
			t.Fatal("insert into full basis reported innovative")
		}
	})
	if allocs != 0 {
		t.Fatalf("redundant Insert allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkEchelonInsert32(b *testing.B) {
	vecs := randomRows(rand.New(rand.NewSource(6)), 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEchelon(32)
		for _, v := range vecs {
			e.Insert(v)
		}
	}
}
