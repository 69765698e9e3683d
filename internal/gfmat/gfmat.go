// Package gfmat provides linear algebra over GF(2^8) as needed by random
// linear network coding: dense matrices, Gaussian elimination, and an
// incremental row-echelon form used to track the rank of a growing set of
// coefficient vectors one insertion at a time.
package gfmat

import (
	"errors"
	"fmt"

	"p2pcollect/internal/gf256"
	"p2pcollect/internal/slab"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("gfmat: singular system")

// Matrix is a dense rows×cols matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gfmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, copying the data. All rows must
// have the same length.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("gfmat: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) byte { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v byte) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []byte { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("gfmat: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k, a := range mrow {
			if a != 0 {
				gf256.AddMulSlice(orow, a, b.Row(k))
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []byte) []byte {
	if m.cols != len(v) {
		panic("gfmat: dimension mismatch in MulVec")
	}
	out := make([]byte, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = gf256.Dot(m.Row(i), v)
	}
	return out
}

// Rank returns the rank of the matrix. The receiver is not modified.
func (m *Matrix) Rank() int {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	e := NewEchelon(m.cols)
	rank := 0
	for i := 0; i < m.rows; i++ {
		if e.Insert(m.Row(i)) {
			rank++
		}
	}
	return rank
}

// Solve solves m·x = rhs where rhs holds one column per unknown right-hand
// side vector (rhs is rows×k). It returns the cols×k solution, or
// ErrSingular if m does not have full column rank. The receiver and rhs are
// not modified.
//
// Each equation is one insert [m row | rhs row] into a pooled augmented
// Echelon, so every row operation is a single multiply-accumulate kernel
// call spanning both halves; at full rank the pivot columns are the
// identity and the carried columns are the solution. Equations past full
// rank are not consulted.
func (m *Matrix) Solve(rhs *Matrix) (*Matrix, error) {
	if m.rows != rhs.rows {
		panic("gfmat: dimension mismatch in Solve")
	}
	if m.cols == 0 {
		return New(0, rhs.cols), nil
	}
	e := NewAugmented(m.cols, rhs.cols, true)
	defer e.Release()
	for i := 0; i < m.rows && !e.Full(); i++ {
		e.InsertRow(m.Row(i), rhs.Row(i))
	}
	if !e.Full() {
		return nil, ErrSingular
	}
	out := New(m.cols, rhs.cols)
	for i := 0; i < m.cols; i++ {
		copy(out.Row(i), e.Row(i)[m.cols:])
	}
	return out, nil
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		panic("gfmat: Inverse of non-square matrix")
	}
	return m.Solve(Identity(m.rows))
}

// Echelon maintains a reduced row-echelon basis for a growing set of rows
// [v | x]: width pivot columns followed by extra carried columns. Pivots
// are sought among the first width columns only; every row operation runs
// across the whole row, so the carried columns follow the elimination for
// free. With extra = 0 this is the rank structure peers and servers use to
// decide whether a coded block is innovative; with a payload carried behind
// the coefficients it is the progressive decoder, and with a right-hand
// side it is the linear solver — the repository's one elimination loop.
// Insert is O(rank · (width+extra)); Rank is O(1).
type Echelon struct {
	width  int
	extra  int
	pivots []int    // pivot column of each stored row, ascending
	rows   [][]byte // stored rows, normalized to leading coefficient 1

	// scratch is the reusable reduction buffer for InsertRow. A
	// redundant Insert reduces the candidate to zero inside scratch and
	// allocates nothing; an innovative Insert promotes scratch into the
	// basis and lazily replaces it on the next call. Since buffers where
	// coding traffic mostly consists of redundant arrivals, this removes
	// the per-arrival allocation from the innovation check.
	scratch []byte
	pooled  bool // rows and scratch come from the slab free list
}

// NewEchelon returns an empty basis for vectors of the given width.
func NewEchelon(width int) *Echelon { return NewAugmented(width, 0, false) }

// NewAugmented returns an empty basis for rows of width pivot columns
// followed by extra carried columns. A pooled basis draws its rows from the
// slab free list: call Release when it is no longer needed so they return
// to the pool.
func NewAugmented(width, extra int, pooled bool) *Echelon {
	if width <= 0 || extra < 0 {
		panic(fmt.Sprintf("gfmat: invalid echelon shape %d+%d", width, extra))
	}
	return &Echelon{width: width, extra: extra, pooled: pooled}
}

// Rank returns the current rank of the inserted set.
func (e *Echelon) Rank() int { return len(e.rows) }

// Full reports whether the basis spans the whole space.
func (e *Echelon) Full() bool { return len(e.rows) == e.width }

// Row returns the i-th basis row, pivot columns then carried columns, in
// ascending pivot order; at full rank row i has pivot i. The slice aliases
// basis storage: it is valid until the next Insert or Release and must not
// be modified.
func (e *Echelon) Row(i int) []byte { return e.rows[i] }

// Insert is InsertRow for a basis without carried columns.
func (e *Echelon) Insert(v []byte) bool { return e.InsertRow(v, nil) }

// InsertRow reduces the row [v | x] against the basis and, if a non-zero
// remainder is left in the pivot columns, adds it, returning true. Neither
// argument is modified. Inserting a row of the wrong shape panics. A
// redundant insert allocates nothing: the reduction runs in the reusable
// scratch row.
func (e *Echelon) InsertRow(v, x []byte) bool {
	if len(v) != e.width || len(x) != e.extra {
		panic(fmt.Sprintf("gfmat: echelon shape %d+%d, row shape %d+%d", e.width, e.extra, len(v), len(x)))
	}
	n := e.width + e.extra
	if e.scratch == nil { // the previous one was promoted into the basis
		if e.pooled {
			e.scratch = slab.Get(n)
		} else {
			e.scratch = make([]byte, n)
		}
	}
	w := e.scratch[:n]
	copy(w, v)
	copy(w[e.width:], x)
	if !e.insertOwned(w) {
		return false // scratch stays ours for the next insert
	}
	e.scratch = nil
	return true
}

// fuseBatch bounds the rows one fused forward reduction takes, so the
// multiplier and row lists live on the stack; a wider basis reduces in
// batches.
const fuseBatch = 32

func (e *Echelon) insertOwned(v []byte) bool {
	// Forward reduction: v ⊕= Σ v[p]·row over the basis. The basis is in
	// reduced echelon form, so a row is zero in every other row's pivot
	// column and subtracting it leaves v's other pivot entries alone: the
	// multipliers are v's entries before any update, and the sum is one
	// fused kernel call per batch with the sequential loop's bytes.
	var ks [fuseBatch]byte
	var srcs [fuseBatch][]byte
	m := 0
	for idx, p := range e.pivots {
		if v[p] == 0 {
			continue
		}
		if m == fuseBatch {
			gf256.AddMulSlices(v, ks[:m], srcs[:m])
			m = 0
		}
		ks[m], srcs[m] = v[p], e.rows[idx]
		m++
	}
	gf256.AddMulSlices(v, ks[:m], srcs[:m])
	pivot := firstNonZero(v[:e.width])
	if pivot < 0 {
		return false
	}
	gf256.MulSlice(gf256.Inv(v[pivot]), v)
	// Back-substitute into existing rows so the basis stays reduced.
	for idx := range e.rows {
		if f := e.rows[idx][pivot]; f != 0 {
			gf256.AddMulSlice(e.rows[idx], f, v)
		}
	}
	// Keep rows ordered by pivot column.
	pos := len(e.pivots)
	for i, p := range e.pivots {
		if pivot < p {
			pos = i
			break
		}
	}
	e.pivots = append(e.pivots, 0)
	copy(e.pivots[pos+1:], e.pivots[pos:])
	e.pivots[pos] = pivot
	e.rows = append(e.rows, nil)
	copy(e.rows[pos+1:], e.rows[pos:])
	e.rows[pos] = v
	return true
}

// Reset empties the basis, retaining capacity where possible. For a pooled
// basis the rows stay checked out; use Release to hand them back.
func (e *Echelon) Reset() {
	e.pivots = e.pivots[:0]
	e.rows = e.rows[:0]
}

// Release empties the basis and, when it is pooled, returns every stored
// row and the scratch buffer to the slab free list. The basis remains
// usable (empty) afterwards.
func (e *Echelon) Release() {
	if e.pooled {
		for i, r := range e.rows {
			slab.Put(r)
			e.rows[i] = nil
		}
		if e.scratch != nil {
			slab.Put(e.scratch)
		}
	}
	e.scratch = nil
	e.Reset()
}

func firstNonZero(v []byte) int {
	for i, x := range v {
		if x != 0 {
			return i
		}
	}
	return -1
}
