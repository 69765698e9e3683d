// Package gfmat is the one Gaussian elimination of random linear network
// coding over GF(2^8): Echelon, an incremental reduced row-echelon basis
// that tracks the rank of a growing set of coefficient vectors one
// insertion at a time and, with a payload carried behind them, decodes.
package gfmat

import (
	"fmt"

	"p2pcollect/internal/gf256"
)

// Echelon maintains a reduced row-echelon basis for a growing set of rows
// [v | x]: width pivot columns followed by extra carried columns. Pivots
// are sought among the first width columns only; every row operation runs
// across the whole row, so the carried columns follow the elimination for
// free. With extra = 0 this is the rank structure peers and servers use to
// decide whether a coded block is innovative; with a payload carried behind
// the coefficients it is the progressive decoder — the repository's one
// elimination loop.
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
}

// NewEchelon returns an empty basis for vectors of the given width.
func NewEchelon(width int) *Echelon { return NewAugmented(width, 0) }

// NewAugmented returns an empty basis for rows of width pivot columns
// followed by extra carried columns.
func NewAugmented(width, extra int) *Echelon {
	if width <= 0 || extra < 0 {
		panic(fmt.Sprintf("gfmat: invalid echelon shape %d+%d", width, extra))
	}
	return &Echelon{width: width, extra: extra}
}

// Rank returns the current rank of the inserted set.
func (e *Echelon) Rank() int { return len(e.rows) }

// Full reports whether the basis spans the whole space.
func (e *Echelon) Full() bool { return len(e.rows) == e.width }

// Row returns the i-th basis row, pivot columns then carried columns, in
// ascending pivot order; at full rank row i has pivot i. The slice aliases
// basis storage: it is valid until the next Insert or Reset and must not
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
		e.scratch = make([]byte, n)
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

// Reset empties the basis, retaining capacity where possible.
func (e *Echelon) Reset() {
	e.pivots = e.pivots[:0]
	e.rows = e.rows[:0]
}

func firstNonZero(v []byte) int {
	for i, x := range v {
		if x != 0 {
			return i
		}
	}
	return -1
}
