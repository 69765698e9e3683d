// Package gfmat is the one Gaussian elimination of random linear network
// coding over GF(2^8): Echelon, an incremental reduced row-echelon basis
// that tracks the rank of a growing set of coefficient vectors one
// insertion at a time and, with a payload carried behind them, decodes.
package gfmat

import (
	"fmt"
	"slices"

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
	width int
	extra int
	rank  int

	// slots is the echelon's row storage, carved from chunks of 1, 1, 2,
	// 4, … rows (never past width): slots[:rank] is the basis in
	// ascending pivot order, slots[rank:] are free. A candidate is reduced
	// in slots[rank] and, if innovative, filed there by pivot without a
	// copy; a redundant one leaves the slot free. Capacity only doubles
	// when a candidate finds no free slot, so at rank r at most 2r+1 rows
	// are held.
	slots []slot
}

// slot is one row of storage and, while it is in the basis, its pivot.
type slot struct {
	pivot int
	row   []byte
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
func (e *Echelon) Rank() int { return e.rank }

// Full reports whether the basis spans the whole space.
func (e *Echelon) Full() bool { return e.rank == e.width }

// Row returns the i-th basis row, pivot columns then carried columns, in
// ascending pivot order; at full rank row i has pivot i. The slice aliases
// basis storage and must not be modified. An innovative Insert may rewrite
// it (back-substitution) and renumber it, and after Reset its storage
// holds later candidates; a full basis writes no row again.
func (e *Echelon) Row(i int) []byte { return e.slots[:e.rank][i].row }

// Insert is InsertRow for a basis without carried columns.
func (e *Echelon) Insert(v []byte) bool { return e.InsertRow(v, nil) }

// fuseBatch bounds the rows one fused forward reduction takes, so the
// multiplier and row lists live on the stack; a wider basis reduces in
// batches.
const fuseBatch = 32

// InsertRow reduces the row [v | x] against the basis and, if a non-zero
// remainder is left in the pivot columns, adds it, returning true. Neither
// argument is modified. Inserting a row of the wrong shape panics. A full
// basis rejects every row at once. A redundant insert allocates nothing:
// the reduction runs in the next free slot, which stays free.
func (e *Echelon) InsertRow(v, x []byte) bool {
	if len(v) != e.width || len(x) != e.extra {
		panic(fmt.Sprintf("gfmat: echelon shape %d+%d, row shape %d+%d", e.width, e.extra, len(v), len(x)))
	}
	if e.Full() {
		return false
	}
	if e.rank == len(e.slots) {
		e.grow()
	}
	basis := e.slots[:e.rank]
	w := e.slots[e.rank].row
	copy(w, v)
	copy(w[e.width:], x)
	// Forward reduction: w ⊕= Σ w[p]·row over the basis. The basis is in
	// reduced echelon form, so a row is zero in every other row's pivot
	// column and subtracting it leaves w's other pivot entries alone: the
	// multipliers are w's entries before any update, and the sum is one
	// fused kernel call per batch with the sequential loop's bytes.
	var ks [fuseBatch]byte
	var srcs [fuseBatch][]byte
	m := 0
	for _, b := range basis {
		if w[b.pivot] == 0 {
			continue
		}
		if m == fuseBatch {
			gf256.AddMulSlices(w, ks[:m], srcs[:m])
			m = 0
		}
		ks[m], srcs[m] = w[b.pivot], b.row
		m++
	}
	gf256.AddMulSlices(w, ks[:m], srcs[:m])
	pivot := firstNonZero(w[:e.width])
	if pivot < 0 {
		return false
	}
	gf256.MulSlice(gf256.Inv(w[pivot]), w)
	// Back-substitute into existing rows so the basis stays reduced.
	for _, b := range basis {
		if f := b.row[pivot]; f != 0 {
			gf256.AddMulSlice(b.row, f, w)
		}
	}
	// File the slot by pivot: rotate it down from slots[rank] to pos.
	pos, _ := slices.BinarySearchFunc(basis, pivot, func(b slot, p int) int { return b.pivot - p })
	s := e.slots[e.rank]
	s.pivot = pivot
	copy(e.slots[pos+1:e.rank+1], e.slots[pos:e.rank])
	e.slots[pos] = s
	e.rank++
	return true
}

// grow appends the next chunk of free slots: as many rows as are already
// held (one to start), never past width.
func (e *Echelon) grow() {
	n := e.width + e.extra
	k := min(max(len(e.slots), 1), e.width-len(e.slots))
	chunk := make([]byte, k*n)
	e.slots = slices.Grow(e.slots, k)
	for i := 0; i < k; i++ {
		e.slots = append(e.slots, slot{row: chunk[i*n : (i+1)*n : (i+1)*n]})
	}
}

// Reset empties the basis and keeps its storage: later inserts reduce in
// the same slots, so rebuilding a basis up to its old rank allocates
// nothing. Rows read through Row before a Reset are overwritten.
func (e *Echelon) Reset() { e.rank = 0 }

func firstNonZero(v []byte) int {
	for i, x := range v {
		if x != 0 {
			return i
		}
	}
	return -1
}
