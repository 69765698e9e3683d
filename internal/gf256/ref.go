package gf256

// The Ref* kernels are the scalar reference implementations of the slice
// operations: one full-row table lookup per byte, no word-level tricks.
// They are compiled unconditionally so the fast kernels can be checked
// against them (differential tests and FuzzMulSliceEquivalence run in
// normal builds), and they *are* the exported kernels when the module is
// built with -tags gf256ref.

// RefMulSlice multiplies every element of dst by k in place, one table
// lookup per byte.
func RefMulSlice(k byte, dst []byte) {
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if k == 1 {
		return
	}
	row := &_mul[k]
	for i, v := range dst {
		dst[i] = row[v]
	}
}

// RefAddMulSlice computes dst[i] += k * src[i] for every index, one table
// lookup per byte. dst must be at least as long as src; a shorter dst
// panics via the bounds check.
func RefAddMulSlice(dst []byte, k byte, src []byte) {
	if k == 0 || len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // hoist the bounds check out of the loop
	if k == 1 {
		for i, v := range src {
			dst[i] ^= v
		}
		return
	}
	row := &_mul[k]
	for i, v := range src {
		dst[i] ^= row[v]
	}
}

// RefAddSlice computes dst[i] += src[i] for every index.
func RefAddSlice(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] ^= v
	}
}

// RefDot returns the inner product of a and b via the scalar table path.
func RefDot(a, b []byte) byte {
	_ = a[len(b)-1]
	var acc byte
	for i, v := range b {
		acc ^= _mul[a[i]][v]
	}
	return acc
}
