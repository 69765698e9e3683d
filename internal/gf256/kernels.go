//go:build !gf256ref

package gf256

// Fast slice kernels. Coefficient 0 and 1 are peeled up front (clear/XOR —
// both common in sparse coefficient vectors); general coefficients run the
// AVX2 VPSHUFB kernel over the longest multiple-of-16 prefix when the CPU
// has it, with the pure-Go word-at-a-time nibble kernel covering the tail,
// amd64 CPUs without AVX2, and every other architecture. Build with -tags
// gf256ref to swap these for the scalar reference implementations.

// Kernel names the slice-kernel implementation selected at startup:
// "avx2", "nibble", or "ref".
func Kernel() string {
	if useAsm {
		return "avx2"
	}
	return "nibble"
}

// MulSlice multiplies every element of dst by k in place.
func MulSlice(k byte, dst []byte) {
	switch k {
	case 0:
		clear(dst)
		return
	case 1:
		return
	}
	nib := &_nib[k]
	if useAsm && len(dst) >= 16 {
		n := len(dst) &^ 15
		mulSliceAsm(&nib[0], &dst[0], n)
		dst = dst[n:]
		if len(dst) == 0 {
			return
		}
	}
	mulSliceNibble(nib, dst)
}

// AddMulSlice computes dst[i] += k * src[i] for every index of src. The
// slices must have equal length; mismatched lengths panic via the bounds
// check.
func AddMulSlice(dst []byte, k byte, src []byte) {
	if k == 0 {
		return
	}
	_ = dst[len(src)-1] // hoist the bounds check out of the loop
	if k == 1 {
		AddSlice(dst, src)
		return
	}
	nib := &_nib[k]
	if useAsm && len(src) >= 16 {
		n := len(src) &^ 15
		addMulSliceAsm(&nib[0], &dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
		if len(src) == 0 {
			return
		}
	}
	addMulSliceNibble(nib, dst, src)
}

// AddSlice computes dst[i] += src[i] for every index of src.
func AddSlice(dst, src []byte) {
	_ = dst[len(src)-1]
	addSliceWords(dst, src)
}
