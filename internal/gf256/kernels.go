//go:build !gf256ref

package gf256

// Fast slice kernels. Coefficient 0 and 1 are peeled up front (clear/XOR —
// both common in sparse coefficient vectors); general coefficients run a
// SIMD kernel over the longest multiple-of-16 prefix when the CPU has one —
// the GFNI affine kernel, else the AVX2 VPSHUFB kernel — with the pure-Go
// word-at-a-time nibble kernel covering the tail, amd64 CPUs without AVX2,
// and every other architecture. Build with -tags gf256ref to swap these for
// the scalar reference implementations.

// Kernel names the slice-kernel implementation selected at startup:
// "gfni", "avx2", "nibble", or "ref".
func Kernel() string {
	switch {
	case useGFNI:
		return "gfni"
	case useAsm:
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
	if useAsm && len(dst) >= 16 {
		n := len(dst) &^ 15
		if useGFNI {
			mulSliceGFNI(_gfni[k], &dst[0], n)
		} else {
			mulSliceAsm(&_nib[k][0], &dst[0], n)
		}
		dst = dst[n:]
		if len(dst) == 0 {
			return
		}
	}
	mulSliceNibble(&_nib[k], dst)
}

// AddMulSlice computes dst[i] += k * src[i] for every index of src. dst
// must be at least as long as src; a shorter dst panics via the bounds
// check.
func AddMulSlice(dst []byte, k byte, src []byte) {
	if k == 0 || len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // hoist the bounds check out of the loop
	if k == 1 {
		AddSlice(dst, src)
		return
	}
	if useAsm && len(src) >= 16 {
		n := len(src) &^ 15
		if useGFNI {
			addMulSliceGFNI(_gfni[k], &dst[0], &src[0], n)
		} else {
			addMulSliceAsm(&_nib[k][0], &dst[0], &src[0], n)
		}
		dst, src = dst[n:], src[n:]
		if len(src) == 0 {
			return
		}
	}
	addMulSliceNibble(&_nib[k], dst, src)
}

// AddMulSlices computes dst[i] += Σ_j ks[j]·srcs[j][i] for every index of
// the sources: len(ks) AddMulSlice calls fused into one. On the gfni tier
// dst is read and written once per 256-byte stripe rather than once per
// source, and each source byte is multiplied by one affine instruction;
// below it the call is the sequential loop. The sources must share one
// length n, dst must be at least n long, and dst[:n] must not overlap any
// source (the fused kernel reads every source before it writes dst);
// violations panic. The result equals the sequential loop's byte for byte.
func AddMulSlices(dst, ks []byte, srcs [][]byte) {
	n := termsLen(dst, ks, srcs)
	m := 0 // bytes the fused kernel covered
	if useGFNI && n >= 32 {
		m = n &^ 31
		addMulSlicesGFNI(&_gfni[0], &dst[0], &ks[0], &srcs[0], len(srcs), m)
	}
	if m == n {
		return
	}
	for j, src := range srcs {
		AddMulSlice(dst[m:], ks[j], src[m:])
	}
}

// AddSlice computes dst[i] += src[i] for every index of src.
func AddSlice(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	addSliceWords(dst, src)
}
