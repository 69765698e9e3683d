//go:build gf256ref

package gf256

// Reference build: the exported slice kernels are the scalar table loops.
// This tag exists so a miscompiled or miswritten fast kernel can be ruled
// out in one rebuild, and so CI exercises the reference path end to end.

// Kernel names the slice-kernel implementation selected at startup.
func Kernel() string { return "ref" }

// MulSlice multiplies every element of dst by k in place.
func MulSlice(k byte, dst []byte) { RefMulSlice(k, dst) }

// AddMulSlice computes dst[i] += k * src[i] for every index of src. dst
// must be at least as long as src; a shorter dst panics via the bounds
// check.
func AddMulSlice(dst []byte, k byte, src []byte) { RefAddMulSlice(dst, k, src) }

// AddMulSlices computes dst[i] += Σ_j ks[j]·srcs[j][i] for every index of
// the sources, one scalar RefAddMulSlice per source. The operand rule is the
// fast build's: sources of one length n, dst at least n long, and dst[:n]
// overlapping none of them; violations panic.
func AddMulSlices(dst, ks []byte, srcs [][]byte) {
	termsLen(dst, ks, srcs)
	for j, src := range srcs {
		RefAddMulSlice(dst, ks[j], src)
	}
}

// AddSlice computes dst[i] += src[i] for every index of src.
func AddSlice(dst, src []byte) { RefAddSlice(dst, src) }
