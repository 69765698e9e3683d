//go:build amd64 && !gf256ref

package gf256

// useAsm gates the AVX2 VPSHUFB kernels. An amd64 CPU (or a VM that masks
// feature bits) without AVX2 runs the portable nibble kernels like every
// other architecture; there is no narrower SIMD tier in between.
var useAsm = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS preserves YMM
// state. It is implemented in gf_amd64.s.
func hasAVX2() bool

// mulSliceAsm multiplies dst[0:n] by the coefficient whose nibble table
// starts at tab, in place. n must be a positive multiple of 16.
//
//go:noescape
func mulSliceAsm(tab *byte, dst *byte, n int)

// addMulSliceAsm computes dst[i] ^= k·src[i] for i in [0,n), where tab is
// coefficient k's nibble table. n must be a positive multiple of 16.
//
//go:noescape
func addMulSliceAsm(tab *byte, dst *byte, src *byte, n int)
