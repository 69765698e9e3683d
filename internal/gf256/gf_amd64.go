//go:build amd64 && !gf256ref

package gf256

// useAsm gates the AVX2 VPSHUFB kernels and useGFNI the GFNI tier above
// them; useGFNI implies useAsm. An amd64 CPU (or a VM that masks feature
// bits) without AVX2 runs the portable nibble kernels like every other
// architecture; there is no narrower SIMD tier in between.
var (
	useAsm  = hasAVX2()
	useGFNI = useAsm && hasGFNI()
)

// hasAVX2 reports whether the CPU implements AVX2 and the OS preserves YMM
// state. It is implemented in gf_amd64.s.
func hasAVX2() bool

// hasGFNI reports whether the CPU implements GFNI. Its VEX forms need the
// YMM state hasAVX2 checks for, so it is asked only when that holds.
func hasGFNI() bool

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

// mulSliceGFNI multiplies dst[0:n] in place by the coefficient whose bit
// matrix is mat. n must be a positive multiple of 16.
//
//go:noescape
func mulSliceGFNI(mat uint64, dst *byte, n int)

// addMulSliceGFNI computes dst[i] ^= k·src[i] for i in [0,n), where mat is
// coefficient k's bit matrix. n must be a positive multiple of 16.
//
//go:noescape
func addMulSliceGFNI(mat uint64, dst *byte, src *byte, n int)

// addMulSlicesGFNI computes dst[i] ^= Σ_j ks[j]·srcs[j][i] for i in [0,n)
// over the m sources, reading and writing dst once per 256-byte stripe. tab
// is the _gfni table, n a positive multiple of 32, m at least 1, and every
// source at least n bytes long.
//
//go:noescape
func addMulSlicesGFNI(tab *uint64, dst *byte, ks *byte, srcs *[]byte, m int, n int)
