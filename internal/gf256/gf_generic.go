//go:build !amd64 && !gf256ref

package gf256

// Non-amd64 builds have no SIMD kernel; the word-at-a-time nibble kernels
// carry the whole load.
const (
	useAsm  = false
	useGFNI = false
)

func mulSliceAsm(tab *byte, dst *byte, n int) {
	panic("gf256: mulSliceAsm on non-amd64")
}

func addMulSliceAsm(tab *byte, dst *byte, src *byte, n int) {
	panic("gf256: addMulSliceAsm on non-amd64")
}

func mulSliceGFNI(mat uint64, dst *byte, n int) {
	panic("gf256: mulSliceGFNI on non-amd64")
}

func addMulSliceGFNI(mat uint64, dst *byte, src *byte, n int) {
	panic("gf256: addMulSliceGFNI on non-amd64")
}

func addMulSlicesGFNI(tab *uint64, dst *byte, ks *byte, srcs *[]byte, m int, n int) {
	panic("gf256: addMulSlicesGFNI on non-amd64")
}
