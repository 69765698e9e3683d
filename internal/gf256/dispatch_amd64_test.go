//go:build amd64 && !gf256ref

package gf256

import "testing"

// The dispatch tests force each tier below the selected one — gfni, then
// avx2, then nibble — through the same differential tests as the selected
// tier, in the same `go test` run, so a GFNI host executes all three and a
// host with AVX2 alone still executes two. No test in this package is
// parallel, so the flip is not observed elsewhere.

// runTier runs the slice-kernel differentials with the dispatch flags set to
// gfni and avx2, restoring them afterwards.
func runTier(t *testing.T, gfni, avx2 bool, want string) {
	oldGFNI, oldAsm := useGFNI, useAsm
	useGFNI, useAsm = gfni, avx2
	defer func() { useGFNI, useAsm = oldGFNI, oldAsm }()
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q with the tiers above %s disabled", got, want)
	}
	t.Run("MulSlice", TestMulSliceDifferential)
	t.Run("AddMulSlice", TestAddMulSliceDifferential)
	t.Run("AddMulSliceAliased", TestAddMulSliceAliased)
	t.Run("AddMulSlices", TestAddMulSlicesDifferential)
}

// TestAVX2TierOnGFNIHost runs the avx2 tier, the one a CPU with AVX2 but
// without GFNI selects.
func TestAVX2TierOnGFNIHost(t *testing.T) {
	if !useGFNI {
		t.Skip("the gfni tier is not selected; avx2 or nibble already is")
	}
	runTier(t, false, true, "avx2")
}

// TestNibbleTierOnAVX2Host runs the portable nibble kernels, the tier an
// amd64 CPU without AVX2 selects.
func TestNibbleTierOnAVX2Host(t *testing.T) {
	if !useAsm {
		t.Skip("the nibble tier is already the selected one")
	}
	runTier(t, false, false, "nibble")
}
