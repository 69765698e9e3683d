//go:build amd64 && !gf256ref

package gf256

import "testing"

// TestNibbleTierOnAVX2Host flips the dispatch variable so the portable
// nibble kernels — the tier an amd64 CPU without AVX2 runs — go through the
// same differential tests as the selected tier, in the same `go test` run.
// No test in this package is parallel, so the flip is not observed elsewhere.
func TestNibbleTierOnAVX2Host(t *testing.T) {
	if !useAsm {
		t.Skip("the nibble tier is already the selected one")
	}
	useAsm = false
	defer func() { useAsm = true }()
	if got := Kernel(); got != "nibble" {
		t.Fatalf("Kernel() = %q with the AVX2 tier disabled", got)
	}
	t.Run("MulSlice", TestMulSliceDifferential)
	t.Run("AddMulSlice", TestAddMulSliceDifferential)
	t.Run("AddMulSliceAliased", TestAddMulSliceAliased)
}
