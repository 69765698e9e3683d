package gf256

import (
	"bytes"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// The kernels_test file checks the selected fast kernels against the scalar
// reference implementations across sizes, alignments, and aliasing that the
// fixed-vector tests in gf256_test.go do not reach: sub-word tails, chunks
// that straddle the SIMD/scalar boundary, and misaligned starting offsets.

// Lengths run 0..maxDiffLen and offsets cover all 32 positions within a YMM
// word, so the AVX2 kernel's 64-, 32- and 16-byte steps and the scalar tail
// are each hit in every combination.
const (
	maxDiffLen = 300
	diffAligns = 32
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestKernelName(t *testing.T) {
	k := Kernel()
	switch k {
	case "avx2", "nibble", "ref":
	default:
		t.Fatalf("Kernel() = %q", k)
	}
	t.Logf("selected kernel: %s", k)
	if k == "ref" || runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	// The hand-rolled CPUID/XGETBV probe must agree with the kernel's view.
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot cross-check against /proc/cpuinfo: %v", err)
	}
	want := "nibble"
	if regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(cpuinfo) {
		want = "avx2"
	}
	if k != want {
		t.Fatalf("Kernel() = %q, /proc/cpuinfo implies %q", k, want)
	}
}

// TestMulSliceDifferential drives MulSlice against RefMulSlice over every
// length 0..maxDiffLen (covering empty, sub-word, sub-chunk, and
// multi-chunk-plus-tail shapes) at every starting alignment, with random
// coefficients.
func TestMulSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= maxDiffLen; n++ {
		for off := 0; off < diffAligns; off++ {
			k := byte(rng.Intn(256))
			backing := randBytes(rng, off+n)
			got := append([]byte(nil), backing...)
			want := append([]byte(nil), backing...)
			MulSlice(k, got[off:])
			RefMulSlice(k, want[off:])
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(k=%#x, n=%d, off=%d) diverges from reference\n got %x\nwant %x",
					k, n, off, got, want)
			}
		}
	}
}

// TestAddMulSliceDifferential does the same for the multiply-accumulate
// kernel, including dst longer than src (the bounds contract allows it).
func TestAddMulSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= maxDiffLen; n++ {
		for off := 0; off < diffAligns; off++ {
			k := byte(rng.Intn(256))
			// dst and src start at different alignments, and dst carries
			// extra bytes past len(src) that must come back untouched.
			dstOff := (off*7 + n) % diffAligns
			src := randBytes(rng, off+n)
			dst := randBytes(rng, dstOff+n+rng.Intn(3))
			got := append([]byte(nil), dst...)
			want := append([]byte(nil), dst...)
			AddMulSlice(got[dstOff:], k, src[off:])
			RefAddMulSlice(want[dstOff:], k, src[off:])
			if !bytes.Equal(got, want) {
				t.Fatalf("AddMulSlice(k=%#x, n=%d, off=%d/%d) diverges from reference\n got %x\nwant %x",
					k, n, dstOff, off, got, want)
			}
		}
	}
}

// TestAddMulSliceAliased checks the kernels on fully-aliased operands:
// dst[i] ^= k·dst[i] must equal (k+1)·dst[i] and match the reference run on
// a private copy.
func TestAddMulSliceAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= maxDiffLen; n++ {
		for off := 0; off < diffAligns; off++ {
			k := byte(rng.Intn(256))
			backing := randBytes(rng, off+n)
			want := append([]byte(nil), backing...)
			RefMulSlice(k^1, want[off:]) // (k+1)·v in GF(2^8)
			buf := backing[off:]
			AddMulSlice(buf, k, buf)
			if !bytes.Equal(backing, want) {
				t.Fatalf("aliased AddMulSlice(k=%#x, n=%d, off=%d) diverges\n got %x\nwant %x",
					k, n, off, backing, want)
			}
		}
	}
}

func TestAddSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(131)
		src := randBytes(rng, n)
		dst := randBytes(rng, n)
		got := append([]byte(nil), dst...)
		want := append([]byte(nil), dst...)
		if n > 0 {
			AddSlice(got, src)
			RefAddSlice(want, src)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: AddSlice(n=%d) diverges from reference", trial, n)
		}
	}
}

func TestDotMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(130)
		a := randBytes(rng, n)
		b := randBytes(rng, n)
		if got, want := Dot(a, b), RefDot(a, b); got != want {
			t.Fatalf("trial %d: Dot = %#x, RefDot = %#x", trial, got, want)
		}
	}
}

// FuzzMulSliceEquivalence feeds arbitrary coefficients and payloads through
// both MulSlice and AddMulSlice and cross-checks the fast kernels against
// the scalar reference. The offset byte exercises SIMD-unfriendly starting
// alignments.
func FuzzMulSliceEquivalence(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(1), byte(3), []byte{0x01})
	f.Add(byte(2), byte(7), []byte{0xff, 0x80, 0x01, 0x55, 0xaa, 0x13, 0x37})
	f.Add(byte(0x1d), byte(0), bytes.Repeat([]byte{0xa5}, 33))
	f.Add(byte(0xff), byte(15), bytes.Repeat([]byte{0x5a}, 64))
	// One length per combination of the AVX2 kernel's tail steps: 47 = 32+tail
	// (no 16), 95 = 64+16+tail (no 32), 129 = 2×64+tail (neither).
	f.Add(byte(0x53), byte(0), bytes.Repeat([]byte{0xc3}, 47))
	f.Add(byte(0xca), byte(0), bytes.Repeat([]byte{0x3c}, 95))
	f.Add(byte(0x8e), byte(0), bytes.Repeat([]byte{0x96}, 129))
	f.Fuzz(func(t *testing.T, k byte, off byte, data []byte) {
		o := int(off) % 16
		if o > len(data) {
			o = 0
		}
		d := data[o:]

		got := append([]byte(nil), d...)
		want := append([]byte(nil), d...)
		MulSlice(k, got)
		RefMulSlice(k, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("MulSlice(k=%#x) diverges on %d bytes", k, len(d))
		}

		acc := append([]byte(nil), d...)
		refAcc := append([]byte(nil), d...)
		if len(d) > 0 {
			AddMulSlice(acc, k, d)
			RefAddMulSlice(refAcc, k, d)
		}
		if !bytes.Equal(acc, refAcc) {
			t.Fatalf("AddMulSlice(k=%#x) diverges on %d bytes", k, len(d))
		}
	})
}

func BenchmarkMulSlice1K(b *testing.B) {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(byte(i|2), buf)
	}
}

func BenchmarkAddMulSlice64(b *testing.B) {
	dst := make([]byte, 64)
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i * 7)
	}
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMulSlice(dst, byte(i|1), src)
	}
}
