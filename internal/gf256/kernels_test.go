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
	case "gfni", "avx2", "nibble", "ref":
	default:
		t.Fatalf("Kernel() = %q", k)
	}
	t.Logf("selected kernel: %s", k)
	if k == "ref" || runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	// The hand-rolled CPUID/XGETBV probes must agree with the kernel's view.
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot cross-check against /proc/cpuinfo: %v", err)
	}
	flag := func(name string) bool {
		return regexp.MustCompile(`(?m)^flags\s*:.*\b` + name + `\b`).Match(cpuinfo)
	}
	want := "nibble"
	if flag("avx2") {
		want = "avx2"
		if flag("gfni") {
			want = "gfni"
		}
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
// kernel, including dst longer than src (the bounds contract allows it) and
// an empty src, which must leave dst alone.
func TestAddMulSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= maxDiffLen; n++ {
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
		AddSlice(got, src)
		RefAddSlice(want, src)
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
		AddMulSlice(acc, k, d)
		RefAddMulSlice(refAcc, k, d)
		if !bytes.Equal(acc, refAcc) {
			t.Fatalf("AddMulSlice(k=%#x) diverges on %d bytes", k, len(d))
		}
	})
}

// sourceCounts are the AddMulSlices source counts the differential covers:
// none, a few, and both sides of 32 and 64, the batch width the callers
// flush at and twice it.
var sourceCounts = []int{0, 1, 2, 3, 8, 31, 32, 33, 64, 65}

// sequential is AddMulSlices' definition: one reference multiply-accumulate
// per source, in order.
func sequential(dst, ks []byte, srcs [][]byte) {
	for j, src := range srcs {
		RefAddMulSlice(dst, ks[j], src)
	}
}

// TestAddMulSlicesDifferential drives the fused kernel against the
// sequential reference over every length 0..maxDiffLen — the 256-byte
// stripes, the 32-byte chunks after them and the sub-32 tail in every
// combination — at every dst alignment, with every count in sourceCounts
// per length, each source at its own alignment, coefficients 0, 1 and
// random, and dst longer than the sources.
func TestAddMulSlicesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= maxDiffLen; n++ {
		for off := 0; off < diffAligns; off++ {
			m := sourceCounts[(n+off)%len(sourceCounts)]
			ks := make([]byte, m)
			srcs := make([][]byte, m)
			for j := range srcs {
				switch rng.Intn(4) {
				case 0:
					ks[j] = 0
				case 1:
					ks[j] = 1
				default:
					ks[j] = byte(rng.Intn(256))
				}
				so := (off + 5*j) % diffAligns
				srcs[j] = randBytes(rng, so+n)[so:]
			}
			dstOff := (off*7 + n) % diffAligns
			dst := randBytes(rng, dstOff+n+rng.Intn(3))
			got := append([]byte(nil), dst...)
			want := append([]byte(nil), dst...)
			AddMulSlices(got[dstOff:], ks, srcs)
			sequential(want[dstOff:], ks, srcs)
			if !bytes.Equal(got, want) {
				t.Fatalf("AddMulSlices(n=%d, m=%d, off=%d/%d, ks=%x) diverges from reference\n got %x\nwant %x",
					n, m, dstOff, off, ks, got, want)
			}
		}
	}
}

// TestAddMulSlicesOperandRules pins the operand contract every tier
// enforces: dst must not overlap a source by even one byte (the fused kernel
// reads all sources before writing dst, so an overlap would not compute the
// sequential result), sources share one length, dst is at least that long,
// and there is one coefficient per source. Adjacent, non-overlapping
// operands in one buffer are fine.
func TestAddMulSlicesOperandRules(t *testing.T) {
	buf := make([]byte, 160)
	for i := range buf {
		buf[i] = byte(i)
	}
	ks := []byte{0x53, 7}
	panics := []struct {
		name string
		dst  []byte
		ks   []byte
		srcs [][]byte
	}{
		{"dst is a source", buf[:64], ks, [][]byte{buf[64:128], buf[:64]}},
		{"last source byte is first dst byte", buf[63:127], ks, [][]byte{buf[:64], buf[96:160]}},
		{"first source byte is last dst byte", buf[:64], ks, [][]byte{buf[96:160], buf[63:127]}},
		{"unequal sources", buf[:64], ks, [][]byte{buf[64:128], buf[64:127]}},
		{"dst too short", buf[:63], ks, [][]byte{buf[64:128], buf[96:160]}},
		{"coefficient count", buf[:64], ks[:1], [][]byte{buf[64:128], buf[96:160]}},
	}
	for _, tc := range panics {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("AddMulSlices did not panic")
				}
			}()
			AddMulSlices(tc.dst, tc.ks, tc.srcs)
		})
	}

	// Sources may overlap each other, and dst bytes past the sources' length
	// are neither written nor checked.
	want := append([]byte(nil), buf...)
	sequential(want[:64], ks, [][]byte{buf[64:128], buf[80:144]})
	AddMulSlices(buf[:96], ks, [][]byte{buf[64:128], buf[80:144]})
	if !bytes.Equal(buf, want) {
		t.Errorf("adjacent operands: got %x\nwant %x", buf, want)
	}
}

// FuzzAddMulSlicesEquivalence cross-checks the fused kernel against the
// sequential reference on arbitrary payloads: up to 65 sources, each a
// distinct rotation of the data at its own alignment, with coefficients
// cycled from the fuzzed list.
func FuzzAddMulSlicesEquivalence(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{}, []byte{})
	f.Add(byte(1), byte(3), []byte{0x1d}, []byte{0x01, 0x80})
	f.Add(byte(3), byte(5), []byte{0, 1, 0x53}, bytes.Repeat([]byte{0xa5}, 33))
	f.Add(byte(8), byte(31), []byte{0xca, 0}, bytes.Repeat([]byte{0x3c}, 256))
	f.Add(byte(33), byte(0), []byte{0xff, 1, 0x8e}, bytes.Repeat([]byte{0x96}, 289))
	f.Add(byte(65), byte(17), []byte{2}, bytes.Repeat([]byte{0x5a}, 575))
	f.Fuzz(func(t *testing.T, count byte, off byte, coeffs []byte, data []byte) {
		m := int(count) % 66
		n := len(data)
		aligned := func(o int) []byte { return make([]byte, o+n)[o:] }
		ks := make([]byte, m)
		srcs := make([][]byte, m)
		for j := range srcs {
			if len(coeffs) > 0 {
				ks[j] = coeffs[j%len(coeffs)]
			}
			src := aligned((int(off) + j) % diffAligns)
			for i := range src {
				src[i] = data[(i+j)%n]
			}
			srcs[j] = src
		}
		got := aligned(int(off) % diffAligns)
		copy(got, data)
		want := append([]byte(nil), data...)
		AddMulSlices(got, ks, srcs)
		sequential(want, ks, srcs)
		if !bytes.Equal(got, want) {
			t.Fatalf("AddMulSlices(m=%d, ks=%x) diverges on %d bytes", m, ks, n)
		}
	})
}

func mulSlice1KOp(testing.TB) func() {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	var c byte
	return func() {
		MulSlice(c|2, buf)
		c++
	}
}

func BenchmarkMulSlice1K(b *testing.B) { benchOp(b, 1024, mulSlice1KOp(b)) }

func BenchmarkAddMulSlice64(b *testing.B) { benchOp(b, 64, addMulSliceOp(64)(b)) }

// addMulSlices32x1KOp is one peer recode's payload work at s=32 and 1 KiB
// blocks: 32 sources folded into one destination.
func addMulSlices32x1KOp(testing.TB) func() {
	dst := make([]byte, 1024)
	ks := make([]byte, 32)
	srcs := make([][]byte, 32)
	for j := range srcs {
		ks[j] = byte(j*7 | 2)
		srcs[j] = make([]byte, 1024)
		for i := range srcs[j] {
			srcs[j][i] = byte(i + j)
		}
	}
	return func() { AddMulSlices(dst, ks, srcs) }
}

func BenchmarkAddMulSlices32x1K(b *testing.B) { benchOp(b, 32*1024, addMulSlices32x1KOp(b)) }
