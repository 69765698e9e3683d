// Package gf256 implements arithmetic in the Galois field GF(2^8).
//
// The field is constructed as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), the
// polynomial 0x11d used by most network-coding and Reed-Solomon
// implementations. Addition is XOR; multiplication is carried out through
// logarithm/antilogarithm tables built over the generator element 2.
//
// The package also provides the vector kernels used by the coding hot path:
// in-place multiply, multiply-accumulate (of one source, or of many fused
// into one pass over the destination), and dot products over byte slices.
package gf256

import "unsafe"

// Polynomial is the irreducible reduction polynomial of the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Polynomial = 0x11d

// Order is the number of elements in the field.
const Order = 256

// generator is a primitive element of the multiplicative group.
const generator = 2

var (
	_exp [510]byte // _exp[i] = generator^i, doubled to avoid a mod 255
	_log [256]byte // _log[x] = discrete log of x; _log[0] is unused

	// _mul[k] is the full multiplication row for coefficient k. The 64 KiB
	// table turns Dot into one branch-free lookup per byte and backs the
	// scalar reference kernels.
	_mul [256][256]byte

	// _nib[k] is the nibble-split product table for coefficient k: bytes
	// 0..15 hold k·n for the sixteen low-nibble values n, bytes 16..31 hold
	// k·(n<<4) for the sixteen high-nibble values. Since GF(2^8) addition
	// is XOR and multiplication distributes, k·v = _nib[k][v&15] ^
	// _nib[k][16+(v>>4)] — two lookups in a 32-byte row that fits in a
	// single cache-line pair. The whole table is 8 KiB (vs 64 KiB for
	// _mul), so it stays L1-resident across coefficient changes, and its
	// 16-entry halves are exactly the shape VPSHUFB consumes on amd64.
	_nib [256][32]byte

	// _gfni[k] is multiplication by k as the 8×8 bit matrix GF2P8AFFINEQB
	// applies to every byte: byte 7−i of the word holds output bit i, whose
	// bit j is set when bit i of k·2^j is. Multiplication is GF(2)-linear
	// in the bits of its operand, so one affine op per byte is the product.
	_gfni [256]uint64
)

// The tables are deterministic compile-time-style data; building them in a
// package-level initializer keeps them const-like without shipping 66 KiB
// of opaque literals.
var _ = buildTables()

func buildTables() struct{} {
	x := 1
	for i := 0; i < 255; i++ {
		_exp[i] = byte(x)
		_exp[i+255] = byte(x)
		_log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for a := 1; a < 256; a++ {
		la := int(_log[a])
		row := &_mul[a]
		for b := 1; b < 256; b++ {
			row[b] = _exp[la+int(_log[b])]
		}
	}
	for a := 0; a < 256; a++ {
		nib := &_nib[a]
		for n := 0; n < 16; n++ {
			nib[n] = _mul[a][n]
			nib[16+n] = _mul[a][n<<4]
		}
		var m uint64
		for j := 0; j < 8; j++ {
			p := _mul[a][1<<j]
			for i := 0; i < 8; i++ {
				m |= uint64(p>>i&1) << (8*(7-i) + j)
			}
		}
		_gfni[a] = m
	}
	return struct{}{}
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _exp[int(_log[a])+int(_log[b])]
}

// Div returns a / b in GF(2^8). Division by zero panics, mirroring the
// behaviour of integer division: it is a programming error, not a runtime
// condition callers are expected to handle.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return _exp[int(_log[a])+255-int(_log[b])]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return _exp[255-int(_log[a])]
}

// Exp returns generator^n for n >= 0.
func Exp(n int) byte {
	return _exp[n%255]
}

// Pow returns a^n in GF(2^8) with a^0 = 1 (including 0^0 = 1).
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return _exp[(int(_log[a])*n)%255]
}

// Dot returns the inner product of a and b. The slices must have equal
// length. Each product is a single row-table load — no zero-operand
// branches in the loop (_mul rows 0 and _mul[k][0] are zero anyway), which
// keeps the decoder's hot elimination path free of mispredictions on the
// sparse coefficient vectors it mostly sees.
func Dot(a, b []byte) byte {
	_ = a[len(b)-1] // hoist the bounds check out of the loop
	var acc byte
	for i, v := range b {
		acc ^= _mul[a[i]][v]
	}
	return acc
}

// termsLen checks the operands of AddMulSlices and returns the common source
// length: one coefficient per source, sources of equal length, dst at least
// that long, and no source overlapping the bytes of dst that are written.
// Every tier enforces the same rule, so a caller that passes under the
// scalar reference also passes under the fused kernel.
func termsLen(dst, ks []byte, srcs [][]byte) int {
	if len(ks) != len(srcs) {
		panic("gf256: AddMulSlices needs one coefficient per source")
	}
	if len(srcs) == 0 {
		return 0
	}
	n := len(srcs[0])
	if len(dst) < n {
		panic("gf256: AddMulSlices dst is shorter than its sources")
	}
	d0 := uintptr(unsafe.Pointer(unsafe.SliceData(dst)))
	d1 := d0 + uintptr(n)
	for _, s := range srcs {
		if len(s) != n {
			panic("gf256: AddMulSlices sources differ in length")
		}
		if s0 := uintptr(unsafe.Pointer(unsafe.SliceData(s))); s0 < d1 && d0 < s0+uintptr(n) {
			panic("gf256: AddMulSlices dst overlaps a source")
		}
	}
	return n
}
