package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	tests := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{1, 1, 0},
		{0x53, 0xCA, 0x99},
		{0xFF, 0x0F, 0xF0},
	}
	for _, tt := range tests {
		if got := Add(tt.a, tt.b); got != tt.want {
			t.Errorf("Add(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
		if got := Sub(tt.a, tt.b); got != tt.want {
			t.Errorf("Sub(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products in GF(2^8)/0x11d.
	tests := []struct {
		a, b, want byte
	}{
		{0, 7, 0},
		{7, 0, 0},
		{1, 0xAB, 0xAB},
		{2, 2, 4},
		{2, 0x80, 0x1d}, // wraps through the reduction polynomial
		{0x80, 0x80, 0x13},
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less multiply with reduction, the definitional algorithm.
	schoolbook := func(a, b byte) byte {
		var prod int
		ai := int(a)
		for bi := int(b); bi != 0; bi >>= 1 {
			if bi&1 != 0 {
				prod ^= ai
			}
			ai <<= 1
			if ai&0x100 != 0 {
				ai ^= Polynomial
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), schoolbook(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsExhaustiveInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%#x, Inv) = %#x, want 1", a, got)
		}
		if got := Div(1, byte(a)); got != inv {
			t.Fatalf("Div(1, %#x) = %#x, want %#x", a, got, inv)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		n    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{3, 0, 1},
		{2, 1, 2},
		{2, 8, 0x1d},
	}
	for _, tt := range tests {
		if got := Pow(tt.a, tt.n); got != tt.want {
			t.Errorf("Pow(%#x, %d) = %#x, want %#x", tt.a, tt.n, got, tt.want)
		}
	}
	// Pow by repeated multiplication.
	f := func(a byte, n uint8) bool {
		want := byte(1)
		for i := 0; i < int(n); i++ {
			want = Mul(want, a)
		}
		return Pow(a, int(n)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpCyclic(t *testing.T) {
	if Exp(0) != 1 {
		t.Errorf("Exp(0) = %#x, want 1", Exp(0))
	}
	if Exp(255) != Exp(0) {
		t.Errorf("Exp not cyclic with period 255")
	}
	seen := make(map[byte]bool, 255)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Errorf("generator does not generate the full multiplicative group: %d elements", len(seen))
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0x80, 0xFF}
	tests := []struct {
		k byte
	}{{0}, {1}, {2}, {0x1d}, {0xFF}}
	for _, tt := range tests {
		dst := append([]byte(nil), src...)
		MulSlice(tt.k, dst)
		for i := range src {
			if want := Mul(tt.k, src[i]); dst[i] != want {
				t.Errorf("MulSlice(k=%#x)[%d] = %#x, want %#x", tt.k, i, dst[i], want)
			}
		}
	}
}

func TestAddMulSlice(t *testing.T) {
	f := func(k byte, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		dst := make([]byte, len(data))
		for i := range dst {
			dst[i] = byte(i * 7)
		}
		want := make([]byte, len(data))
		for i := range want {
			want[i] = Add(dst[i], Mul(k, data[i]))
		}
		AddMulSlice(dst, k, data)
		for i := range want {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSlice(t *testing.T) {
	dst := []byte{1, 2, 3}
	AddSlice(dst, []byte{1, 2, 3})
	for i, v := range dst {
		if v != 0 {
			t.Errorf("AddSlice self-cancel index %d = %#x, want 0", i, v)
		}
	}
}

func TestDot(t *testing.T) {
	tests := []struct {
		a, b []byte
		want byte
	}{
		{[]byte{1}, []byte{5}, 5},
		{[]byte{1, 1}, []byte{5, 5}, 0},
		{[]byte{2, 3}, []byte{4, 5}, Add(Mul(2, 4), Mul(3, 5))},
	}
	for _, tt := range tests {
		if got := Dot(tt.a, tt.b); got != tt.want {
			t.Errorf("Dot(%v, %v) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestZeroAllocPaths pins each per-block kernel at 0 allocations per
// call, timed by the benchmark of the same name over the same operation.
func TestZeroAllocPaths(t *testing.T) {
	for _, k := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"Mul", mulOp},
		{"Dot1K", dot1KOp},
		{"AddMulSlice1K", addMulSliceOp(1024)},
		{"AddMulSlice64", addMulSliceOp(64)},
		{"MulSlice1K", mulSlice1KOp},
		{"AddMulSlices32x1K", addMulSlices32x1KOp},
	} {
		if n := testing.AllocsPerRun(100, k.op(t)); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", k.name, n)
		}
	}
}

// benchOp times op, which processes bytes bytes per call.
func benchOp(b *testing.B, bytes int64, op func()) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func mulOp(testing.TB) func() {
	var acc byte
	var i int
	return func() {
		acc ^= Mul(byte(i), byte(i>>8))
		i++
	}
}

func BenchmarkMul(b *testing.B) { benchOp(b, 0, mulOp(b)) }

func TestDotMatchesMulLoop(t *testing.T) {
	// Cross-check the table-lookup Dot against the scalar definition over
	// vectors with many zeros, the shape the decoder's elimination sees.
	a := make([]byte, 257)
	v := make([]byte, 257)
	for i := range a {
		a[i] = byte(i * 7)
		if i%3 == 0 {
			v[i] = byte(i * 13)
		}
	}
	var want byte
	for i := range v {
		want ^= Mul(a[i], v[i])
	}
	if got := Dot(a, v); got != want {
		t.Fatalf("Dot = %#x, want %#x", got, want)
	}
}

func dot1KOp(testing.TB) func() {
	x := make([]byte, 1024)
	y := make([]byte, 1024)
	for i := range x {
		x[i] = byte(i * 31)
		y[i] = byte(i * 17)
	}
	var acc byte
	return func() { acc ^= Dot(x, y) }
}

func BenchmarkDot1K(b *testing.B) { benchOp(b, 1024, dot1KOp(b)) }

// addMulSliceOp folds one n-byte source into a destination under a
// changing odd coefficient.
func addMulSliceOp(n int) func(testing.TB) func() {
	return func(testing.TB) func() {
		dst := make([]byte, n)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		var c byte
		return func() {
			AddMulSlice(dst, c|1, src)
			c++
		}
	}
}

func BenchmarkAddMulSlice1K(b *testing.B) { benchOp(b, 1024, addMulSliceOp(1024)(b)) }

func TestMulTableMatchesMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if _mul[a][b] != Mul(byte(a), byte(b)) {
				t.Fatalf("_mul[%#x][%#x] = %#x, want %#x", a, b, _mul[a][b], Mul(byte(a), byte(b)))
			}
		}
	}
}
