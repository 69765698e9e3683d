// Package slab is a size-classed free list for the byte buffers that move
// through the coding hot paths: coefficient vectors, coded-block payloads,
// decoder rows, and wire-frame bodies. Steady-state gossip, pull, and
// decode traffic recycles a small working set of identically-sized buffers,
// so a bounded per-class free list removes essentially all allocation from
// those loops without the boxing overhead sync.Pool imposes on []byte
// values.
//
// Ownership discipline: a buffer obtained from Get has exactly one owner at
// a time. Put transfers ownership back to the slab; the caller must hold
// the only live reference. Putting a buffer that something else still
// aliases is a use-after-free bug — enable SetPoison in tests to make such
// bugs loud (released buffers are filled with PoisonByte, so any stale
// reader sees garbage instead of silently-recycled data).
package slab

import (
	"math/bits"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits bound the pooled capacities: 16 B to
	// 64 KiB, covering coefficient vectors (segment size) through block
	// payloads and frame bodies. Outside the range, Get falls back to the
	// allocator and Put drops the buffer.
	minClassBits = 4
	maxClassBits = 16
	numClasses   = maxClassBits - minClassBits + 1

	// classCap bounds how many free buffers each class retains; overflow
	// on Put is dropped to the garbage collector, so a transient burst
	// cannot pin memory forever.
	classCap = 512
)

// PoisonByte is the fill pattern Put writes over released buffers when
// poisoning is enabled.
const PoisonByte = 0xDB

// classes[i] holds free buffers with capacity in [2^(i+minClassBits),
// 2^(i+minClassBits+1)). Buffered channels give a lock-free-enough MPMC
// free list with zero allocations on both Get and Put.
var classes [numClasses]chan []byte

func init() {
	for i := range classes {
		classes[i] = make(chan []byte, classCap)
	}
}

var poison atomic.Bool

// SetPoison toggles poison-on-release: every buffer handed to Put is
// overwritten with PoisonByte across its full capacity before entering the
// free list. Tests enable it to catch released-but-still-referenced
// buffers; production leaves it off.
func SetPoison(on bool) { poison.Store(on) }

// classFor returns the class index whose buffers can hold n bytes, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < minClassBits {
		c = minClassBits
	}
	if c > maxClassBits {
		return -1
	}
	return c - minClassBits
}

// Get returns a zeroed slice of length n. The backing array comes from the
// free list when one is available; its capacity is at least the class size,
// so the buffer can be re-sliced up to cap. Get(0) returns nil.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	select {
	case b := <-classes[c]:
		b = b[:n]
		clear(b)
		return b
	default:
		return make([]byte, n, 1<<(c+minClassBits))
	}
}

// GetCopy returns a pooled copy of src (nil for empty src).
func GetCopy(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	b := Get(len(src))
	copy(b, src)
	return b
}

// Put returns b's backing array to the free list. The class is chosen by
// capacity, rounding down, so a buffer can only be handed back out for
// requests it can actually hold. Buffers outside the pooled range, and
// overflow beyond the per-class bound, are dropped for the garbage
// collector. Put(nil) is a no-op.
//
// The caller must own the only live reference to b's backing array,
// including any larger slice it was cut from.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minClassBits {
		return
	}
	cls := bits.Len(uint(c)) - 1 // floor(log2 cap)
	if cls > maxClassBits {
		return
	}
	b = b[:c]
	if poison.Load() {
		for i := range b {
			b[i] = PoisonByte
		}
	}
	select {
	case classes[cls-minClassBits] <- b:
	default: // class full; let the GC have it
	}
}
