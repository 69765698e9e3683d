package obs

import "sync"

// ring is a bounded window over a stream, safe for concurrent use: it grows
// by append until it holds max elements and then overwrites the oldest, so
// an instrument costs memory for what it has seen, not for its bound.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int // oldest element, once len(buf) == max
	max  int
}

// ringCap clamps a requested ring capacity to the minimum of 1.
func ringCap(capacity int) int {
	if capacity < 1 {
		return 1
	}
	return capacity
}

// push appends *v, evicting the oldest element when full. It allocates only
// while the ring is still growing. (By pointer: a by-value 64-byte event
// is copied once more per call, which shows on the always-on trace path.)
func (r *ring[T]) push(v *T) {
	r.mu.Lock()
	if len(r.buf) < r.max {
		r.buf = append(r.buf, *v)
	} else {
		r.buf[r.head] = *v
		if r.head++; r.head == r.max {
			r.head = 0
		}
	}
	r.mu.Unlock()
}

// len returns the number of elements held.
func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// snapshot returns the window oldest-first as a fresh slice.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
