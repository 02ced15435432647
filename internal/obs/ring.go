package obs

import "sync"

// ring is the bounded buffer behind AlertLog, TraceRing and RollupRing:
// a fixed slice that overwrites its oldest entry once full. Every method
// is safe on a nil ring (adds are dropped, reads are empty) and for
// concurrent use. add copies its argument into a preallocated slot and
// allocates nothing — TraceRing.Add runs on every request.
type ring[T any] struct {
	mu    sync.Mutex
	slots []T
	start int
	count int
	// total counts every add ever made, displaced entries included.
	total int64
}

// newRing returns a ring holding up to capacity entries (def when
// capacity <= 0).
func newRing[T any](capacity, def int) *ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	return &ring[T]{slots: make([]T, capacity)}
}

// add appends one entry, displacing the oldest when full.
func (r *ring[T]) add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.count < len(r.slots) {
		r.slots[(r.start+r.count)%len(r.slots)] = v
		r.count++
		return
	}
	r.slots[r.start] = v
	r.start = (r.start + 1) % len(r.slots)
}

// recent returns up to n entries, oldest first (n <= 0 returns all).
func (r *ring[T]) recent(n int) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail(n)
}

// at returns the i-th oldest retained entry; the caller holds mu.
func (r *ring[T]) at(i int) T { return r.slots[(r.start+i)%len(r.slots)] }

// tail copies out the newest n entries, oldest first (n <= 0 or beyond
// what is retained: all of them); the caller holds mu.
func (r *ring[T]) tail(n int) []T {
	if n <= 0 || n > r.count {
		n = r.count
	}
	out := make([]T, 0, n)
	for i := r.count - n; i < r.count; i++ {
		out = append(out, r.at(i))
	}
	return out
}
