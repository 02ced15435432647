// Package lend is the lending rule for pooled per-request objects — a
// storage read handle, a client call's receive buffer, a multiget's
// scratch — and the Pool that lends them. Such an object is lent by its
// pool, handed back once by its last use (a read handle's Close, an
// xfer's free), and never touched again by the holder that handed it
// back: the pool may already have lent it to someone else.
//
// Under the framecanary build tag nothing handed back is lent again
// (Recycle reports false, and a Pool keeps nothing) and a use after the
// hand-back panics (Stale), so a holder that broke the rule fails its
// test at once instead of reading or writing the object's next borrower.
// make race runs the suite so. Without the tag, Stale returns the error
// the object reports to a late caller.
package lend

import "sync"

// Recycle reports whether an object handed back may go to its pool:
// always, except under framecanary.
func Recycle() bool { return !Canary }

// Stale answers a use of an object after it was handed back: err, which
// the object returns to its late caller, or under framecanary a panic
// naming what was used.
func Stale(what string, err error) error {
	if Canary {
		panic(what + " used after it was handed back")
	}
	return err
}

// Pool is a bounded free list of *T. Get lends the object handed back
// last, or makes one when none is idle; Put keeps what it is handed up to
// the bound and drops the rest to the GC. A GC does not empty a Pool, as
// it empties a sync.Pool, so a pool makes objects only while more are
// in flight at once than it has ever held, and never holds more idle
// than the bound: the bound times an object's size is the pool's idle
// ceiling. Put applies Recycle, so under framecanary a Pool keeps
// nothing and every Get makes a new object.
type Pool[T any] struct {
	mk   func() *T
	mu   sync.Mutex
	free []*T // idle, the last handed back on top; cap is the bound
}

// NewPool returns an empty Pool that keeps at most n idle objects and
// makes each with mk.
func NewPool[T any](n int, mk func() *T) *Pool[T] {
	return &Pool[T]{mk: mk, free: make([]*T, 0, n)}
}

// Get lends an idle object, or a new one from mk.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	if n := len(p.free) - 1; n >= 0 {
		x := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	return p.mk()
}

// Put hands x back. It is kept for the next Get unless the pool already
// holds its bound, or Recycle forbids it; then it goes to the GC. The
// caller resets x first (or Get's caller does), and never touches it
// again.
func (p *Pool[T]) Put(x *T) {
	if !Recycle() {
		return
	}
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, x)
	}
	p.mu.Unlock()
}
