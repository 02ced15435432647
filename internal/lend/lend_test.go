package lend

import (
	"runtime"
	"testing"
)

// TestPoolKeepsAcrossGC: an idle object is lent again after a GC, which
// would have emptied a sync.Pool; under framecanary nothing handed back
// is lent again. The test runs under -race too (make race), where a
// sync.Pool drops a share of its Puts and a Pool drops none.
func TestPoolKeepsAcrossGC(t *testing.T) {
	made := 0
	p := NewPool(4, func() *int { made++; return new(int) })
	x := p.Get()
	for i := 0; i < 100; i++ {
		p.Put(x)
		runtime.GC()
		y := p.Get()
		if Canary {
			if y == x {
				t.Fatalf("round %d: lent again what was handed back under framecanary", i)
			}
		} else if y != x {
			t.Fatalf("round %d: the idle object did not survive a GC (%d made)", i, made)
		}
		x = y
	}
	if want := 1; !Canary && made != want {
		t.Errorf("made %d objects, want %d", made, want)
	}
}

// TestPoolBound: Puts past the bound are dropped, and the pool lends the
// last object handed back first.
func TestPoolBound(t *testing.T) {
	if Canary {
		t.Skip("under framecanary a Pool keeps nothing (TestPoolKeepsAcrossGC)")
	}
	p := NewPool(2, func() *int { return new(int) })
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	p.Put(c) // past the bound: dropped
	if got := p.Get(); got != b {
		t.Errorf("first Get = %p, want the last kept (%p)", got, b)
	}
	if got := p.Get(); got != a {
		t.Errorf("second Get = %p, want %p", got, a)
	}
	if got := p.Get(); got == a || got == b || got == c {
		t.Errorf("third Get lent %p, which the pool should not hold", got)
	}
}

// TestPoolConcurrent lends and hands back from several goroutines at
// once: run under -race, no object is lent to two holders at a time.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(8, func() *int { return new(int) })
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				x := p.Get()
				if *x != 0 {
					t.Errorf("lent an object another holder still has (%d)", *x)
					return
				}
				*x = i + 1
				*x = 0
				p.Put(x)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
