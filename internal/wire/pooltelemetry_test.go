package wire

import (
	"testing"

	"gosrb/internal/obs"
)

// TestPoolCheckoutWaitRecordsFastFail pins the checkout telemetry: every
// checkout lands in <prefix>.checkout_wait_us, and the waiting gauge
// drains to zero once checkouts return. A breaker's fast-fail never
// reaches the pool — peerCall asks the breaker first and counts it in
// federation.fastfail — so it is not in this histogram.
func TestPoolCheckoutWaitRecordsFastFail(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetExemplarThreshold(0)
	dial, _ := pipeDialer(nil)
	p := NewPool(PoolConfig{
		Dial:    dial,
		Metrics: reg,
		Prefix:  "wire.pool",
	})
	defer p.Close()

	m, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m)
	co := reg.Op("wire.pool.checkout_wait_us").Snapshot()
	if co.Count != 1 || co.Errors != 0 {
		t.Fatalf("successful checkout not recorded: count=%d errors=%d, want 1/0", co.Count, co.Errors)
	}
	if w := reg.Gauge("wire.pool.waiting").Value(); w != 0 {
		t.Fatalf("waiting gauge %d after checkouts drained, want 0", w)
	}
}

// TestPoolSetMetrics attaches a registry after construction (the client
// library's order of operations) and checks lifetime counters carry
// over and new checkouts record into the attached registry.
func TestPoolSetMetrics(t *testing.T) {
	dial, dials := pipeDialer(nil)
	p := NewPool(PoolConfig{Dial: dial, Prefix: "wire.pool"})
	defer p.Close()

	m, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // evict so the pre-attach eviction count carries too
	p.Put(m)
	if dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dials.Load())
	}

	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	snap := reg.Snapshot()
	if got := snap.Counters["wire.pool.dialed"]; got != 1 {
		t.Fatalf("carried dialed = %d, want 1", got)
	}
	if got := snap.Counters["wire.pool.evicted"]; got != 1 {
		t.Fatalf("carried evicted = %d, want 1", got)
	}

	m, err = p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m)
	if co := reg.Op("wire.pool.checkout_wait_us").Snapshot(); co.Count != 1 {
		t.Fatalf("post-attach checkout count = %d, want 1", co.Count)
	}
	if got := reg.Gauge("wire.pool.conns").Value(); got != 1 {
		t.Fatalf("conns gauge = %d, want 1", got)
	}
}
