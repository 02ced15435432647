// Connection pooling: bounded, breaker-aware reuse of authenticated
// connections. The client library and the federation's peerDo both
// used to pay a dial + handshake per connection (or per call); a Pool
// amortizes that across requests and, because each pooled connection
// is a Mux, concurrent checkouts of the same address share connections
// up to a per-conn in-flight preference before opening new ones.
//
// Lifecycle: Get checks out (dialing if needed), Put checks in, Fail
// checks in reporting a transport error (the conn is evicted). Dead
// connections are dropped on sight; idle ones are reaped once they
// have sat unused past IdleAfter.
//
// Sharing suits calls whose frames are small and whose ends never wait
// on anyone else. A bulk stream relayed to or from a third party is
// neither: it occupies the conn for as long as it lasts, and stalls it
// when that party stalls. GetExclusive leases such a call a conn no
// other checkout sees until it is checked back in.
package wire

import (
	"fmt"
	"sync"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// Gate lets a checkout consult a circuit breaker (or any admission
// rule) before dialing or reusing a connection to an address.
// resilience.Breaker satisfies the Allow contract via a thin adapter
// at the call site; Allow must not consume probe tokens.
type Gate interface {
	Allow() bool
}

// PoolConfig tunes a Pool. Zero values get defaults.
type PoolConfig struct {
	// Dial establishes and authenticates one connection; required.
	Dial func(addr string) (*Mux, error)
	// MaxConns bounds connections per address (default 4). The bound
	// applies to dialing: once reached, checkouts share the
	// least-loaded existing connection instead of blocking.
	MaxConns int
	// MaxInflight is the per-connection in-flight preference (default
	// 32): a checkout opens a new connection (capacity permitting)
	// rather than share one already carrying this many calls.
	MaxInflight int
	// IdleAfter reaps connections unused this long (default 60s).
	IdleAfter time.Duration
	// Gate, when set, is consulted per checkout; a closed gate fails
	// the checkout with types.ErrOffline (breaker-aware checkout).
	Gate func(addr string) Gate
	// Metrics, when set, exports pool.conns / pool.dialed /
	// pool.evicted / pool.reaped under Prefix.
	Metrics *obs.Registry
	// Prefix namespaces the metrics (default "pool").
	Prefix string
	// Now overrides the clock (tests drive idle reaping).
	Now func() time.Time
}

type poolEntry struct {
	m      *Mux
	leases int
	// exclusive hides the conn from every other checkout while its one
	// lease lasts.
	exclusive bool
	// dying marks a conn evicted while shared: it is hidden from
	// checkout at once but closed only when the last lease drains, so
	// one caller's transport error does not yank the socket out from
	// under co-tenants with calls still in flight.
	dying bool
}

// Pool is a bounded, shared connection pool keyed by address.
type Pool struct {
	cfg PoolConfig

	mu      sync.Mutex
	conns   map[string][]*poolEntry
	dialing map[string]int
	closed  bool

	gConns   *obs.Gauge
	gWaiting *obs.Gauge
	checkout *obs.Op
	dialed   *obs.Counter
	evicted  *obs.Counter
	reaped   *obs.Counter
}

// NewPool builds a pool; cfg.Dial is required.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 32
	}
	if cfg.IdleAfter <= 0 {
		cfg.IdleAfter = time.Minute
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "pool"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Pool{
		cfg:     cfg,
		conns:   make(map[string][]*poolEntry),
		dialing: make(map[string]int),
	}
	if cfg.Metrics != nil {
		p.gConns = cfg.Metrics.Gauge(cfg.Prefix + ".conns")
		p.gWaiting = cfg.Metrics.Gauge(cfg.Prefix + ".waiting")
		p.checkout = cfg.Metrics.Op(cfg.Prefix + ".checkout_wait_us")
		p.dialed = cfg.Metrics.Counter(cfg.Prefix + ".dialed")
		p.evicted = cfg.Metrics.Counter(cfg.Prefix + ".evicted")
		p.reaped = cfg.Metrics.Counter(cfg.Prefix + ".reaped")
	} else {
		// Unexported counters so Stats works without a registry.
		p.dialed = &obs.Counter{}
		p.evicted = &obs.Counter{}
		p.reaped = &obs.Counter{}
	}
	return p
}

// publishLocked refreshes the conns gauge (total across addresses).
func (p *Pool) publishLocked() {
	if p.gConns == nil {
		return
	}
	n := 0
	for _, list := range p.conns {
		n += len(list)
	}
	p.gConns.Set(int64(n))
}

// sweepLocked drops dead connections and reaps idle ones for addr.
func (p *Pool) sweepLocked(addr string) {
	now := p.cfg.Now()
	list := p.conns[addr]
	kept := list[:0]
	for _, e := range list {
		if e.m.Dead() && !e.dying {
			e.dying = true
			p.evicted.Inc()
		}
		switch {
		case e.dying && e.leases == 0:
			e.m.Close()
		case e.dying:
			kept = append(kept, e) // drains when the last lease releases
		case e.leases == 0 && e.m.InFlight() == 0 && now.Sub(e.m.LastUsed()) >= p.cfg.IdleAfter:
			p.reaped.Inc()
			e.m.Close()
		default:
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		delete(p.conns, addr)
	} else {
		p.conns[addr] = kept
	}
}

// Get checks out a connection to addr, dialing when the pool has
// spare capacity and every existing connection is loaded past the
// in-flight preference. Always pair with Put or Fail.
//
// Every checkout — including one a closed gate rejects immediately —
// records into <prefix>.checkout_wait_us, so pool starvation (long
// waits) is distinguishable from breaker rejection (fast errors) in
// the same histogram; <prefix>.waiting gauges checkouts in progress.
func (p *Pool) Get(addr string) (*Mux, error) {
	return p.checkOut(addr, false)
}

// GetExclusive checks out a connection to addr that no other checkout
// shares until it is checked back in: an idle pooled one when there is
// one, else a freshly dialed one. MaxConns does not hold it back — the
// bound exists to make calls share, which is what this call must not do
// — so streams in flight add to the pool's connections; once checked in
// each is an ordinary pooled connection, shared while busy and reaped
// when idle. Pair with Put or Fail like Get.
func (p *Pool) GetExclusive(addr string) (*Mux, error) {
	return p.checkOut(addr, true)
}

func (p *Pool) checkOut(addr string, exclusive bool) (*Mux, error) {
	start := time.Now()
	p.mu.Lock()
	waiting, checkout := p.gWaiting, p.checkout
	p.mu.Unlock()
	waiting.Add(1)
	m, err := p.get(addr, exclusive)
	waiting.Add(-1)
	checkout.Observe(time.Since(start), err)
	return m, err
}

// SetMetrics attaches a registry after construction (the client library
// builds its pool before the caller can hand one over). Lifetime
// dial/evict/reap counts recorded so far carry into the registry-backed
// counters; attach once, before sustained traffic.
func (p *Pool) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pre := p.cfg.Prefix
	dialed, evicted, reaped := p.dialed.Value(), p.evicted.Value(), p.reaped.Value()
	p.gConns = reg.Gauge(pre + ".conns")
	p.gWaiting = reg.Gauge(pre + ".waiting")
	p.checkout = reg.Op(pre + ".checkout_wait_us")
	p.dialed = reg.Counter(pre + ".dialed")
	p.evicted = reg.Counter(pre + ".evicted")
	p.reaped = reg.Counter(pre + ".reaped")
	p.dialed.Add(dialed)
	p.evicted.Add(evicted)
	p.reaped.Add(reaped)
	p.publishLocked()
}

func (p *Pool) get(addr string, exclusive bool) (*Mux, error) {
	if gate := p.gate(addr); gate != nil && !gate.Allow() {
		return nil, types.E("dial", addr, fmt.Errorf("connection gate open (breaker): %w", types.ErrOffline))
	}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, types.E("dial", addr, fmt.Errorf("pool closed: %w", types.ErrOffline))
		}
		p.sweepLocked(addr)
		var best *poolEntry
		live := 0
		for _, e := range p.conns[addr] {
			if e.dying || e.exclusive {
				continue
			}
			live++
			if exclusive && (e.leases > 0 || e.m.InFlight() > 0) {
				continue
			}
			if best == nil || e.m.InFlight() < best.m.InFlight() {
				best = e
			}
		}
		total := live + p.dialing[addr]
		canDial := exclusive || total < p.cfg.MaxConns
		if exclusive && best != nil {
			// An idle conn: it is this caller's alone until checked in.
			best.exclusive = true
		}
		if best != nil && (!canDial || best.m.InFlight() < int64(p.cfg.MaxInflight)) {
			best.leases++
			p.publishLocked()
			p.mu.Unlock()
			return best.m, nil
		}
		if !canDial {
			// Every conn is loaded and we are at capacity with dials in
			// flight; share whatever lands first.
			if best != nil {
				best.leases++
				p.mu.Unlock()
				return best.m, nil
			}
			// All capacity is mid-dial: wait for one to land.
			p.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		// A conn dialed for an exclusive lease is outside the shared
		// capacity, so it does not hold back a shared dial either.
		if !exclusive {
			p.dialing[addr]++
		}
		p.mu.Unlock()

		m, err := p.cfg.Dial(addr)

		p.mu.Lock()
		if !exclusive {
			p.dialing[addr]--
		}
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if p.closed {
			p.mu.Unlock()
			m.Close()
			return nil, types.E("dial", addr, fmt.Errorf("pool closed: %w", types.ErrOffline))
		}
		p.dialed.Inc()
		p.conns[addr] = append(p.conns[addr], &poolEntry{m: m, leases: 1, exclusive: exclusive})
		p.publishLocked()
		p.mu.Unlock()
		return m, nil
	}
}

func (p *Pool) gate(addr string) Gate {
	if p.cfg.Gate == nil {
		return nil
	}
	return p.cfg.Gate(addr)
}

// Put checks a connection back in. Dead connections are evicted.
func (p *Pool) Put(m *Mux) {
	p.release(m, false)
}

// Fail checks a connection back in after a transport error: it is
// evicted and closed so no later checkout reuses a broken conn.
func (p *Pool) Fail(m *Mux) {
	p.release(m, true)
}

func (p *Pool) release(m *Mux, evict bool) {
	if m == nil {
		return
	}
	p.mu.Lock()
	for addr, list := range p.conns {
		for i, e := range list {
			if e.m != m {
				continue
			}
			if e.leases > 0 {
				e.leases--
			}
			e.exclusive = false
			if (evict || m.Dead()) && !e.dying {
				e.dying = true
				p.evicted.Inc()
			}
			if e.dying && e.leases == 0 {
				p.conns[addr] = append(list[:i], list[i+1:]...)
				if len(p.conns[addr]) == 0 {
					delete(p.conns, addr)
				}
				p.publishLocked()
				p.mu.Unlock()
				m.Close()
				return
			}
			p.publishLocked()
			p.mu.Unlock()
			return
		}
	}
	p.mu.Unlock()
	// Not pooled (already evicted): just make sure it is closed.
	if evict {
		m.Close()
	}
}

// Stats reports pool occupancy and lifetime counters.
type PoolStats struct {
	Conns   int
	Idle    int
	Dialed  int64
	Evicted int64
	Reaped  int64
}

// Stats snapshots the pool (tests and status pages).
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Dialed:  p.dialed.Value(),
		Evicted: p.evicted.Value(),
		Reaped:  p.reaped.Value(),
	}
	for _, list := range p.conns {
		for _, e := range list {
			st.Conns++
			if e.leases == 0 && e.m.InFlight() == 0 {
				st.Idle++
			}
		}
	}
	return st
}

// Reap sweeps every address now (tests drive the clock; production
// sweeps piggyback on Get).
func (p *Pool) Reap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr := range p.conns {
		p.sweepLocked(addr)
	}
	p.publishLocked()
}

// Flush closes every pooled connection but keeps the pool usable —
// the next checkout dials fresh (used when the transport is swapped).
func (p *Pool) Flush() {
	p.mu.Lock()
	var all []*Mux
	for _, list := range p.conns {
		for _, e := range list {
			all = append(all, e.m)
		}
	}
	p.conns = make(map[string][]*poolEntry)
	p.publishLocked()
	p.mu.Unlock()
	for _, m := range all {
		m.Close()
	}
}

// Close closes every pooled connection and fails future checkouts.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var all []*Mux
	for _, list := range p.conns {
		for _, e := range list {
			all = append(all, e.m)
		}
	}
	p.conns = make(map[string][]*poolEntry)
	p.publishLocked()
	p.mu.Unlock()
	for _, m := range all {
		m.Close()
	}
}
