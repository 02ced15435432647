// Circuit breakers: per-target failure accounting that turns a dying
// peer or resource from something the grid hammers into something it
// routes around. One Breaker guards one target ("peer.srb2",
// "resource.disk1"); a Set owns the collection, the shared config and
// the telemetry export.
package resilience

import (
	"sync"
	"time"

	"gosrb/internal/obs"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed passes traffic and counts consecutive failures.
	Closed State = iota
	// HalfOpen lets probes through after the cooldown: one success
	// closes the breaker, one failure re-opens it for a full cooldown.
	HalfOpen
	// Open fails fast: the target dropped Threshold requests in a row
	// and the cooldown has not yet elapsed.
	Open
)

// String names the state for logs and tests.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes every breaker in a Set.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	Threshold int
	// Cooldown is how long an open breaker blocks before allowing a
	// half-open probe.
	Cooldown time.Duration
}

// DefaultBreakerConfig trips after 3 consecutive failures and probes
// again after 2 seconds.
var DefaultBreakerConfig = BreakerConfig{Threshold: 3, Cooldown: 2 * time.Second}

// Set is a keyed collection of breakers sharing one config and one
// telemetry registry. All methods tolerate a nil receiver (breakers
// disabled: everything passes).
type Set struct {
	mu  sync.Mutex
	m   map[string]*Breaker
	cfg BreakerConfig
	reg *obs.Registry
	now func() time.Time
	// trips counts open transitions across all breakers in the set.
	trips *obs.Counter
}

// NewSet returns a breaker collection exporting state gauges and trip
// counters into reg (nil disables export).
func NewSet(cfg BreakerConfig, reg *obs.Registry) *Set {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultBreakerConfig.Threshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerConfig.Cooldown
	}
	return &Set{
		m:     make(map[string]*Breaker),
		cfg:   cfg,
		reg:   reg,
		now:   time.Now,
		trips: reg.Counter("breaker.trips"),
	}
}

// SetConfig swaps the config for every breaker in the set, existing and
// future.
func (s *Set) SetConfig(cfg BreakerConfig) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.Threshold > 0 {
		s.cfg.Threshold = cfg.Threshold
	}
	if cfg.Cooldown > 0 {
		s.cfg.Cooldown = cfg.Cooldown
	}
}

// SetClock overrides the time source (tests drive cooldowns without
// sleeping).
func (s *Set) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// config snapshots the shared tuning under the set lock.
func (s *Set) config() (BreakerConfig, func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg, s.now
}

// For returns (creating if absent) the breaker guarding name of kind.
// Its key is namespaced like a metric name, kind + "." + name:
// "peer.srb2", "resource.disk1". The key is built on the stack, so a
// lookup allocates nothing; only a new breaker's key is allocated.
func (s *Set) For(kind, name string) *Breaker {
	if s == nil {
		return nil
	}
	var buf [64]byte
	k := append(append(append(buf[:0], kind...), '.'), name...)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[string(k)]
	if !ok {
		key := string(k)
		b = &Breaker{
			set:   s,
			key:   key,
			state: s.reg.Gauge("breaker." + key + ".state"),
			trips: s.reg.Counter("breaker." + key + ".trips"),
		}
		s.m[key] = b
	}
	return b
}

// Publish refreshes every breaker's state gauge — called per snapshot
// (admin /metrics, OpStats) so the time-derived half-open transition is
// visible without an intervening request.
func (s *Set) Publish() {
	if s == nil {
		return
	}
	for _, b := range s.all() {
		b.state.Set(int64(b.State()))
	}
}

// all snapshots the set's breakers under the set lock.
func (s *Set) all() []*Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	breakers := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	return breakers
}

// States snapshots every breaker's current state (tests, status pages).
func (s *Set) States() map[string]State {
	if s == nil {
		return nil
	}
	breakers := s.all()
	out := make(map[string]State, len(breakers))
	for _, b := range breakers {
		out[b.key] = b.State()
	}
	return out
}

// Breaker guards one target. All methods tolerate a nil receiver
// (breaker disabled: Allow always true, outcomes ignored).
type Breaker struct {
	set *Set
	key string

	mu       sync.Mutex
	fails    int
	open     bool
	openedAt time.Time

	state *obs.Gauge
	trips *obs.Counter
}

// State returns the breaker's current position. Half-open is derived:
// an open breaker whose cooldown has elapsed reports HalfOpen, and the
// next outcome decides whether it closes or re-opens.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() State {
	if !b.open {
		return Closed
	}
	cfg, now := b.set.config()
	if now().Sub(b.openedAt) >= cfg.Cooldown {
		return HalfOpen
	}
	return Open
}

// Allow reports whether a request may proceed: true when closed or
// half-open (the probe), false while open and cooling down.
func (b *Breaker) Allow() bool {
	return b.State() != Open
}

// Failure records one failed request and reports whether this failure
// tripped the breaker open (callers annotate trace spans on that
// edge). Threshold consecutive failures trip the breaker; a failed
// half-open probe re-opens it for a full cooldown.
func (b *Breaker) Failure() bool {
	if b == nil {
		return false
	}
	cfg, now := b.set.config()
	b.mu.Lock()
	if b.open {
		// Probe failed (or a straggler raced the trip): restart cooldown.
		b.openedAt = now()
		b.mu.Unlock()
		b.state.Set(int64(Open))
		return false
	}
	b.fails++
	tripped := b.fails >= cfg.Threshold
	if tripped {
		b.open = true
		b.openedAt = now()
	}
	st := b.stateLocked()
	b.mu.Unlock()
	b.state.Set(int64(st))
	if tripped {
		b.trips.Inc()
		b.set.trips.Inc()
	}
	return tripped
}

// Success records one successful request, closing the breaker and
// resetting the failure run.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.mu.Unlock()
	b.state.Set(int64(Closed))
}
