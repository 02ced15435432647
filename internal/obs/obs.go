// Package obs is the grid's telemetry layer: dependency-free atomic
// counters, gauges and fixed-bucket latency histograms collected in a
// namespaced Registry, plus request-scoped trace IDs (see trace.go) and
// a leveled logger (see log.go).
//
// The paper's DGA calls for visibility into grid usage ("in some cases,
// it may be necessary to audit usage of the data", §2); obs is the
// measurement substrate under that: every broker operation, storage
// driver and wire dispatch records into one Registry, and srbd exposes
// the same snapshot over its admin endpoint, the OpStats wire op and
// the MySRB status page.
//
// All types are safe for concurrent use, and every method tolerates a
// nil receiver so instrumentation can be switched off (e.g. for
// baseline benchmarks) by simply dropping the handles.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta — the natural shape for occupancy
// gauges (queue depth, waiters) incremented on entry and decremented
// on exit.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket k holds observations in
// [2^(k-1), 2^k) microseconds, so the range spans 1µs to ~2¼ minutes
// with the last bucket collecting everything beyond.
const histBuckets = 28

// Exemplar is one retained "this trace landed in this bucket" sample:
// the most recent observation at or above the registry's exemplar
// threshold. The whole struct is swapped atomically as a unit, so a
// reader can never see a trace ID paired with another observation's
// duration.
type Exemplar struct {
	TraceID string
	Micros  int64
}

// Histogram is a fixed-bucket latency histogram with power-of-two
// microsecond bucket bounds. Observations are lock-free. Buckets may
// carry a tail exemplar (see Exemplar).
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	buckets [histBuckets]atomic.Int64
	ex      [histBuckets]atomic.Pointer[Exemplar]
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	k := bits.Len64(uint64(us))
	if k >= histBuckets {
		k = histBuckets - 1
	}
	return k
}

// BucketUpperMicros returns the inclusive upper bound of bucket k in
// microseconds (the last bucket is unbounded and reports its lower
// bound).
func BucketUpperMicros(k int) int64 { return int64(1) << uint(k) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sumNano.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	UpperMicros int64 // inclusive upper bound; last bucket is open-ended
	Count       int64
}

// BucketExemplar is one bucket's retained tail exemplar in a snapshot.
type BucketExemplar struct {
	UpperMicros int64
	TraceID     string
	Micros      int64
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count       int64
	TotalMicros int64
	P50Micros   float64
	P90Micros   float64
	P99Micros   float64
	Buckets     []BucketCount    `json:",omitempty"`
	Exemplars   []BucketExemplar `json:",omitempty"`
}

// Snapshot captures the histogram with interpolated quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count:       h.count.Load(),
		TotalMicros: h.sumNano.Load() / 1000,
	}
	if total == 0 {
		return s
	}
	s.P50Micros = quantile(counts[:], total, 0.50)
	s.P90Micros = quantile(counts[:], total, 0.90)
	s.P99Micros = quantile(counts[:], total, 0.99)
	for k, n := range counts {
		if n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperMicros: BucketUpperMicros(k), Count: n})
		}
		if e := h.ex[k].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, BucketExemplar{UpperMicros: BucketUpperMicros(k), TraceID: e.TraceID, Micros: e.Micros})
		}
	}
	return s
}

// quantile interpolates the q-quantile (0..1) from bucket counts.
func quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for k, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lower := float64(0)
			if k > 0 {
				lower = float64(int64(1) << uint(k-1))
			}
			upper := float64(int64(1) << uint(k))
			frac := (rank - cum) / float64(n)
			return lower + (upper-lower)*frac
		}
		cum = next
	}
	return float64(int64(1) << uint(len(counts)-1))
}

// Op bundles the three per-operation metrics — count, errors, latency —
// so call sites record one line per exit path. Ops minted by a Registry
// share its exemplar threshold (exMin); zero-value Ops never retain
// exemplars.
type Op struct {
	count Counter
	errs  Counter
	lat   Histogram
	exMin *atomic.Int64
}

// Done records one completed operation that started at start.
func (o *Op) Done(start time.Time, err error) {
	if o == nil {
		return
	}
	o.Observe(time.Since(start), err)
}

// Observe records one completed operation of duration d.
func (o *Op) Observe(d time.Duration, err error) {
	if o == nil {
		return
	}
	o.count.Inc()
	if err != nil {
		o.errs.Inc()
	}
	o.lat.Observe(d)
}

// ObserveTrace records one completed operation of duration d and, when
// the duration clears the registry's exemplar threshold, retains trace
// as the bucket's tail exemplar. An observation below the threshold (or
// with an empty trace) never displaces a retained exemplar, so every
// exemplar served on /metrics is guaranteed to be a genuine tail
// sample.
func (o *Op) ObserveTrace(d time.Duration, err error, trace string) {
	if o == nil {
		return
	}
	o.Observe(d, err)
	if trace == "" || o.exMin == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if us < o.exMin.Load() {
		return
	}
	o.lat.ex[bucketOf(d)].Store(&Exemplar{TraceID: trace, Micros: us})
}

// Count returns how many operations completed.
func (o *Op) Count() int64 { return o.count.Value() }

// Errors returns how many operations failed.
func (o *Op) Errors() int64 { return o.errs.Value() }

// OpSnapshot is a point-in-time view of one operation family.
type OpSnapshot struct {
	Count  int64
	Errors int64
	HistSnapshot
}

// Snapshot captures the operation metrics.
func (o *Op) Snapshot() OpSnapshot {
	if o == nil {
		return OpSnapshot{}
	}
	return OpSnapshot{Count: o.count.Value(), Errors: o.errs.Value(), HistSnapshot: o.lat.Snapshot()}
}

// Registry is a namespaced collection of metrics plus the recent-span
// trace ring. Metric names are dotted paths ("storage.disk1.bytes_in",
// "broker.get"). Get-or-create accessors make registration implicit.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	ops      map[string]*Op
	start    time.Time
	traces   *TraceRing
	usage    *UsageTable
	rollups  *RollupRing
	peers    *PeerHistory
	heatKeys    *HeatTable // hot depth-2 routing prefixes (broker dispatch)
	heatObjects *HeatTable // hot object paths (replica reads)
	exMin    atomic.Int64 // exemplar threshold in microseconds
}

// DefaultExemplarThreshold is the observation floor below which
// histogram buckets do not retain trace-ID exemplars: fast requests
// are rarely the ones an operator needs to chase.
const DefaultExemplarThreshold = time.Millisecond

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		ops:      make(map[string]*Op),
		start:    time.Now(),
		traces:   NewTraceRing(256),
		usage:    NewUsageTable(),
		rollups:  NewRollupRing(DefaultRollupSlots),
		peers:    NewPeerHistory(),
		heatKeys:    NewHeatTable("heat.key.", DefaultHeatK),
		heatObjects: NewHeatTable("heat.object.", DefaultHeatK),
	}
	r.exMin.Store(DefaultExemplarThreshold.Microseconds())
	return r
}

// SetExemplarThreshold sets the minimum observed duration at which
// histogram buckets retain trace-ID exemplars. Zero retains an
// exemplar for every traced observation.
func (r *Registry) SetExemplarThreshold(d time.Duration) {
	if r == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	r.exMin.Store(us)
}

// ExemplarThreshold reports the current exemplar retention floor.
func (r *Registry) ExemplarThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.exMin.Load()) * time.Microsecond
}

// Counter returns (creating if absent) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if absent) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Op returns (creating if absent) the named operation family.
func (r *Registry) Op(name string) *Op {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	o, ok := r.ops[name]
	r.mu.RUnlock()
	if ok {
		return o
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok = r.ops[name]; ok {
		return o
	}
	o = &Op{exMin: &r.exMin}
	r.ops[name] = o
	return o
}

// Traces returns the registry's recent-span ring.
func (r *Registry) Traces() *TraceRing {
	if r == nil {
		return nil
	}
	return r.traces
}

// Usage returns the registry's per-user/collection accounting table.
func (r *Registry) Usage() *UsageTable {
	if r == nil {
		return nil
	}
	return r.usage
}

// Snapshot is a point-in-time view of a whole registry, JSON-ready for
// the OpStats wire reply and the MySRB status page.
type Snapshot struct {
	Version       string `json:",omitempty"`
	UptimeSeconds float64
	Counters      map[string]int64      `json:",omitempty"`
	Gauges        map[string]int64      `json:",omitempty"`
	Ops           map[string]OpSnapshot `json:",omitempty"`
	Traces        []SpanRecord          `json:",omitempty"`
}

// Snapshot captures every metric and the recent traces.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	s := Snapshot{
		Version:       Version,
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Ops:           make(map[string]OpSnapshot, len(r.ops)),
	}
	counters := make(map[string]*Counter, len(r.counters))
	gauges := make(map[string]*Gauge, len(r.gauges))
	ops := make(map[string]*Op, len(r.ops))
	for k, v := range r.counters {
		counters[k] = v
	}
	for k, v := range r.gauges {
		gauges[k] = v
	}
	for k, v := range r.ops {
		ops[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	// Heat rides the counter namespace (heat.key.*, heat.object.*)
	// without registering real counters: sketch eviction would strand
	// dead names in the registry forever, while the fold stays bounded
	// by the tables' top-K capacity.
	r.foldHeat(s.Counters)
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range ops {
		s.Ops[k] = v.Snapshot()
	}
	s.Traces = r.traces.Recent(64)
	return s
}
