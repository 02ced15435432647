package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"
)

// Rollup retention defaults: one capture every 10s, 2160 slots ≈ 6h of
// history. Both are daemon-tunable (srbd -rollup-interval).
const (
	DefaultRollupInterval = 10 * time.Second
	DefaultRollupSlots    = 2160
)

// OpRollup is the cumulative state of one op family at capture time:
// lifetime count/errors/latency-sum plus the raw histogram buckets.
// Storing cumulative values (not deltas) keeps capture cheap — a window
// query subtracts two rollups, and bucket-count deltas feed the same
// quantile interpolation the lifetime snapshot uses.
type OpRollup struct {
	Count       int64
	Errors      int64
	TotalMicros int64
	Buckets     [histBuckets]int64
}

// Rollup is one periodic capture of a registry: every counter, gauge
// and op family, stamped with the capture time.
type Rollup struct {
	At       time.Time
	Counters map[string]int64
	Gauges   map[string]int64
	Ops      map[string]OpRollup
}

// RollupRing is a bounded ring of periodic rollups — the time-series
// store behind windowed rates, `srb top` and the SLO evaluator. Safe
// for concurrent use; capture and query both cost one short lock.
type RollupRing ring[Rollup]

func (rr *RollupRing) r() *ring[Rollup] { return (*ring[Rollup])(rr) }

// NewRollupRing returns a ring holding up to capacity rollups
// (DefaultRollupSlots when capacity <= 0).
func NewRollupRing(capacity int) *RollupRing {
	return (*RollupRing)(newRing[Rollup](capacity, DefaultRollupSlots))
}

// Add appends one rollup, displacing the oldest when full.
func (rr *RollupRing) Add(r Rollup) { rr.r().add(r) }

// Len reports how many rollups are retained.
func (rr *RollupRing) Len() int {
	if rr == nil {
		return 0
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.count
}

// Baseline returns the newest retained rollup captured at or before
// cutoff — the subtrahend for a window query. When every retained
// rollup is newer than cutoff (the requested window predates retention,
// or the server just started) the oldest rollup stands in, so the
// window degrades gracefully to "since the oldest data we have".
// ok is false only when the ring is empty.
func (rr *RollupRing) Baseline(cutoff time.Time) (Rollup, bool) {
	if rr == nil {
		return Rollup{}, false
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.count == 0 {
		return Rollup{}, false
	}
	// Newest-first scan: the first slot at or before cutoff wins.
	for i := rr.count - 1; i >= 0; i-- {
		if r := rr.r().at(i); !r.At.After(cutoff) {
			return r, true
		}
	}
	return rr.r().at(0), true
}

// Recent returns up to n rollups, oldest first (n <= 0 returns all).
func (rr *RollupRing) Recent(n int) []Rollup { return rr.r().recent(n) }

// raw exposes the histogram internals for rollup capture, bypassing
// quantile interpolation (a window recomputes quantiles from bucket
// deltas).
func (h *Histogram) raw() (count, totalMicros int64, buckets [histBuckets]int64) {
	if h == nil {
		return 0, 0, buckets
	}
	count = h.count.Load()
	totalMicros = h.sumNano.Load() / 1000
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return count, totalMicros, buckets
}

// Rollups returns the registry's time-series ring.
func (r *Registry) Rollups() *RollupRing {
	if r == nil {
		return nil
	}
	return r.rollups
}

// CaptureRollup snapshots every counter, gauge and op family into the
// time-series ring, stamped now. Daemons call this on a periodic job;
// tests call it directly with explicit times for determinism.
func (r *Registry) CaptureRollup(now time.Time) {
	if r == nil || r.rollups == nil {
		return
	}
	r.mu.RLock()
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
	ru := Rollup{
		At:       now,
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
		Ops:      make(map[string]OpRollup, len(ops)),
	}
	for k, v := range counters {
		ru.Counters[k] = v.Value()
	}
	// Heat counts fold in as heat.key.* / heat.object.* counters so
	// baselines carry them and windows report heat rates.
	r.foldHeat(ru.Counters)
	for k, v := range gauges {
		ru.Gauges[k] = v.Value()
	}
	for k, v := range ops {
		_, total, buckets := v.lat.raw()
		ru.Ops[k] = OpRollup{
			Count:       v.count.Value(),
			Errors:      v.errs.Value(),
			TotalMicros: total,
			Buckets:     buckets,
		}
	}
	r.rollups.Add(ru)
}

// RateStat is one counter over a window: the delta and its per-second
// rate.
type RateStat struct {
	Delta  int64
	PerSec float64
}

// WindowOp is one op family over a window: activity delta, rate, error
// percentage and quantiles interpolated from the window's bucket
// deltas (not lifetime history). Buckets carries the non-empty deltas
// so a grid merge can recompute true cross-server quantiles.
type WindowOp struct {
	Count       int64
	Errors      int64
	PerSec      float64
	ErrorPct    float64
	TotalMicros int64
	P50Micros   float64
	P95Micros   float64
	P99Micros   float64
	Buckets     []BucketCount `json:",omitempty"`
}

// WindowStats is a registry view over a trailing window: rates and
// windowed quantiles instead of lifetime totals. CoveredSeconds is how
// much history actually backed the answer — less than WindowSeconds
// when the server is younger than the window or retention ran out.
type WindowStats struct {
	WindowSeconds  float64
	CoveredSeconds float64
	Counters       map[string]RateStat `json:",omitempty"`
	Gauges         map[string]int64    `json:",omitempty"`
	Ops            map[string]WindowOp `json:",omitempty"`
}

// Window reports rates and windowed quantiles over the trailing window.
func (r *Registry) Window(window time.Duration) WindowStats {
	return r.WindowAt(time.Now(), window)
}

// WindowAt is Window with an explicit "now", for deterministic tests.
// The baseline is the newest rollup at or before now-window (falling
// back to the oldest retained, or to the registry start when the ring
// is empty); current values are read live so the window always ends at
// now, not at the last capture.
func (r *Registry) WindowAt(now time.Time, window time.Duration) WindowStats {
	if r == nil {
		return WindowStats{}
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	base, ok := r.Rollups().Baseline(now.Add(-window))
	if !ok {
		// No history at all: diff against zero since registry start.
		base = Rollup{At: r.start}
	}
	covered := now.Sub(base.At).Seconds()
	if covered < 0 {
		covered = 0
	}
	ws := WindowStats{
		WindowSeconds:  window.Seconds(),
		CoveredSeconds: covered,
		Counters:       make(map[string]RateStat),
		Gauges:         make(map[string]int64),
		Ops:            make(map[string]WindowOp),
	}
	r.mu.RLock()
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
	live := make(map[string]int64, len(counters))
	for k, v := range counters {
		live[k] = v.Value()
	}
	// Heat counts join the live counter set; the baseline rollup carries
	// their capture-time values, so the usual delta below yields the
	// per-window heat.
	r.foldHeat(live)
	for k, cur := range live {
		delta := cur - base.Counters[k]
		if delta < 0 {
			delta = 0
		}
		if delta == 0 {
			continue
		}
		ws.Counters[k] = RateStat{Delta: delta, PerSec: perSec(delta, covered)}
	}
	for k, v := range gauges {
		ws.Gauges[k] = v.Value()
	}
	for k, v := range ops {
		_, total, buckets := v.lat.raw()
		b := base.Ops[k]
		wo := WindowOp{
			Count:       clamp0(v.count.Value() - b.Count),
			Errors:      clamp0(v.errs.Value() - b.Errors),
			TotalMicros: clamp0(total - b.TotalMicros),
		}
		if wo.Count == 0 {
			continue // no activity in the window
		}
		wo.PerSec = perSec(wo.Count, covered)
		wo.ErrorPct = 100 * float64(wo.Errors) / float64(wo.Count)
		var deltas [histBuckets]int64
		var dtotal int64
		for i := range deltas {
			deltas[i] = clamp0(buckets[i] - b.Buckets[i])
			dtotal += deltas[i]
		}
		if dtotal > 0 {
			wo.P50Micros = quantile(deltas[:], dtotal, 0.50)
			wo.P95Micros = quantile(deltas[:], dtotal, 0.95)
			wo.P99Micros = quantile(deltas[:], dtotal, 0.99)
			for i, n := range deltas {
				if n > 0 {
					wo.Buckets = append(wo.Buckets, BucketCount{UpperMicros: BucketUpperMicros(i), Count: n})
				}
			}
		}
		ws.Ops[k] = wo
	}
	return ws
}

func perSec(delta int64, covered float64) float64 {
	if covered <= 0 {
		return 0
	}
	return float64(delta) / covered
}

func clamp0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// MergeWindows combines per-server window stats into one grid view:
// counts, deltas and rates sum; gauges sum (they are zone-wide totals
// like open breakers or repair backlog); quantiles are recomputed from
// the merged bucket deltas, so the grid p99 is a true cross-server
// quantile, not an average of per-server percentiles. Coverage is the
// widest any member achieved.
func MergeWindows(wins []WindowStats) WindowStats {
	out := WindowStats{
		Counters: make(map[string]RateStat),
		Gauges:   make(map[string]int64),
		Ops:      make(map[string]WindowOp),
	}
	merged := make(map[string][histBuckets]int64)
	for _, w := range wins {
		if w.WindowSeconds > out.WindowSeconds {
			out.WindowSeconds = w.WindowSeconds
		}
		if w.CoveredSeconds > out.CoveredSeconds {
			out.CoveredSeconds = w.CoveredSeconds
		}
		for k, v := range w.Counters {
			c := out.Counters[k]
			c.Delta += v.Delta
			c.PerSec += v.PerSec
			out.Counters[k] = c
		}
		for k, v := range w.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range w.Ops {
			o := out.Ops[k]
			o.Count += v.Count
			o.Errors += v.Errors
			o.PerSec += v.PerSec
			o.TotalMicros += v.TotalMicros
			out.Ops[k] = o
			m := merged[k]
			for _, b := range v.Buckets {
				i := bits.Len64(uint64(b.UpperMicros)) - 1
				if i < 0 {
					i = 0
				}
				if i >= histBuckets {
					i = histBuckets - 1
				}
				m[i] += b.Count
			}
			merged[k] = m
		}
	}
	for k, o := range out.Ops {
		if o.Count > 0 {
			o.ErrorPct = 100 * float64(o.Errors) / float64(o.Count)
		}
		m := merged[k]
		var total int64
		for _, n := range m {
			total += n
		}
		if total > 0 {
			o.P50Micros = quantile(m[:], total, 0.50)
			o.P95Micros = quantile(m[:], total, 0.95)
			o.P99Micros = quantile(m[:], total, 0.99)
			for i, n := range m {
				if n > 0 {
					o.Buckets = append(o.Buckets, BucketCount{UpperMicros: BucketUpperMicros(i), Count: n})
				}
			}
		}
		out.Ops[k] = o
	}
	return out
}

// WriteWindowText dumps window stats as sorted "name value" lines —
// the format /metrics?window= serves alongside the lifetime dump.
func WriteWindowText(w io.Writer, ws WindowStats) error {
	lines := make([]string, 0, len(ws.Counters)+len(ws.Gauges)+7*len(ws.Ops)+2)
	lines = append(lines,
		fmt.Sprintf("window_seconds %.0f", ws.WindowSeconds),
		fmt.Sprintf("window_covered_seconds %.1f", ws.CoveredSeconds),
	)
	for k, v := range ws.Counters {
		lines = append(lines, fmt.Sprintf("%s.delta %d", k, v.Delta), fmt.Sprintf("%s.per_sec %.2f", k, v.PerSec))
	}
	for k, v := range ws.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, o := range ws.Ops {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", k, o.Count),
			fmt.Sprintf("%s.errors %d", k, o.Errors),
			fmt.Sprintf("%s.per_sec %.2f", k, o.PerSec),
			fmt.Sprintf("%s.error_pct %.2f", k, o.ErrorPct),
			fmt.Sprintf("%s.p50_us %.1f", k, o.P50Micros),
			fmt.Sprintf("%s.p95_us %.1f", k, o.P95Micros),
			fmt.Sprintf("%s.p99_us %.1f", k, o.P99Micros),
		)
	}
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}
