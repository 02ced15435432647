package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func rollupAt(at time.Time, op string, count int64) Rollup {
	r := Rollup{At: at, Counters: map[string]int64{}, Gauges: map[string]int64{}, Ops: map[string]OpRollup{}}
	if op != "" {
		r.Ops[op] = OpRollup{Count: count}
	}
	return r
}

func TestRollupRingWraparound(t *testing.T) {
	rr := NewRollupRing(4)
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		rr.Add(rollupAt(base.Add(time.Duration(i)*time.Minute), "get", int64(i)))
	}
	if got := rr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	recent := rr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) len = %d, want 4", len(recent))
	}
	// Oldest two (i=0,1) were displaced; survivors are i=2..5 oldest
	// first.
	for i, r := range recent {
		want := base.Add(time.Duration(i+2) * time.Minute)
		if !r.At.Equal(want) {
			t.Errorf("recent[%d].At = %v, want %v", i, r.At, want)
		}
	}
	if got := rr.Recent(2); len(got) != 2 || !got[1].At.Equal(base.Add(5*time.Minute)) {
		t.Errorf("Recent(2) = %v, want the two newest", got)
	}
}

func TestRollupBaseline(t *testing.T) {
	rr := NewRollupRing(4)
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if _, ok := rr.Baseline(base); ok {
		t.Fatal("empty ring should report ok=false")
	}
	for i := 0; i < 6; i++ { // wraps: retains minutes 2..5
		rr.Add(rollupAt(base.Add(time.Duration(i)*time.Minute), "get", int64(i)))
	}
	// Exact hit: newest rollup at or before the cutoff.
	got, ok := rr.Baseline(base.Add(3*time.Minute + 30*time.Second))
	if !ok || !got.At.Equal(base.Add(3*time.Minute)) {
		t.Errorf("Baseline(3m30s) = %v ok=%v, want the 3m rollup", got.At, ok)
	}
	// Cutoff before retention: the oldest retained rollup stands in —
	// the window degrades to "since the oldest data we have".
	got, ok = rr.Baseline(base.Add(-time.Hour))
	if !ok || !got.At.Equal(base.Add(2*time.Minute)) {
		t.Errorf("Baseline(pre-retention) = %v ok=%v, want the oldest retained (2m)", got.At, ok)
	}
}

func TestWindowRates(t *testing.T) {
	reg := NewRegistry()
	now := time.Now()
	reg.Counter("bytes").Add(10)
	for i := 0; i < 40; i++ {
		reg.Op("server.get").Observe(time.Millisecond, nil)
	}
	// Baseline capture stamped 5 minutes in the past: everything above
	// is outside the window, everything below inside it.
	reg.CaptureRollup(now.Add(-5 * time.Minute))
	reg.Counter("bytes").Add(30)
	for i := 0; i < 99; i++ {
		reg.Op("server.get").Observe(16*time.Millisecond, nil)
	}
	reg.Op("server.get").Observe(16*time.Millisecond, errors.New("boom"))

	ws := reg.WindowAt(now, 5*time.Minute)
	if ws.WindowSeconds != 300 {
		t.Fatalf("WindowSeconds = %v, want 300", ws.WindowSeconds)
	}
	if ws.CoveredSeconds < 299 || ws.CoveredSeconds > 301 {
		t.Fatalf("CoveredSeconds = %v, want ~300", ws.CoveredSeconds)
	}
	c := ws.Counters["bytes"]
	if c.Delta != 30 {
		t.Errorf("bytes delta = %d, want 30 (only in-window growth)", c.Delta)
	}
	if c.PerSec < 0.09 || c.PerSec > 0.11 {
		t.Errorf("bytes per_sec = %v, want ~0.1", c.PerSec)
	}
	o := ws.Ops["server.get"]
	if o.Count != 100 || o.Errors != 1 {
		t.Errorf("op delta = %d/%d errors, want 100/1", o.Count, o.Errors)
	}
	if o.ErrorPct < 0.9 || o.ErrorPct > 1.1 {
		t.Errorf("error pct = %v, want ~1", o.ErrorPct)
	}
	// All in-window observations were 16ms; the windowed p50 must land
	// in that bucket neighbourhood even though 40 older 1ms calls exist.
	if o.P50Micros < 8192 || o.P50Micros > 16384 {
		t.Errorf("windowed p50 = %v µs, want within the 16ms bucket", o.P50Micros)
	}
	if len(o.Buckets) == 0 {
		t.Error("windowed op should carry bucket deltas for grid merging")
	}
}

func TestWindowEmptyRingUsesRegistryStart(t *testing.T) {
	reg := NewRegistry()
	reg.Op("server.put").Observe(2*time.Millisecond, nil)
	ws := reg.Window(5 * time.Minute)
	if o := ws.Ops["server.put"]; o.Count != 1 {
		t.Errorf("count = %d, want 1 (no rollups yet → diff since start)", o.Count)
	}
	if ws.CoveredSeconds > 60 {
		t.Errorf("covered = %v, want the registry's short lifetime", ws.CoveredSeconds)
	}
}

func TestCaptureRollupConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Op("server.get").Observe(time.Microsecond, nil)
				reg.Counter("c").Inc()
				reg.Gauge("g").Set(1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		reg.CaptureRollup(time.Now())
		reg.Window(time.Minute)
	}
	close(stop)
	wg.Wait()
	if reg.Rollups().Len() != 50 {
		t.Errorf("ring holds %d rollups, want 50", reg.Rollups().Len())
	}
}

func TestMergeWindows(t *testing.T) {
	// Server A: 90 fast ops (1024µs bucket); server B: 10 slow (1s).
	a := WindowStats{
		WindowSeconds:  300,
		CoveredSeconds: 300,
		Counters:       map[string]RateStat{"bytes": {Delta: 100, PerSec: 1}},
		Gauges:         map[string]int64{"breaker.open": 1},
		Ops: map[string]WindowOp{"server.get": {
			Count: 90, PerSec: 0.3,
			Buckets: []BucketCount{{UpperMicros: 1024, Count: 90}},
		}},
	}
	b := WindowStats{
		WindowSeconds:  300,
		CoveredSeconds: 120,
		Counters:       map[string]RateStat{"bytes": {Delta: 50, PerSec: 0.5}},
		Gauges:         map[string]int64{"breaker.open": 2},
		Ops: map[string]WindowOp{"server.get": {
			Count: 10, Errors: 10, PerSec: 0.1,
			Buckets: []BucketCount{{UpperMicros: 1 << 20, Count: 10}},
		}},
	}
	m := MergeWindows([]WindowStats{a, b})
	if m.CoveredSeconds != 300 {
		t.Errorf("coverage = %v, want the widest member (300)", m.CoveredSeconds)
	}
	if c := m.Counters["bytes"]; c.Delta != 150 || c.PerSec != 1.5 {
		t.Errorf("counters should sum: got %+v", c)
	}
	if m.Gauges["breaker.open"] != 3 {
		t.Errorf("gauges should sum: got %d", m.Gauges["breaker.open"])
	}
	o := m.Ops["server.get"]
	if o.Count != 100 || o.Errors != 10 {
		t.Fatalf("op merge = %d/%d, want 100/10", o.Count, o.Errors)
	}
	if o.ErrorPct != 10 {
		t.Errorf("merged error pct = %v, want 10", o.ErrorPct)
	}
	// A true cross-server quantile: p50 sits in A's fast bucket, p99 in
	// B's slow tail. Averaging per-server p99s could never show this.
	if o.P50Micros > 1024 {
		t.Errorf("grid p50 = %v, want within the fast bucket", o.P50Micros)
	}
	if o.P99Micros < float64(1<<19) {
		t.Errorf("grid p99 = %v, want in the slow tail (>= %d)", o.P99Micros, 1<<19)
	}
}
