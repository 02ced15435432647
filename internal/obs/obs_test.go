package obs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge = %d, want -3", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	var g *Gauge
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram should snapshot empty")
	}
	var o *Op
	o.Done(time.Now(), errors.New("x"))
	if o.Snapshot().Count != 0 {
		t.Error("nil op should snapshot empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Op("y") != nil || r.Gauge("z") != nil {
		t.Error("nil registry should hand out nil metrics")
	}
	r.Counter("x").Inc() // must not panic
	var ring *TraceRing
	ring.Add(SpanRecord{})
	if ring.Recent(0) != nil {
		t.Error("nil ring should return nil")
	}
	var l *Logger
	l.Errorf("boom") // must not panic
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// 0 and sub-µs land in bucket 0 (upper bound 1µs).
	if k := bucketOf(500 * time.Nanosecond); k != 0 {
		t.Errorf("bucketOf(500ns) = %d", k)
	}
	// 3µs lands in [2,4)µs — bucket 2.
	if k := bucketOf(3 * time.Microsecond); k != 2 {
		t.Errorf("bucketOf(3µs) = %d", k)
	}
	// Absurd durations saturate the last bucket.
	if k := bucketOf(24 * time.Hour); k != histBuckets-1 {
		t.Errorf("bucketOf(24h) = %d", k)
	}
	h.Observe(3 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 || len(s.Buckets) != 1 || s.Buckets[0].UpperMicros != 4 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations (~2µs) and 10 slow (~1000µs): p50 must sit
	// in the fast band, p99 in the slow band.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50Micros <= 0 || s.P50Micros > 8 {
		t.Errorf("p50 = %.1fµs, want within the fast band", s.P50Micros)
	}
	if s.P99Micros < 512 || s.P99Micros > 2048 {
		t.Errorf("p99 = %.1fµs, want within the slow band", s.P99Micros)
	}
	if s.P50Micros > s.P90Micros || s.P90Micros > s.P99Micros {
		t.Errorf("quantiles not monotone: %v %v %v", s.P50Micros, s.P90Micros, s.P99Micros)
	}
}

func TestOpRecordsErrors(t *testing.T) {
	var o Op
	o.Observe(time.Millisecond, nil)
	o.Observe(2*time.Millisecond, errors.New("x"))
	s := o.Snapshot()
	if s.Count != 2 || s.Errors != 1 {
		t.Errorf("op snapshot = %+v", s)
	}
	if s.TotalMicros < 2000 {
		t.Errorf("total = %dµs", s.TotalMicros)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("storage.disk1.bytes_in").Add(1024)
	r.Gauge("catalog.objects").Set(3)
	r.Op("broker.get").Observe(5*time.Microsecond, nil)
	r.Op("broker.get").Observe(7*time.Microsecond, errors.New("x"))
	if c := r.Counter("storage.disk1.bytes_in"); c.Value() != 1024 {
		t.Errorf("re-fetched counter = %d", c.Value())
	}
	s := r.Snapshot()
	if s.Counters["storage.disk1.bytes_in"] != 1024 {
		t.Errorf("snapshot counters = %v", s.Counters)
	}
	if s.Gauges["catalog.objects"] != 3 {
		t.Errorf("snapshot gauges = %v", s.Gauges)
	}
	if op := s.Ops["broker.get"]; op.Count != 2 || op.Errors != 1 {
		t.Errorf("snapshot op = %+v", op)
	}
	if s.UptimeSeconds < 0 {
		t.Errorf("snapshot uptime = %v", s.UptimeSeconds)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		ring.Add(SpanRecord{Trace: fmt.Sprintf("t%d", i)})
	}
	recs := ring.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("t%d", 6+i); r.Trace != want {
			t.Errorf("recs[%d] = %q, want %q", i, r.Trace, want)
		}
	}
	if got := ring.Recent(2); len(got) != 2 || got[1].Trace != "t9" {
		t.Errorf("Recent(2) = %v", got)
	}
}

func TestSpanEndRecords(t *testing.T) {
	ring := NewTraceRing(8)
	sp := StartSpan("", "get")
	if sp.Trace == "" || len(sp.Trace) != 16 {
		t.Fatalf("trace id = %q", sp.Trace)
	}
	sp.End(ring, "srb1", "1.2.3.4:5", errors.New("denied"))
	// A propagated span keeps the incoming ID.
	sp2 := StartSpan(sp.Trace, "get")
	if sp2.Trace != sp.Trace {
		t.Error("propagated span minted a fresh ID")
	}
	sp2.End(ring, "srb2", "", nil)
	recs := ring.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].Trace != recs[1].Trace {
		t.Error("trace IDs differ across hops")
	}
	if recs[0].Err != "denied" || recs[1].Err != "" {
		t.Errorf("errs = %q, %q", recs[0].Err, recs[1].Err)
	}
	if recs[0].Server != "srb1" || recs[1].Server != "srb2" {
		t.Errorf("servers = %q, %q", recs[0].Server, recs[1].Server)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "srbd", LevelInfo)
	l.Errorf("e1")
	l.Infof("i1")
	l.Debugf("d1")
	out := buf.String()
	if !strings.Contains(out, "ERROR srbd e1") || !strings.Contains(out, "INFO  srbd i1") {
		t.Errorf("output:\n%s", out)
	}
	if strings.Contains(out, "d1") {
		t.Errorf("debug leaked at info level:\n%s", out)
	}
	buf.Reset()
	l.SetLevel(LevelError)
	l.Infof("i2")
	if buf.Len() != 0 {
		t.Errorf("info leaked in quiet mode: %s", buf.String())
	}
	if l.Enabled(LevelDebug) {
		t.Error("Enabled(debug) at error level")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run with -race this doubles as the data-race check for the hot path.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Op(fmt.Sprintf("op%d", i%4)).Observe(time.Duration(i)*time.Microsecond, nil)
				r.Gauge("g").Set(int64(i))
				r.Traces().Add(SpanRecord{Trace: NewTraceID()})
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	var total int64
	for i := 0; i < 4; i++ {
		total += r.Op(fmt.Sprintf("op%d", i)).Count()
	}
	if total != workers*iters {
		t.Errorf("op total = %d, want %d", total, workers*iters)
	}
}
