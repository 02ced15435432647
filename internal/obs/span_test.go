package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"gosrb/internal/traceid"
)

// TestTraceRingConcurrentWraparound hammers one small ring from many
// writers at once, wrapping it many times over. Run under -race (the
// `make race` target does) it doubles as the data-race check for the
// ring; the assertions check that wraparound keeps exactly the newest
// capacity records and that ForTrace still finds every survivor.
func TestTraceRingConcurrentWraparound(t *testing.T) {
	const capacity, writers, perWriter = 8, 16, 200
	ring := NewTraceRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := traceid.New()
			for i := 0; i < perWriter; i++ {
				sp := StartSpan(trace, "op")
				sp.Event(EventRetry, "contended")
				sp.End(ring, "srv", "remote", nil)
			}
		}(w)
	}
	wg.Wait()
	recent := ring.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("after %d adds ring holds %d records, want %d",
			writers*perWriter, len(recent), capacity)
	}
	for _, rec := range recent {
		if got := ring.ForTrace(rec.Trace); len(got) == 0 {
			t.Errorf("ForTrace(%s) lost a retained record", rec.Trace)
		}
		if len(rec.Events) != 1 || rec.Events[0].Kind != EventRetry {
			t.Errorf("record events = %+v, want one retry", rec.Events)
		}
	}
	if got := ring.ForTrace(1); got != nil {
		t.Errorf("ForTrace(miss) = %v, want nil", got)
	}
}

// TestTraceRingAddAllocatesNothing fences the one ring body on the
// request path: every span end lands in Add, before and after the ring
// wraps, and it must copy into its preallocated slot. A record's events
// are copied into the array its slot already holds, so once the ring has
// gone round an add with events allocates nothing either.
func TestTraceRingAddAllocatesNothing(t *testing.T) {
	ring := NewTraceRing(8)
	rec := SpanRecord{Trace: 1, Span: 2, Op: "get", Server: "srb1", Start: time.Now()}
	if n := testing.AllocsPerRun(100, func() { ring.Add(rec) }); n != 0 {
		t.Errorf("TraceRing.Add allocates %.1f objects per call, want 0", n)
	}
	rec.Events = make([]SpanEvent, 6)
	for i := range rec.Events {
		rec.Events[i] = SpanEvent{Kind: EventPhase, Detail: "p", DurMicros: int64(i)}
	}
	for i := 0; i < 8; i++ {
		ring.Add(rec)
	}
	if n := testing.AllocsPerRun(100, func() { ring.Add(rec) }); n != 0 {
		t.Errorf("TraceRing.Add with events, gone round once, allocates %.1f objects per call, want 0", n)
	}
	if got := ring.Recent(1); len(got) != 1 || len(got[0].Events) != 6 || got[0].Events[5].DurMicros != 5 {
		t.Errorf("newest record = %+v", got)
	}
	var off *TraceRing
	off.Add(rec)
	if off.Recent(0) != nil || off.ForTrace(1) != nil {
		t.Error("a nil ring retained a record")
	}
}

// TestAssembleTreeLateChild covers federation reassembly order: the
// child span (recorded on the remote peer) joins the set after its
// parent closed, and a grandchild whose parent record never arrives
// (evicted ring, unreachable server) must surface as a root instead of
// vanishing.
func TestAssembleTreeLateChild(t *testing.T) {
	base := time.Now()
	const a, b, c, zz = 0xa, 0xb, 0xc, 0xff
	recs := []SpanRecord{
		{Trace: 1, Span: a, Op: "get", Server: "srb1", Start: base},
		// Child arrives after the parent was already in the set.
		{Trace: 1, Span: b, Parent: a, Op: "get", Server: "srb2", Start: base.Add(time.Millisecond)},
		// Orphan: parent zz is in no ring we fetched.
		{Trace: 1, Span: c, Parent: zz, Op: "readrange", Server: "srb3", Start: base.Add(2 * time.Millisecond)},
	}
	roots := AssembleTree(recs)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (tree root + orphan)", len(roots))
	}
	if roots[0].Span != a || len(roots[0].Children) != 1 || roots[0].Children[0].Span != b {
		t.Fatalf("first root = %s with %d children, want a->[b]", roots[0].Span, len(roots[0].Children))
	}
	if roots[1].Span != c {
		t.Fatalf("orphan root = %s, want c", roots[1].Span)
	}

	var out strings.Builder
	if err := WriteTree(&out, roots); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "get [srb1]") || !strings.Contains(text, "  get [srb2]") ||
		!strings.Contains(text, "span=000000000000000b") {
		t.Errorf("rendered tree misses parent/indented child:\n%s", text)
	}

	// Pre-span-tree records (no span ID) render as standalone roots.
	anon := AssembleTree([]SpanRecord{{Trace: 2, Op: "stat", Start: base}})
	if len(anon) != 1 || anon[0].Op != "stat" {
		t.Fatalf("anonymous record should be its own root, got %+v", anon)
	}
}

// TestSpanEvents checks nil-safety and event stamping: deep layers call
// Event on whatever span they were handed, traced or not.
func TestSpanEvents(t *testing.T) {
	var nilSpan *Span
	nilSpan.Event(EventFailover, "ignored") // must not panic
	if nilSpan.TraceID() != 0 || nilSpan.SpanID() != 0 || nilSpan.Events() != nil {
		t.Error("nil span accessors should be zero-valued")
	}

	const parent = 0x9a
	sp := StartSpanFrom(0, parent, "get")
	if sp.Trace == 0 {
		t.Error("StartSpanFrom must mint a trace ID when given none")
	}
	if sp.Parent != parent {
		t.Errorf("parent = %s", sp.Parent)
	}
	sp.Event(EventBreakerTrip, "resource.disk1")
	sp.Event(EventFailover, "replica 1 on disk2")
	evs := sp.Events()
	if len(evs) != 2 || evs[0].Kind != EventBreakerTrip || evs[1].Kind != EventFailover {
		t.Fatalf("events = %+v", evs)
	}

	ring := NewTraceRing(4)
	sp.End(ring, "srb1", "1.2.3.4", nil)
	got := ring.ForTrace(sp.Trace)
	if len(got) != 1 || len(got[0].Events) != 2 || got[0].Parent != parent {
		t.Fatalf("ended record = %+v", got)
	}
}

// TestIDFormat holds the trace- and span-ID format every surface prints:
// 16 lower-case hex digits, exactly what fmt's %016x writes, and nothing
// for the zero ID (no trace), as an absent ID always printed.
func TestIDFormat(t *testing.T) {
	vals := []uint64{1, 1 << 63, math.MaxUint64}
	for i := 0; i < 1000; i++ {
		vals = append(vals, rand.Uint64()|1)
	}
	for _, v := range vals {
		id := traceid.ID(v)
		want := fmt.Sprintf("%016x", v)
		if got := id.String(); got != want {
			t.Fatalf("ID(%d).String() = %q, want %q", v, got, want)
		}
		if got, _ := id.MarshalText(); string(got) != want {
			t.Fatalf("ID(%d).MarshalText() = %q, want %q", v, got, want)
		}
		if back, err := traceid.Parse(want); err != nil || back != id {
			t.Fatalf("Parse(%q) = %d, %v; want %d", want, back, err, v)
		}
	}
	if s := traceid.ID(0).String(); s != "" {
		t.Errorf("the zero ID prints %q, want nothing", s)
	}
	sp := StartSpan(0, "get")
	for _, id := range []traceid.ID{sp.Trace, sp.ID} {
		if s := id.String(); len(s) != 16 || strings.Trim(s, "0123456789abcdef") != "" {
			t.Errorf("ID %q is not 16 lower-case hex digits", s)
		}
	}
}

// TestSpanOpenInPlace covers a span held by value: opened in place, it
// records past its inline events in order, End hands back the span's own
// events while the ring record holds a copy, a phase recorded after End
// changes neither, and opening it again costs only its ID.
func TestSpanOpenInPlace(t *testing.T) {
	const trace, parent = 0x71, 0x9a
	var sp Span
	sp.Open(trace, parent, "get")
	if sp.Trace != trace || sp.Parent != parent || sp.Op != "get" || sp.ID == 0 {
		t.Fatalf("opened span = %+v", &sp)
	}
	for i := 0; i < 12; i++ {
		sp.Phase(fmt.Sprintf("p%d", i), time.Duration(i)*time.Microsecond)
	}
	ring := NewTraceRing(4)
	evs := sp.End(ring, "srb1", "", nil)
	if len(evs) != 12 {
		t.Fatalf("End returned %d events, want 12", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != EventPhase || ev.Detail != fmt.Sprintf("p%d", i) || ev.DurMicros != int64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	sp.mu.Lock()
	own := &sp.events[0] == &evs[0]
	sp.mu.Unlock()
	if !own {
		t.Fatal("End's events are not the span's own")
	}
	rec := ring.ForTrace(trace)
	if len(rec) != 1 || len(rec[0].Events) != 12 || &rec[0].Events[0] == &evs[0] {
		t.Fatalf("ring record = %+v: want its own copy of the 12 events", rec)
	}
	sp.Phase("late", time.Microsecond)
	if len(evs) != 12 || evs[11].Detail != "p11" {
		t.Errorf("a phase after End changed the events End returned: %+v", evs)
	}
	if got := ring.ForTrace(trace)[0].Events; len(got) != 12 || got[11].Detail != "p11" {
		t.Errorf("a phase after End changed the ended record: %+v", got)
	}

	var held Span
	if n := testing.AllocsPerRun(100, func() { held.Open(trace, 0, "get") }); n != 0 {
		t.Errorf("Open on a held span allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { held.Open(0, 0, "get") }); n != 0 {
		t.Errorf("Open minting a trace allocates %.1f objects, want 0", n)
	}
}

// TestUsageTable covers accumulation, sorting, the unattributed-user
// no-op, and the bounded-cardinality fold to "(other)".
func TestUsageTable(t *testing.T) {
	u := NewUsageTable()
	u.Record("", "/home", 10, "get", false, 0, 10, time.Millisecond) // anonymous: dropped
	u.Record("alice", "/home", 1, "get", false, 0, 100, time.Millisecond)
	u.Record("alice", "/home", 2, "get", true, 0, 0, time.Millisecond)
	u.Record("alice", "", 3, "opstats", false, 0, 0, time.Millisecond)
	u.Record("alice", "/home", 0, "get", false, 0, 0, time.Millisecond) // no trace: keeps the last
	u.Record("bob", "/data", 4, "ingest", false, 500, 0, 2*time.Millisecond)

	snap := u.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(snap), snap)
	}
	// Sorted by user then collection: alice/-, alice//home, bob//data.
	if snap[0].User != "alice" || snap[0].Collection != "-" {
		t.Errorf("entry 0 = %+v", snap[0])
	}
	home := snap[1]
	if home.Collection != "/home" || home.Ops != 3 || home.Errors != 1 || home.BytesOut != 100 {
		t.Errorf("alice /home = %+v", home)
	}
	if home.LastTrace != 2 || home.LastOp != "get" {
		t.Errorf("last trace/op = %s/%s, want 0000000000000002/get", home.LastTrace, home.LastOp)
	}
	if snap[2].User != "bob" || snap[2].BytesIn != 500 {
		t.Errorf("bob = %+v", snap[2])
	}

	// Blow past the cardinality bound: overflow folds per-user.
	for i := 0; i < maxUsageKeys+10; i++ {
		u.Record("carol", "/c/"+traceid.New().String(), 5, "get", false, 0, 1, time.Microsecond)
	}
	var folded *UsageStat
	for _, e := range u.Snapshot() {
		if e.User == "carol" && e.Collection == "(other)" {
			folded = &e
			break
		}
	}
	if folded == nil || folded.Ops == 0 {
		t.Fatal("overflow collections did not fold into (other)")
	}
}

// TestWritePrometheus checks the exposition-format contract points a
// scraper depends on: TYPE/HELP headers, _total counters, cumulative
// histogram buckets ending at +Inf, and _sum/_count in seconds.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("replica.failover").Add(3)
	r.Gauge("breaker.peer.srb2.state").Set(2)
	op := r.Op("server.get")
	op.Observe(100*time.Microsecond, nil)
	op.Observe(300*time.Microsecond, errStub("boom"))

	var out strings.Builder
	if err := WritePrometheus(&out, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE srb_uptime_seconds gauge",
		"# TYPE srb_replica_failover_total counter",
		"srb_replica_failover_total 3",
		"srb_breaker_peer_srb2_state 2",
		"# TYPE srb_server_get_duration_seconds histogram",
		"srb_server_get_ops_total 2",
		"srb_server_get_errors_total 1",
		`srb_server_get_duration_seconds_bucket{le="+Inf"} 2`,
		"srb_server_get_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Buckets must be cumulative: each le count non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "srb_server_get_duration_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscanCount(line, &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
}

type errStub string

func (e errStub) Error() string { return string(e) }

func fmtSscanCount(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, errStub("no value field")
	}
	var v int64
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			return 0, errStub("non-numeric count")
		}
		v = v*10 + int64(c-'0')
	}
	*n = v
	return 1, nil
}

// TestTraceRingReadersOwnTheirCopies: a ForTrace and a Recent result
// are the reader's own. Lapping the ring over their slots, whose event
// arrays the new records are copied into, leaves both unchanged.
func TestTraceRingReadersOwnTheirCopies(t *testing.T) {
	const size = 4
	ring := NewTraceRing(size)
	add := func(trace traceid.ID, detail string) {
		sp := StartSpan(trace, "get")
		sp.Phase(detail, time.Microsecond)
		sp.Event(EventFailover, detail)
		sp.End(ring, "srb1", "", nil)
	}
	for i := 1; i <= size; i++ {
		add(traceid.ID(i), fmt.Sprintf("first%d", i))
	}
	byTrace := ring.ForTrace(2)
	recent := ring.Recent(0)
	for i := 0; i < 3*size; i++ {
		add(traceid.ID(100+i), fmt.Sprintf("lap%d", i))
	}
	if len(byTrace) != 1 || len(byTrace[0].Events) != 2 ||
		byTrace[0].Events[0].Detail != "first2" || byTrace[0].Events[1].Detail != "first2" {
		t.Errorf("ForTrace result changed under a lapping ring: %+v", byTrace)
	}
	if len(recent) != size {
		t.Fatalf("Recent returned %d records, want %d", len(recent), size)
	}
	for i, rec := range recent {
		want := fmt.Sprintf("first%d", i+1)
		if rec.Trace != traceid.ID(i+1) || len(rec.Events) != 2 ||
			rec.Events[0].Detail != want || rec.Events[1].Detail != want {
			t.Errorf("Recent record %d changed under a lapping ring: %+v", i, rec)
		}
	}
}
