package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/traceid"
)

// TestExemplarConcurrency is the tear-detector: many writers hammer one
// op with traced observations whose trace ID encodes the observed
// duration in microseconds, while readers snapshot continuously. If a bucket
// could ever pair one observation's trace ID with another's duration,
// the encoding check fails. Run under -race with -count (make
// test-phases runs it 10x).
func TestExemplarConcurrency(t *testing.T) {
	const threshold = 100 * time.Microsecond
	reg := NewRegistry()
	reg.SetExemplarThreshold(threshold)
	op := reg.Op("phase.server.get.dispatch")

	const writers = 8
	const perWriter = 2000
	var stop atomic.Bool
	var readWG, writeWG sync.WaitGroup

	checkSnapshot := func(s HistSnapshot) {
		for _, ex := range s.Exemplars {
			// Each observation's trace ID is its duration in microseconds.
			if want := traceid.ID(ex.Micros); ex.TraceID != want {
				t.Errorf("torn exemplar: trace %s paired with %dus (want %s)", ex.TraceID, ex.Micros, want)
			}
			if ex.Micros < threshold.Microseconds() {
				t.Errorf("exemplar below threshold: %dus < %dus", ex.Micros, threshold.Microseconds())
			}
			// The exemplar must actually belong to its bucket.
			if ex.Micros >= ex.UpperMicros {
				t.Errorf("exemplar %dus outside bucket le=%dus", ex.Micros, ex.UpperMicros)
			}
			if ex.UpperMicros > 1 && ex.Micros < ex.UpperMicros/2 {
				t.Errorf("exemplar %dus below bucket floor (le=%dus)", ex.Micros, ex.UpperMicros)
			}
		}
	}

	// Concurrent readers: snapshot while writers are mid-flight.
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for !stop.Load() {
				checkSnapshot(op.Snapshot().HistSnapshot)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(seed int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				// Spread across buckets: 50us..~819us, half below the
				// 100us threshold so the filter path races too.
				us := int64(50 + (seed*perWriter+i)%770)
				d := time.Duration(us) * time.Microsecond
				op.ObserveTrace(d, nil, traceid.ID(us))
			}
		}(w)
	}
	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()

	s := op.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count %d, want %d", s.Count, writers*perWriter)
	}
	checkSnapshot(s.HistSnapshot)
	if len(s.Exemplars) == 0 {
		t.Fatal("no exemplars retained above threshold")
	}
}

// TestExemplarStoreAllocs holds a tail observation to no heap object:
// its exemplar is written into the bucket's slot in place.
func TestExemplarStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg := NewRegistry()
	reg.SetExemplarThreshold(0)
	op := reg.Op("phase.server.get.dispatch")
	const trace = traceid.ID(0x7a1)
	if n := testing.AllocsPerRun(1000, func() { op.ObserveTrace(3*time.Millisecond, nil, trace) }); n != 0 {
		t.Fatalf("a tail observation made %v heap objects, want 0", n)
	}
	if exs := op.Snapshot().Exemplars; len(exs) != 1 || exs[0].TraceID != trace || exs[0].Micros != 3000 {
		t.Fatalf("exemplars = %+v, want [%s 3000us]", exs, trace)
	}
}

// TestExemplarThreshold pins the retention rule exactly: strictly below
// the floor never retains, at the floor retains, empty traces never
// retain, and a zero threshold retains every traced observation.
func TestExemplarThreshold(t *testing.T) {
	reg := NewRegistry()
	reg.SetExemplarThreshold(time.Millisecond)
	if got := reg.ExemplarThreshold(); got != time.Millisecond {
		t.Fatalf("threshold %v, want 1ms", got)
	}

	op := reg.Op("phase.server.get.dispatch")
	const below, at, tiny, orphan = 0xb, 0xa, 0x7, 0x0f
	op.ObserveTrace(999*time.Microsecond, nil, below)
	if n := len(op.Snapshot().Exemplars); n != 0 {
		t.Fatalf("below-threshold observation retained %d exemplar(s)", n)
	}
	op.ObserveTrace(1000*time.Microsecond, nil, at)
	exs := op.Snapshot().Exemplars
	if len(exs) != 1 || exs[0].TraceID != at || exs[0].Micros != 1000 {
		t.Fatalf("at-threshold exemplar = %+v, want [at 1000us]", exs)
	}
	// An untraced slow observation must not displace the retained one.
	op.ObserveTrace(1100*time.Microsecond, nil, 0)
	if exs := op.Snapshot().Exemplars; len(exs) != 1 || exs[0].TraceID != at {
		t.Fatalf("untraced observation displaced exemplar: %+v", exs)
	}

	zero := NewRegistry()
	zero.SetExemplarThreshold(0)
	fast := zero.Op("phase.client.get.serialize")
	fast.ObserveTrace(3*time.Microsecond, nil, tiny)
	if exs := fast.Snapshot().Exemplars; len(exs) != 1 || exs[0].TraceID != tiny {
		t.Fatalf("zero threshold did not retain: %+v", exs)
	}

	// Ops outside a registry (zero value) must never retain.
	var bare Op
	bare.ObserveTrace(time.Second, nil, orphan)
	if exs := bare.Snapshot().Exemplars; len(exs) != 0 {
		t.Fatalf("registry-less op retained exemplars: %+v", exs)
	}
}

// TestRecordPhases folds a span's phase events into the registry and
// checks the per-phase ops land under the documented names with the
// trace joined as an exemplar.
func TestRecordPhases(t *testing.T) {
	reg := NewRegistry()
	reg.SetExemplarThreshold(0)

	sp := StartSpan(0, "get")
	sp.Phase(PhaseQueueWait, 2*time.Millisecond)
	sp.Phase(PhaseMCATLookup, 300*time.Microsecond)
	sp.Phase(PhaseStorageRead, 5*time.Millisecond)
	sp.Phase(PhaseDispatch, 6*time.Millisecond)
	sp.Event(EventFailover, "disk2") // non-phase events are ignored
	reg.RecordPhases("server", "get", sp.Trace, sp.Events())

	for name, wantUs := range map[string]int64{
		"phase.server.get.queue.wait":            2000,
		"phase.server.get.dispatch/mcat.lookup":  300,
		"phase.server.get.dispatch/storage.read": 5000,
		"phase.server.get.dispatch":              6000,
	} {
		s := reg.Op(name).Snapshot()
		if s.Count != 1 || s.TotalMicros != wantUs {
			t.Errorf("%s: count=%d total=%dus, want 1 obs of %dus", name, s.Count, s.TotalMicros, wantUs)
		}
		if len(s.Exemplars) != 1 || s.Exemplars[0].TraceID != sp.Trace {
			t.Errorf("%s: exemplar %+v, want trace %s", name, s.Exemplars, sp.Trace)
		}
	}
	if _, ok := reg.Snapshot().Ops["phase.server.get.failover"]; ok {
		t.Error("non-phase event leaked into the phase namespace")
	}
}

func TestSplitPhaseOp(t *testing.T) {
	fam, op, phase, ok := SplitPhaseOp("phase.server.get.dispatch/storage.read")
	if !ok || fam != "server" || op != "get" || phase != "dispatch/storage.read" {
		t.Fatalf("got (%q,%q,%q,%v)", fam, op, phase, ok)
	}
	for _, bad := range []string{"server.get", "phase.server", "phase..get.x", "phase.server..x", "phase.server.get."} {
		if _, _, _, ok := SplitPhaseOp(bad); ok {
			t.Errorf("SplitPhaseOp(%q) accepted", bad)
		}
	}
}

// TestPhaseRows checks extraction and ordering: non-phase ops skipped,
// grouped family→op, slowest total first within a group.
func TestPhaseRows(t *testing.T) {
	ops := map[string]WindowOp{
		"server.get":                             {Count: 9},
		"phase.server.get.queue.wait":            {Count: 3, TotalMicros: 100},
		"phase.server.get.dispatch":              {Count: 3, TotalMicros: 900},
		"phase.server.get.dispatch/storage.read": {Count: 3, TotalMicros: 800},
		"phase.client.get.mux.inflight":          {Count: 3, TotalMicros: 700},
	}
	rows := PhaseRows(ops)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (non-phase op must be skipped)", len(rows))
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Family+"."+r.Op+"."+r.Phase)
	}
	want := []string{
		"client.get.mux.inflight",
		"server.get.dispatch",
		"server.get.dispatch/storage.read",
		"server.get.queue.wait",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row order %v, want %v", got, want)
		}
	}
}

// TestWaterfall renders a two-level tree and checks the accounting: the
// top-level phases cover the span, sub-phases indent, and a span with an
// instrumentation gap shows the unattributed remainder.
func TestWaterfall(t *testing.T) {
	full := SpanRecord{
		Trace: 0xabc, Span: 1, Op: "get", Server: "srb1", Micros: 1000,
		Events: []SpanEvent{
			{Kind: EventPhase, Detail: PhaseQueueWait, DurMicros: 200},
			{Kind: EventPhase, Detail: PhaseDispatch, DurMicros: 800},
			{Kind: EventPhase, Detail: PhaseStorageRead, DurMicros: 700},
		},
	}
	if got := PhaseSum(full.Events); got != 1000 {
		t.Fatalf("PhaseSum=%d, want 1000 (sub-phase must not double-count)", got)
	}
	var b strings.Builder
	if err := WriteWaterfall(&b, AssembleTree([]SpanRecord{full})); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"get [srb1] 1000us", "queue.wait", "dispatch", "storage.read", "80.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(unattributed)") {
		t.Errorf("fully attributed span shows a remainder:\n%s", out)
	}
	// The sub-phase row indents two extra spaces and drops its parent
	// segment.
	if !strings.Contains(out, "    storage.read") || strings.Contains(out, "dispatch/storage.read") {
		t.Errorf("sub-phase not nested under its parent:\n%s", out)
	}

	gappy := SpanRecord{
		Trace: 0xabc, Span: 2, Op: "put", Server: "srb1", Micros: 1000,
		Events: []SpanEvent{{Kind: EventPhase, Detail: PhaseDispatch, DurMicros: 600}},
	}
	b.Reset()
	if err := WriteWaterfall(&b, AssembleTree([]SpanRecord{gappy})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "(unattributed)") || !strings.Contains(b.String(), "400us") {
		t.Errorf("gap not surfaced:\n%s", b.String())
	}
}

// TestPhasesRideWindows proves the decomposition needs no parallel
// aggregation path: phase ops recorded via RecordPhases appear in
// windowed rollups and survive a grid merge.
func TestPhasesRideWindows(t *testing.T) {
	reg := NewRegistry()
	base := time.Now()
	reg.CaptureRollup(base) // empty baseline: the window diffs against it
	sp := StartSpan(0, "get")
	sp.Phase(PhaseQueueWait, time.Millisecond)
	sp.Phase(PhaseDispatch, 4*time.Millisecond)
	reg.RecordPhases("server", "get", sp.Trace, sp.Events())

	ws := reg.WindowAt(base.Add(30*time.Second), time.Minute)
	rows := PhaseRows(ws.Ops)
	if len(rows) != 2 {
		t.Fatalf("window carries %d phase rows, want 2: %+v", len(rows), ws.Ops)
	}
	merged := MergeWindows([]WindowStats{ws, ws})
	mrows := PhaseRows(merged.Ops)
	if len(mrows) != 2 || mrows[0].Count != 2 {
		t.Fatalf("grid merge lost phases: %+v", mrows)
	}
	if mrows[0].Phase != PhaseDispatch {
		t.Fatalf("slowest-first ordering broken: %+v", mrows)
	}
}
