// The telemetry-overhead budgets: what each always-on telemetry feature
// may cost one broker request, stated in absolute terms (heap objects
// and µs per op) and held by one table-driven test. The alloc half is
// deterministic and runs on every `go test`; the wall-clock half is
// opt-in (`make bench-gate` passes -overhead-time) because no timing
// fence belongs in tier-1.
package core_test

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

var overheadTime = flag.Bool("overhead-time", false, "also run TestOverheadBudget's wall-clock half (make bench-gate)")

const (
	benchObjects = 64
	// tickEvery is how many gets share one background tick (a rollup
	// capture, a journal flush). At today's ~7 µs broker get that is one
	// tick per ~2 ms — against the 10 s / 30 s production cadences, a
	// ceiling on what the console and the flight recorder cost a busy
	// broker. The tick runs inline so both halves of the test see it.
	tickEvery = 256
)

var benchPayload = workload.NewGen(21).Bytes(4 << 10)

// obsBenchBroker builds a one-disk broker preloaded with objects.
// instrumented=false turns the registry off *before* mounting, so the
// baseline broker records no op latencies and its driver is not wrapped
// in the byte-counting decorator — the true zero-telemetry cost.
func obsBenchBroker(tb testing.TB, instrumented bool) *core.Broker {
	tb.Helper()
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	if !instrumented {
		br.SetMetrics(nil)
	}
	br.AddPhysicalResource("admin", "r1", types.ClassFileSystem, "memfs", memfs.New())
	cat.MkColl("/d", "admin")
	for i := 0; i < benchObjects; i++ {
		if _, err := br.Ingest("admin", core.IngestOpts{
			Path: fmt.Sprintf("/d/f%03d", i), Data: benchPayload, Resource: "r1",
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return br
}

// obsBenchOp runs one iteration of the measured op: a Get, or for the
// put path a Reingest (rewrite-in-place, so the catalog stays the same
// size across iterations).
func obsBenchOp(br *core.Broker, put bool, i int) error {
	path := fmt.Sprintf("/d/f%03d", i%benchObjects)
	if put {
		return br.Reingest("admin", path, benchPayload)
	}
	_, err := br.Get("admin", path)
	return err
}

// benchSpanSink keeps the plain phase cell's span alive so the compiler
// cannot elide its creation and skew the comparison.
var benchSpanSink *obs.Span

// phaseBenchOp is one get through the decomposition harness. Phased: a
// live span rides GetTraced (the mcat.lookup / storage.read stamps
// fire) and the dispatch-side fold runs — the exact per-request work
// srbd adds. Plain: the span is still minted (pre-existing flight
// recorder cost) but GetTraced sees nil, so stamps and fold are off.
func phaseBenchOp(br *core.Broker, i int, phased bool) error {
	path := fmt.Sprintf("/d/f%03d", i%benchObjects)
	sp := obs.StartSpan(0, "get")
	if !phased {
		benchSpanSink = sp
		_, err := br.GetTraced("admin", path, nil)
		return err
	}
	_, err := br.GetTraced("admin", path, sp)
	sp.Phase(obs.PhaseDispatch, sp.Elapsed())
	br.Metrics().RecordPhases("server", "get", sp.Trace, sp.Events())
	return err
}

// A cell builds one side of a comparison — the feature on or off — and
// returns the op to measure. i counts up from 0 within each batch.
type cell func(tb testing.TB, on bool) func(i int) error

// obsCell: every broker instrument (op histograms, cached op handles,
// the storage byte-counting decorator) against SetMetrics(nil). One op
// is a get plus a put, so both paths sit under the one budget.
func obsCell(tb testing.TB, on bool) func(int) error {
	br := obsBenchBroker(tb, on)
	return func(i int) error {
		if err := obsBenchOp(br, false, i); err != nil {
			return err
		}
		return obsBenchOp(br, true, i)
	}
}

// gridCell: the grid console's poll — a rollup capture plus a 1m window
// query — once per tickEvery gets, against idle telemetry.
func gridCell(tb testing.TB, on bool) func(int) error {
	br := obsBenchBroker(tb, true)
	reg := br.Metrics()
	return func(i int) error {
		if on && i%tickEvery == 0 {
			reg.CaptureRollup(time.Now())
			reg.Window(time.Minute)
		}
		return obsBenchOp(br, false, i)
	}
}

// flightCell: the flight recorder's flush — a rollup capture plus an
// incremental journal flush to a real on-disk TelemetryStore — once per
// tickEvery gets, against idle telemetry.
func flightCell(tb testing.TB, on bool) func(int) error {
	br := obsBenchBroker(tb, true)
	if !on {
		return func(i int) error { return obsBenchOp(br, false, i) }
	}
	reg := br.Metrics()
	telem, err := obs.OpenTelemetryStore(tb.TempDir(), time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { telem.Close(reg, nil, time.Now()) })
	return func(i int) error {
		if i%tickEvery == 0 {
			reg.CaptureRollup(time.Now())
			if err := telem.Flush(reg, nil, time.Now()); err != nil {
				return err
			}
		}
		return obsBenchOp(br, false, i)
	}
}

// phaseCell: the Span.Phase stamps in the get path plus the
// RecordPhases fold the server dispatch performs, against the same
// instrumented get with a nil span.
func phaseCell(tb testing.TB, on bool) func(int) error {
	br := obsBenchBroker(tb, true)
	return func(i int) error { return phaseBenchOp(br, i, on) }
}

// heatCell: the hot-key sketch update in the get path plus the
// hot-object record in the replica read path, against the same
// instrumented get with the heat tables detached.
func heatCell(tb testing.TB, on bool) func(int) error {
	br := obsBenchBroker(tb, true)
	br.SetHeatTracking(on)
	return func(i int) error { return obsBenchOp(br, false, i) }
}

// overheadRows is the budget table. allocBudget is the extra heap
// objects per op the feature may cost (on minus off): exactly what this
// test measured at commit 6516808, the parent of the change that
// introduced it — so a telemetry change that adds one heap object per
// request fails tier-1 with the feature's name. usBudget is the extra
// wall time per op: about twice what the same commit measured on the
// 2-core build host (the figure in each row's comment), floored at 1 µs.
// Both are absolute — a percentage of a get would tighten by itself
// every time the get gets cheaper. The time half trips at the run's
// measured noise floor plus usBudget, and on that host the floor ran
// 0.5–3.1 µs (obs 3.16 against its 3, phases 1.98 against its 3.5): its
// resolution is up to about twice the stated figure, not the figure.
var overheadRows = []struct {
	name        string
	cell        cell
	allocBudget float64
	usBudget    float64
}{
	{"obs", obsCell, 2, 3},          // per get+put pair; measured −0.1–3.0 µs, typically 1.3
	{"grid", gridCell, 1.29, 1},     // ≈330 objects per poll; measured −0.2–0.5 µs
	{"flight", flightCell, 2.41, 8}, // ≈615 objects per flush; measured 1.7–4.0 µs (one file append per flush)
	{"phases", phaseCell, 1, 3.5},   // the span's phase events; RecordPhases' lookups allocate nothing (PR 21, was 6); measured 0.8–2.9 µs, typically 1.5
	{"heat", heatCell, 0, 1},        // measured −0.1–0.3 µs
}

// batch is the ops per measurement: a whole number of ticks.
const batch = 8 * tickEvery

// runBatch drives one batch of op and fails the test on the first error.
func runBatch(t *testing.T, op func(int) error) {
	for i := 0; i < batch; i++ {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
}

// allocsPerOp is the heap objects one op allocates: the least of three
// batches, because the only run-to-run variation is upward (a GC cycle
// emptying a sync.Pool mid-batch).
func allocsPerOp(t *testing.T, op func(int) error) float64 {
	least := math.Inf(1)
	for n := 0; n < 3; n++ {
		least = math.Min(least, testing.AllocsPerRun(1, func() { runBatch(t, op) })/batch)
	}
	return least
}

// usPerOp times one batch.
func usPerOp(t *testing.T, op func(int) error) float64 {
	start := time.Now()
	runBatch(t, op)
	return float64(time.Since(start).Nanoseconds()) / 1e3 / batch
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func TestOverheadBudget(t *testing.T) {
	for _, row := range overheadRows {
		t.Run(row.name, func(t *testing.T) {
			off, on := row.cell(t, false), row.cell(t, true)
			// The slack absorbs the few objects a whole batch allocates
			// beside its ops (a histogram exemplar, a map growing) — and,
			// under the race detector, the pooled buffers sync.Pool drops.
			// Either way one more heap object per op is over it. A
			// canary's own objects (row fingerprints, lent objects it
			// never recycles) are not telemetry's: under one the alloc
			// half only reports.
			slack := 0.01
			switch {
			case rowCanary || lend.Canary:
				slack = math.Inf(1)
			case raceEnabled:
				slack = 0.5
			}
			delta := allocsPerOp(t, on) - allocsPerOp(t, off)
			t.Logf("allocs: %+.3f per op (budget %.3f)", delta, row.allocBudget)
			if delta > row.allocBudget+slack {
				t.Errorf("%s costs %.3f heap objects per op, budget %.3f", row.name, delta, row.allocBudget)
			}
			if !*overheadTime {
				return
			}
			// Interleaved rounds: the on cell is bracketed by two
			// identical off cells, so a host that drifts between fast
			// and slow states moves all three together. The delta is
			// taken against the bracket's mean; the bracket's own
			// disagreement is the noise floor — what this host reports
			// for a feature that costs nothing.
			off2 := row.cell(t, false)
			const rounds = 15
			var deltas, floors []float64
			for r := -1; r < rounds; r++ { // round -1 warms all three, unrecorded
				a, o, b := usPerOp(t, off), usPerOp(t, on), usPerOp(t, off2)
				if r >= 0 {
					deltas = append(deltas, o-(a+b)/2)
					floors = append(floors, math.Abs(a-b))
				}
			}
			d, floor := median(deltas), median(floors)
			t.Logf("time: %+.2f µs per op, noise floor %.2f µs (budget %.2f µs, median of %d rounds of %d ops)",
				d, floor, row.usBudget, rounds, batch)
			if d > floor+row.usBudget {
				t.Errorf("%s costs %.2f µs per op, over the %.2f µs budget by more than the %.2f µs noise floor",
					row.name, d, row.usBudget, floor)
			}
		})
	}
}
