package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parse reads a numeric cell.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// col finds a column index by name.
func col(t *testing.T, tb Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (have %v)", tb.ID, name, tb.Columns)
	return -1
}

// The experiment tests assert the paper-shaped outcomes EXPERIMENTS.md
// documents, not absolute numbers.

func TestE1ContainerAlwaysWins(t *testing.T) {
	tb := E1ContainerWAN(1)
	di, ci := col(t, tb, "direct_ms"), col(t, tb, "container_ms")
	var prevSpeedup float64
	for _, row := range tb.Rows {
		direct, cont := parse(t, row[di]), parse(t, row[ci])
		if cont >= direct {
			t.Errorf("rtt %s: container (%v) not faster than direct (%v)", row[0], cont, direct)
		}
		speedup := direct / cont
		if speedup < prevSpeedup {
			t.Errorf("speedup should grow with RTT: %v after %v", speedup, prevSpeedup)
		}
		prevSpeedup = speedup
	}
}

func TestE2IndexKeepsEqualityCheap(t *testing.T) {
	// Each query is timed once per table, so one scheduling stall could
	// decide the comparison: each is taken as the best of a few tables.
	const runs = 3
	tb := E2CatalogScaling(1)
	ei, li := col(t, tb, "eq_query_ms"), col(t, tb, "like_query_ms")
	hi := col(t, tb, "eq_hits")
	eqs, likes := make([]float64, len(tb.Rows)), make([]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		eqs[i], likes[i] = parse(t, row[ei]), parse(t, row[li])
	}
	for r := 1; r < runs; r++ {
		for i, row := range E2CatalogScaling(1).Rows {
			eqs[i], likes[i] = min(eqs[i], parse(t, row[ei])), min(likes[i], parse(t, row[li]))
		}
	}
	for i, row := range tb.Rows {
		eq, like := eqs[i], likes[i]
		if eq > like*2 {
			t.Errorf("objects %s: indexed equality (%v ms) should not dwarf a scan (%v ms)", row[0], eq, like)
		}
		// Per-hit cost stays bounded (index, not a full scan). The race
		// detector slows everything ~15x; scale the bound accordingly.
		perHit := 0.1 // 100 µs per hit is generous
		if raceEnabled {
			perHit *= 20
		}
		hits := parse(t, row[hi])
		if hits > 0 && eq/hits > perHit {
			t.Errorf("objects %s: %v ms for %v hits is not index-shaped", row[0], eq, hits)
		}
	}
}

func TestE3FailoverServes(t *testing.T) {
	tb := E3Failover(1)
	found := map[string]string{}
	for _, row := range tb.Rows {
		found[row[0]] = row[1]
	}
	if !strings.Contains(found["r1 offline (failover)"], "served from r2") {
		t.Errorf("failover outcome = %q", found["r1 offline (failover)"])
	}
	if !strings.Contains(found["both offline"], "offline error") {
		t.Errorf("both-offline outcome = %q", found["both offline"])
	}
	if !strings.Contains(found["unreplicated, r1 offline"], "offline error") {
		t.Errorf("unreplicated outcome = %q", found["unreplicated, r1 offline"])
	}
}

// TestE4RoundRobinScales states E4's claims on the opens each storage
// server served, as the modelled rate reads ÷ (busiest server's opens ×
// service time): what the selection policy decides, which the load on
// the host running the test cannot move. The wall-clock reads_per_s
// column stays in the table for EXPERIMENTS.md.
func TestE4RoundRobinScales(t *testing.T) {
	tb := E4LoadBalance(1)
	ri := col(t, tb, "modelled_reads_per_s")
	rates := map[string]float64{} // "k/policy" -> modelled rate
	for _, row := range tb.Rows {
		rates[row[0]+"/"+row[1]] = parse(t, row[ri])
	}
	// Round-robin at 4 replicas beats 1 replica clearly.
	if rates["4/round-robin"] < rates["1/round-robin"]*2 {
		t.Errorf("round-robin does not scale: k=1 %v, k=4 %v", rates["1/round-robin"], rates["4/round-robin"])
	}
	// First-alive gains little from extra replicas (the ablation point).
	if rates["4/first-alive"] > rates["1/first-alive"]*2 {
		t.Errorf("first-alive unexpectedly scales: k=1 %v, k=4 %v", rates["1/first-alive"], rates["4/first-alive"])
	}
	// At k=4 the policies separate decisively.
	if rates["4/round-robin"] < rates["4/first-alive"]*1.5 {
		t.Errorf("policies should separate at k=4: rr %v vs fa %v", rates["4/round-robin"], rates["4/first-alive"])
	}
}

func TestE5AllModesWork(t *testing.T) {
	tb := E5Federation(1)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	li := col(t, tb, "mean_get_us")
	for _, row := range tb.Rows {
		if parse(t, row[li]) <= 0 {
			t.Errorf("%s: non-positive latency", row[0])
		}
	}
}

func TestE6ParallelSpeedsUp(t *testing.T) {
	tb := E6ParallelTransfer(1)
	ei := col(t, tb, "elapsed_ms")
	one := parse(t, tb.Rows[0][ei])
	eight := parse(t, tb.Rows[len(tb.Rows)-1][ei])
	if eight >= one {
		t.Errorf("8 streams (%v ms) not faster than 1 (%v ms)", eight, one)
	}
	if one/eight < 2 {
		t.Errorf("parallel speedup too small: %.1fx", one/eight)
	}
}

func TestE7CostIsLinearInMembers(t *testing.T) {
	tb := E7SyncIngest(1)
	ci := col(t, tb, "sim_ms_per_ingest")
	k1 := parse(t, tb.Rows[0][ci])
	k4 := parse(t, tb.Rows[2][ci])
	// Simulated time is deterministic: exactly 4x.
	if k4 != k1*4 {
		t.Errorf("k=4 cost %v, want exactly 4x of %v", k4, k1)
	}
}

func TestE8AllOperatorsAnswer(t *testing.T) {
	tb := E8MetadataQuery(1)
	if len(tb.Rows) < 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	hi := col(t, tb, "hits")
	// Conjunction narrows: rows 0..2 are 1, 2, 3 conditions.
	h0, h1, h2 := parse(t, tb.Rows[0][hi]), parse(t, tb.Rows[1][hi]), parse(t, tb.Rows[2][hi])
	if !(h0 >= h1 && h1 >= h2) {
		t.Errorf("AND should narrow: %v, %v, %v", h0, h1, h2)
	}
	for _, row := range tb.Rows {
		if parse(t, row[hi]) == 0 {
			t.Errorf("query %q found nothing", row[0])
		}
	}
}

func TestE9AndE10Shapes(t *testing.T) {
	t9 := E9TLang(1)
	if len(t9.Rows) != 4 {
		t.Fatalf("E9 rows = %d", len(t9.Rows))
	}
	t10 := E10ArchiveCache(1)
	ci := col(t, t10, "sim_ms_per_read")
	cold := parse(t, t10.Rows[0][ci])
	cached := parse(t, t10.Rows[1][ci])
	purged := parse(t, t10.Rows[2][ci])
	if cached != 0 {
		t.Errorf("cache reads should cost nothing, got %v", cached)
	}
	if !(purged > cached && purged < cold) {
		t.Errorf("post-purge cost %v should sit between cache %v and cold %v", purged, cached, cold)
	}
}

// byID runs one wall-clock table through the id srbbench -e takes, so
// its shape test is also its reachability check and TestAllAndByID need
// not run it a second time.
func byID(t *testing.T, id string) Table {
	t.Helper()
	tb, ok := ByID(id, 1)
	if !ok || len(tb.Rows) == 0 || !strings.Contains(tb.Format(), tb.ID) {
		t.Fatalf("ByID(%q): missing, empty or unformatted table", id)
	}
	return tb
}

// speedupFloor checks a wall-clock table's speedup column: every row
// after the baseline must clear floor. The tables already keep each
// cell's best of three paired rounds; the race detector's
// instrumentation eats into CPU-bound ratios, so the floor halves there
// (as E2's per-hit bound is relaxed).
func speedupFloor(t *testing.T, tb Table, column string, floor float64) {
	t.Helper()
	if raceEnabled {
		floor /= 2
	}
	si := col(t, tb, column)
	if len(tb.Rows) < 2 {
		t.Fatalf("%s: rows = %d", tb.ID, len(tb.Rows))
	}
	for _, row := range tb.Rows[1:] {
		if got := parse(t, row[si]); got < floor {
			t.Errorf("%s %s: speedup %.1fx is under the %.1fx floor\n%s", tb.ID, row[0], got, floor, tb.Format())
		}
	}
}

// Pipelined and batched small-op throughput both clear 3x serial at a
// 5 ms RTT (EXPERIMENTS.md records 13.8x and 30x).
func TestE11PipeliningAndBatchingBeatSerial(t *testing.T) {
	speedupFloor(t, byID(t, "e11"), "speedup_vs_serial", 3)
}

// A deep-scoped query on the 4-shard router scans at least 2x fewer
// candidates than on the monolith. The reduction is counted, not timed,
// so load on the host cannot fail it; the table's wall-clock speedup
// (EXPERIMENTS.md records 4.3x) is what the reduction buys.
func TestE12ShardingBeatsMonolithic(t *testing.T) {
	tb := byID(t, "e12")
	ci := col(t, tb, "scan_reduction")
	for _, row := range tb.Rows[1:] {
		if got := parse(t, row[ci]); got < 2 {
			t.Errorf("E12 %s: scan reduction %.2fx is under the 2.0x floor\n%s", row[0], got, tb.Format())
		}
	}
}

// async:1 ingest clears 1.5x the synchronous 3-member fan-out
// (EXPERIMENTS.md records 2.8x), and the deferred replicas do land.
func TestE13AsyncIngestBeatsSyncFanout(t *testing.T) {
	tb := byID(t, "e13")
	speedupFloor(t, tb, "speedup_vs_sync", 1.5)
	if drain := parse(t, tb.Rows[1][col(t, tb, "drain_ms")]); drain <= 0 {
		t.Errorf("async:1 drained in %v ms: the repair engine had nothing to fan out", drain)
	}
}

func TestAllAndByID(t *testing.T) {
	// Light smoke: every experiment produces a non-empty formatted table
	// and is reachable by id. E11-E13 are run by id in their shape tests.
	ids := []string{"e1", "e1a", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}
	if got, want := IDs(), append(ids[:len(ids):len(ids)], "e11", "e12", "e13"); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	for _, id := range ids {
		tb, ok := ByID(id, 1)
		if !ok {
			t.Fatalf("ByID(%q) missing", id)
		}
		out := tb.Format()
		if !strings.Contains(out, tb.ID) || len(tb.Rows) == 0 {
			t.Errorf("experiment %s: empty or unformatted table", id)
		}
	}
	if _, ok := ByID("e99", 1); ok {
		t.Error("unknown id should report false")
	}
}
