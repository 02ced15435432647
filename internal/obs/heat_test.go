package obs

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHeatZipfRecall drives a seeded Zipfian stream through a small
// table and checks the space-saving guarantee in practice: the true
// heavy hitters all survive in the top of the snapshot.
func TestHeatZipfRecall(t *testing.T) {
	src := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(src, 1.3, 1, 1024)
	keys := make([]string, 1024+1)
	for i := range keys {
		keys[i] = "/zone/project-" + string(rune('a'+i%26)) + "-" + strings.Repeat("x", i%7)
	}
	// Disambiguate: build distinct names.
	for i := range keys {
		keys[i] = keys[i] + "-" + itoa(i)
	}
	tab := NewHeatTable(64)
	truth := make(map[string]int64)
	for i := 0; i < 200_000; i++ {
		k := keys[zipf.Uint64()]
		truth[k]++
		tab.Record(k, 0)
	}
	// The ten most frequent keys of the true distribution must all be
	// tracked, and the single hottest must rank first.
	type kv struct {
		k string
		n int64
	}
	var top []kv
	for k, n := range truth {
		top = append(top, kv{k, n})
	}
	for i := 0; i < 10; i++ {
		best := i
		for j := i + 1; j < len(top); j++ {
			if top[j].n > top[best].n {
				best = j
			}
		}
		top[i], top[best] = top[best], top[i]
	}
	snap := tab.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot rows = %d, want 64 (table full)", len(snap))
	}
	tracked := make(map[string]HeatStat, len(snap))
	for _, row := range snap {
		tracked[row.Key] = row
	}
	for i := 0; i < 10; i++ {
		row, ok := tracked[top[i].k]
		if !ok {
			t.Fatalf("true top-%d key %q (freq %d) missing from sketch", i+1, top[i].k, top[i].n)
		}
		// Space-saving overestimates: score >= true count, and the
		// error is bounded by the inherited floor.
		if row.Score+0.5 < float64(top[i].n) {
			t.Errorf("key %q score %.0f underestimates true count %d", top[i].k, row.Score, top[i].n)
		}
		if row.Score-row.ErrFloor > float64(top[i].n) {
			t.Errorf("key %q score-floor %.0f exceeds true count %d", top[i].k, row.Score-row.ErrFloor, top[i].n)
		}
	}
	if snap[0].Key != top[0].k {
		t.Errorf("hottest tracked = %q, want true hottest %q", snap[0].Key, top[0].k)
	}
	// A row that displaced another inherited its score as the floor.
	evicted := false
	for _, row := range snap {
		evicted = evicted || row.ErrFloor > 0
	}
	if !evicted {
		t.Error("a 1025-key stream through 64 slots should evict")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestHeatDecayForgetsColdKeys checks the windowed-decay behaviour: a
// burst that stops decays out of the ranking (and eventually out of the
// table) while sustained traffic stays on top.
func TestHeatDecayForgetsColdKeys(t *testing.T) {
	tab := NewHeatTable(8)
	for i := 0; i < 100; i++ {
		tab.Record("/old/burst", 0)
	}
	for i := 0; i < 10; i++ {
		tab.Record("/now/steady", 0)
	}
	if snap := tab.Snapshot(); snap[0].Key != "/old/burst" {
		t.Fatalf("pre-decay hottest = %q, want /old/burst", snap[0].Key)
	}
	// Decay halvings with fresh traffic only on the steady key.
	for tick := 0; tick < 6; tick++ {
		tab.Decay(0.5)
		for i := 0; i < 10; i++ {
			tab.Record("/now/steady", 0)
		}
	}
	snap := tab.Snapshot()
	if snap[0].Key != "/now/steady" {
		t.Fatalf("post-decay hottest = %q, want /now/steady (got %+v)", snap[0].Key, snap)
	}
	// Keep decaying with no traffic at all: every row falls below the
	// retention floor and the table frees its slots.
	for tick := 0; tick < 12; tick++ {
		tab.Decay(0.5)
	}
	if snap := tab.Snapshot(); len(snap) != 0 {
		t.Fatalf("fully-decayed table still holds %d rows: %+v", len(snap), snap)
	}
	// Counts are monotonic: decay must not rewind the rollup fold.
	tab.Record("/now/steady", 0)
	dst := map[string]int64{}
	tab.foldCounters(dst, "heat.key.")
	if dst["heat.key./now/steady"] != 1 {
		t.Fatalf("fold after decay = %v", dst)
	}
}

// TestHeatConcurrentWriters hammers one table from many goroutines while
// snapshots, folds and decays run — the race detector is the assertion.
func TestHeatConcurrentWriters(t *testing.T) {
	tab := NewHeatTable(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"/a/1", "/b/2", "/c/3", "/d/4", "/e/5"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tab.Record(keys[(i+w)%len(keys)], int64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		_ = tab.Snapshot()
		tab.foldCounters(map[string]int64{}, "heat.key.")
		if i%10 == 9 {
			tab.Decay(0.9)
		}
	}
	close(stop)
	wg.Wait()
	for _, row := range tab.Snapshot() {
		if row.Count <= 0 {
			t.Fatalf("torn row: %+v", row)
		}
	}
}

// TestHeatNilSafety: a nil table (instrumentation off) must be inert.
func TestHeatNilSafety(t *testing.T) {
	var tab *HeatTable
	tab.Record("/a/b", 1)
	tab.Decay(0.5)
	tab.Restore([]HeatStat{{Key: "/x/y"}})
	if tab.Snapshot() != nil {
		t.Fatal("nil table should report nothing")
	}
	var reg *Registry
	if reg.HeatKeys() != nil || reg.HeatObjects() != nil {
		t.Fatal("nil registry should hand out nil tables")
	}
}

// TestHeatRidesRollupWindow: heat counts folded at capture time must
// appear in Window deltas exactly like ordinary counters.
func TestHeatRidesRollupWindow(t *testing.T) {
	reg := NewRegistry()
	now := time.Now()
	reg.CaptureRollup(now.Add(-time.Minute))
	for i := 0; i < 7; i++ {
		reg.HeatKeys().Record("/zone/hot", 0)
	}
	reg.HeatObjects().Record("/zone/hot/obj.dat", 128)
	ws := reg.WindowAt(now, time.Minute)
	if got := ws.Counters["heat.key./zone/hot"].Delta; got != 7 {
		t.Fatalf("window heat.key delta = %d, want 7 (counters: %v)", got, ws.Counters)
	}
	if got := ws.Counters["heat.object./zone/hot/obj.dat"].Delta; got != 1 {
		t.Fatalf("window heat.object delta = %d, want 1", got)
	}
	// A second window over a fresh baseline sees only the new traffic.
	reg.CaptureRollup(now)
	for i := 0; i < 3; i++ {
		reg.HeatKeys().Record("/zone/hot", 0)
	}
	ws = reg.WindowAt(now.Add(time.Minute), time.Minute)
	if got := ws.Counters["heat.key./zone/hot"].Delta; got != 3 {
		t.Fatalf("rebaselined delta = %d, want 3", got)
	}
	// And the plain snapshot exposes the folded counters too.
	if got := reg.Snapshot().Counters["heat.key./zone/hot"]; got != 10 {
		t.Fatalf("snapshot heat counter = %d, want 10", got)
	}
}

// TestHeatPersistRoundTrip: heat tables flush to the telemetry journal
// and restore across a restart; the restored counters must not seed the
// registry as ordinary counters.
func TestHeatPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	ts, err := OpenTelemetryStore(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		reg.HeatKeys().Record("/zone/persist", 64)
	}
	reg.HeatObjects().Record("/zone/persist/o.dat", 256)
	if err := ts.Flush(reg, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Close without compacting: the journal replay path must restore.
	if err := ts.Close(nil, nil, time.Now()); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	ts2, err := OpenTelemetryStore(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close(nil, nil, time.Now())
	if _, err := ts2.Restore(reg2); err != nil {
		t.Fatal(err)
	}
	snap := reg2.HeatKeys().Snapshot()
	if len(snap) != 1 || snap[0].Key != "/zone/persist" || snap[0].Count != 5 {
		t.Fatalf("restored keys = %+v, want /zone/persist count=5", snap)
	}
	if objs := reg2.HeatObjects().Snapshot(); len(objs) != 1 || objs[0].Bytes != 256 {
		t.Fatalf("restored objects = %+v", objs)
	}
	// The fold must come from the live table, not a seeded counter: a
	// fresh observation moves the folded value to count+1, not 2*count+1.
	reg2.HeatKeys().Record("/zone/persist", 0)
	if got := reg2.Snapshot().Counters["heat.key./zone/persist"]; got != 6 {
		t.Fatalf("post-restore fold = %d, want 6 (heat counters must not double-seed)", got)
	}
}

// TestHeatJournalSkipsSeed double-checks the seed guard at the journal
// level: a telemetry journal holding heat counters in a rollup must not
// inject them into the restored registry's counter set.
func TestHeatJournalSkipsSeed(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	ts, err := OpenTelemetryStore(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg.HeatKeys().Record("/zone/a", 0)
	reg.Counter("plain.counter").Add(9)
	reg.CaptureRollup(time.Now())
	if err := ts.Flush(reg, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	ts.Close(nil, nil, time.Now())

	reg2 := NewRegistry()
	ts2, err := OpenTelemetryStore(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close(nil, nil, time.Now())
	if _, err := ts2.Restore(reg2); err != nil {
		t.Fatal(err)
	}
	// plain counters seed; heat counters must not (the table restore
	// carries them instead).
	if got := reg2.Counter("plain.counter").Value(); got != 9 {
		t.Fatalf("plain counter seed = %d, want 9", got)
	}
	snap := reg2.Snapshot()
	if got := snap.Counters["heat.key./zone/a"]; got != 1 {
		t.Fatalf("restored heat fold = %d, want exactly 1 (no counter seed on top of table restore)", got)
	}
	// Journal file really contains the heat rows (not just in-memory).
	data, err := os.ReadFile(filepath.Join(dir, "telemetry.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "/zone/a") {
		t.Fatal("journal should record the heat row")
	}
}

// TestSLOReplagRule: grammar, fire and resolve for the replication-lag
// metric reading the mcat.shard.*.replag_seconds gauges.
func TestSLOReplagRule(t *testing.T) {
	rules, err := ParseSLORules("replag_seconds < 30s over 5m")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Metric != SLOReplag || rules[0].Threshold != 30 || rules[0].Target != "*" {
		t.Fatalf("parsed rule = %+v, want replag_seconds threshold 30 target *", rules[0])
	}
	if _, err := ParseSLORules("replag_seconds < bogus over 5m"); err == nil {
		t.Fatal("bogus threshold should be rejected")
	}

	reg := NewRegistry()
	now := time.Now()
	reg.CaptureRollup(now.Add(-5 * time.Minute))
	ev := NewSLOEvaluator(reg, rules)

	// No gauges yet: the rule has nothing to observe and stays quiet.
	if st := ev.Evaluate(now); st[0].Violating {
		t.Fatalf("no-gauge eval = %+v, want quiet", st[0])
	}

	// Healthy lag on two shards.
	reg.Gauge("mcat.shard.0.replag_seconds").Set(1)
	reg.Gauge("mcat.shard.1.replag_seconds").Set(2)
	if st := ev.Evaluate(now); st[0].Violating {
		t.Fatalf("healthy lag eval = %+v, want ok", st[0])
	}

	// Shard 1 falls behind: worst-of semantics must trip the rule.
	reg.Gauge("mcat.shard.1.replag_seconds").Set(90)
	st := ev.Evaluate(now.Add(time.Second))
	if !st[0].Violating {
		t.Fatalf("lagging eval = %+v, want violating", st[0])
	}
	alerts := ev.AlertLog().Recent(0)
	if len(alerts) != 1 || !alerts[0].Firing {
		t.Fatalf("alerts = %+v, want one FIRED", alerts)
	}

	// The follower catches up: the rule resolves.
	reg.Gauge("mcat.shard.1.replag_seconds").Set(0)
	if st := ev.Evaluate(now.Add(2 * time.Second)); st[0].Violating {
		t.Fatalf("caught-up eval = %+v, want resolved", st[0])
	}
	alerts = ev.AlertLog().Recent(0)
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want FIRED then RESOLVED", alerts)
	}

	// An explicit target reads one shard's gauge, suffix optional.
	rules2, err := ParseSLORules("mcat.shard.0 replag_seconds < 30s over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev2 := NewSLOEvaluator(reg, rules2)
	reg.Gauge("mcat.shard.0.replag_seconds").Set(45)
	if st := ev2.Evaluate(now); !st[0].Violating {
		t.Fatalf("explicit-target eval = %+v, want violating", st[0])
	}
}
