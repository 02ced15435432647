package obs

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestTableRecordAllocs pins what Record costs the heap in each keyed
// table — usage's Record runs on every dispatched request: nothing for a
// key the table holds, one row for a new key, and for a full table
// whatever its rule does with the newcomer (usage folds it into the
// user's "(other)" row, peers drop it, heat hands it the coldest row).
// Every full-table rule allocates nothing: heat's eviction made a new
// row, one allocation, until it reused the victim's.
func TestTableRecordAllocs(t *testing.T) {
	const runs = 50
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "/k/" + strconv.Itoa(i)
	}
	next := 0
	key := func() string { next++; return keys[next] }
	check := func(name string, want float64, record func()) {
		t.Helper()
		if got := testing.AllocsPerRun(runs, record); got != want {
			t.Errorf("%s: %v allocs per Record, want %v", name, got, want)
		}
	}
	const d = time.Millisecond
	reg := NewRegistry()

	u := reg.Usage()
	u.Record("alice", "/home", "t", "get", false, 1, 1, d)
	check("usage, held key", 0, func() { u.Record("alice", "/home", "t", "get", false, 1, 1, d) })
	check("usage, new key", 1, func() { u.Record("alice", key(), "t", "get", false, 1, 1, d) })
	for n := len(u.Snapshot()); n < maxUsageKeys; n++ {
		u.Record("bob", key(), "t", "get", false, 1, 1, d)
	}
	u.Record("alice", key(), "t", "get", false, 1, 1, d) // makes alice's (other) row
	check("usage, full table", 0, func() { u.Record("alice", key(), "t", "get", false, 1, 1, d) })

	p := reg.Peers()
	p.Record("srb2", "", d, 1, false)
	check("peers, held key", 0, func() { p.Record("srb2", "", d, 1, false) })
	check("peers, new key", 1, func() { p.Record("", key(), d, 1, false) })
	for n := len(p.Snapshot()); n < maxPeerRows; n++ {
		p.Record("", key(), d, 1, false)
	}
	check("peers, full table", 0, func() { p.Record("", key(), d, 1, false) })

	h := reg.HeatKeys()
	h.Record("/zone/hot", 1)
	check("heat, held key", 0, func() { h.Record("/zone/hot", 1) })
	check("heat, new key", 1, func() { h.Record(key(), 1) })
	for n := len(h.Snapshot()); n < DefaultHeatK; n++ {
		h.Record(key(), 1)
	}
	check("heat, full table", 0, func() { h.Record(key(), 1) })
}

// TestPeerObservatory covers the rules a replica selector reads a peer
// row by: the first observation seeds each moving average and later ones
// move it by ewmaAlpha, only transport failures count against
// SuccessPct, latencies fold into Buckets, and a full table drops a new
// key while its rows keep recording.
func TestPeerObservatory(t *testing.T) {
	p := NewPeerHistory()
	p.Record("srb2", "", 10*time.Millisecond, 0, false) // a control round trip
	p.Record("srb2", "", 20*time.Millisecond, 1<<20, false)
	p.Record("srb2", "", 30*time.Millisecond, 1<<20, true)
	p.Record("", "disk1", time.Millisecond, 4096, false)

	rows := p.Snapshot()
	if len(rows) != 2 || rows[0].Peer != "srb2" || rows[1].Resource != "disk1" {
		t.Fatalf("rows = %+v, want srb2 then disk1", rows)
	}
	srb2 := rows[0]
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	lat := 10000.0 // seeded by the first observation
	lat += ewmaAlpha * (20000 - lat)
	lat += ewmaAlpha * (30000 - lat)
	near("EWMALatMicros", srb2.EWMALatMicros, lat)
	bps := float64(1<<20) / 0.020 // seeded by the first call that moved bytes
	bps += ewmaAlpha * (float64(1<<20)/0.030 - bps)
	near("EWMABytesPerSec", srb2.EWMABytesPerSec, bps)
	if srb2.Ops != 3 || srb2.Errors != 1 || srb2.Bytes != 2<<20 {
		t.Errorf("srb2 = %+v, want 3 ops, 1 error, 2 MiB", srb2)
	}
	near("SuccessPct", srb2.SuccessPct, 100*2.0/3)
	want := []BucketCount{{UpperMicros: 16384, Count: 1}, {UpperMicros: 32768, Count: 2}}
	if !reflect.DeepEqual(srb2.Buckets, want) {
		t.Errorf("Buckets = %+v, want %+v", srb2.Buckets, want)
	}

	for i := len(rows); i < maxPeerRows; i++ {
		p.Record("srb-"+strconv.Itoa(i), "", time.Millisecond, 0, false)
	}
	p.Record("srb-dropped", "", time.Millisecond, 0, false)
	p.Record("srb2", "", time.Millisecond, 0, false)
	rows = p.Snapshot()
	if len(rows) != maxPeerRows {
		t.Fatalf("%d rows, want the bound %d", len(rows), maxPeerRows)
	}
	for _, r := range rows {
		switch r.Peer {
		case "srb-dropped":
			t.Errorf("the key past the bound was kept: %+v", r)
		case "srb2":
			if r.Ops != 4 {
				t.Errorf("a full table stopped recording srb2: %+v", r)
			}
		}
	}
}

// TestTableSnapshotRestore holds that each keyed table, restored from
// its own Snapshot, snapshots the same rows.
func TestTableSnapshotRestore(t *testing.T) {
	reg := NewRegistry()
	reg.Usage().Record("alice", "/home/alice", "t1", "get", false, 0, 4096, time.Millisecond)
	reg.Usage().Record("alice", "", "t2", "stat", true, 0, 0, time.Microsecond)
	reg.Usage().Record("bob", "/data", "t3", "ingest", false, 1<<20, 0, 3*time.Millisecond)
	reg.Peers().Record("srb2", "", 3*time.Millisecond, 1<<20, false)
	reg.Peers().Record("srb2", "", 40*time.Millisecond, 0, true)
	reg.Peers().Record("", "disk1", 200*time.Microsecond, 4096, false)
	for i := 0; i < 2*DefaultHeatK; i++ {
		reg.HeatKeys().Record("/zone/p"+strconv.Itoa(i%(DefaultHeatK+8)), int64(i))
	}
	reg.HeatObjects().Record("/zone/p1/obj.dat", 128)
	reg.HeatObjects().Decay(0.5)

	restored := NewRegistry()
	for _, c := range []struct {
		name      string
		roundTrip func() (before, after any)
	}{
		{"usage", func() (any, any) {
			s := reg.Usage().Snapshot()
			restored.Usage().Restore(s)
			return s, restored.Usage().Snapshot()
		}},
		{"peers", func() (any, any) {
			s := reg.Peers().Snapshot()
			restored.Peers().Restore(s)
			return s, restored.Peers().Snapshot()
		}},
		{"heat keys", func() (any, any) {
			s := reg.HeatKeys().Snapshot()
			restored.HeatKeys().Restore(s)
			return s, restored.HeatKeys().Snapshot()
		}},
		{"heat objects", func() (any, any) {
			s := reg.HeatObjects().Snapshot()
			restored.HeatObjects().Restore(s)
			return s, restored.HeatObjects().Snapshot()
		}},
	} {
		before, after := c.roundTrip()
		if reflect.ValueOf(before).Len() == 0 {
			t.Errorf("%s: nothing to round-trip", c.name)
		}
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: Snapshot → Restore → Snapshot changed the rows:\n%+v\n%+v", c.name, before, after)
		}
	}
}
