package shard

import (
	"testing"
	"time"

	"gosrb/internal/obs"
)

// TestReplagGauges walks the lag gauges through a replication lifecycle:
// quiet before any pull, zero when caught up, climbing while the leader
// runs ahead or the follower stops syncing, and reset across a follower
// restart.
func TestReplagGauges(t *testing.T) {
	leader := newTestRouter(t, 1)
	lreg := obs.NewRegistry()
	leader.SetMetrics(lreg)
	seedGrid(t, leader)

	// A leader no follower ever pulled stays quiet: single-server
	// deployments must not report phantom lag.
	leader.RefreshReplag(time.Now())
	if v := lreg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("never-pulled leader lag = %d, want 0", v)
	}

	f := followerOf(t, leader)
	freg := obs.NewRegistry()
	f.SetMetrics(freg)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	// Caught up: the follower reads zero immediately; the leader learns
	// the ack from the follower's next pull (the ack rides the pull
	// request), so a second no-op sync clears the leader side too.
	if v := freg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("caught-up follower entries lag = %d, want 0", v)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	leader.RefreshReplag(time.Now())
	if v := lreg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("acked leader entries lag = %d, want 0", v)
	}

	// The leader runs ahead: its gauge counts unacked journal entries.
	for _, coll := range []string{"/home/l1", "/home/l2", "/home/l3"} {
		if err := leader.MkColl(coll, "admin"); err != nil {
			t.Fatal(err)
		}
	}
	leader.RefreshReplag(time.Now())
	if v := lreg.Gauge("mcat.shard.0.replag_entries").Value(); v != 3 {
		t.Fatalf("leader entries lag = %d, want 3", v)
	}
	// The follower has not pulled since, so its seconds gauge climbs
	// with the clock even though no pull is happening.
	f.RefreshReplag(time.Now().Add(42 * time.Second))
	if v := freg.Gauge("mcat.shard.0.replag_seconds").Value(); v < 41 {
		t.Fatalf("idle follower seconds lag = %d, want >= 41", v)
	}

	// One sync clears the follower; the ack-carrying second pull clears
	// the leader.
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if v := freg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("post-sync follower entries lag = %d, want 0", v)
	}
	if v := freg.Gauge("mcat.shard.0.replag_seconds").Value(); v != 0 {
		t.Fatalf("post-sync follower seconds lag = %d, want 0", v)
	}
	leader.RefreshReplag(time.Now())
	if v := lreg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("post-sync leader entries lag = %d, want 0", v)
	}

	// The statuses surface carries the same numbers.
	sts := leader.Statuses()
	if sts[0].ReplagEntries != 0 {
		t.Fatalf("status replag = %+v, want 0", sts[0])
	}

	// Follower restart: SetFollower resets the sync bookkeeping, so the
	// stale pre-restart lag cannot leak into the fresh gauges, and the
	// first sync rebuilds correct values.
	f.RefreshReplag(time.Now().Add(time.Hour)) // gauge now huge
	f.SetFollower(0, "leader")
	if v := freg.Gauge("mcat.shard.0.replag_seconds").Value(); v != 0 {
		t.Fatalf("restarted follower seconds lag = %d, want 0 until first sync", v)
	}
	if err := leader.MkColl("/home/after-restart", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if v := freg.Gauge("mcat.shard.0.replag_entries").Value(); v != 0 {
		t.Fatalf("resynced follower entries lag = %d, want 0", v)
	}
	if !f.CollExists("/home/after-restart") {
		t.Fatal("restarted follower did not converge")
	}
}

// TestReplogFallbackCounter: a pull from below the replication log's
// retained tail serves a snapshot and counts the fallback.
func TestReplogFallbackCounter(t *testing.T) {
	leader := newTestRouter(t, 1)
	reg := obs.NewRegistry()
	leader.SetMetrics(reg)
	leader.SetRepLogBase(100) // sequences 1..100 predate the retained log
	seedGrid(t, leader)

	res, err := leader.Pull(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil {
		t.Fatal("pull below the log tail should serve a snapshot")
	}
	if v := reg.Counter("mcat.shard.replog.fallback").Value(); v != 1 {
		t.Fatalf("fallback counter = %d, want 1", v)
	}
	// From the snapshot's sequence the entry stream works again and the
	// counter stays put.
	if _, err := leader.Pull(0, res.Seq); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("mcat.shard.replog.fallback").Value(); v != 1 {
		t.Fatalf("fallback counter after caught-up pull = %d, want still 1", v)
	}
}

// TestHeatJoinDegenerate: nothing to join is imbalance 0, one shard is
// always even, and rows that are not routing prefixes join no shard.
func TestHeatJoinDegenerate(t *testing.T) {
	one := newTestRouter(t, 1)
	shards, imb := one.HeatJoin([]obs.HeatStat{{Key: "/home/alice", Score: 100}})
	if len(shards) != 1 || shards[0].HotKeys != 1 || imb != 1 {
		t.Fatalf("single shard join = %+v imbalance %.2f, want one row, 1.00", shards, imb)
	}

	r := newTestRouter(t, 4)
	seedGrid(t, r)
	shards, imb = r.HeatJoin(nil)
	if imb != 0 || len(shards) != 4 {
		t.Fatalf("no-heat join = %+v imbalance %.2f, want 4 rows, 0", shards, imb)
	}
	objects := 0
	for _, sh := range shards {
		objects += sh.Objects
	}
	if objects != 6 {
		t.Errorf("join counts %d catalog objects over the shards, want the 6 seeded", objects)
	}
	// Spine rows and non-prefix rows (full object paths) never join.
	shards, imb = r.HeatJoin([]obs.HeatStat{
		{Key: "/", Score: 500},
		{Key: "/home", Score: 500},
		{Key: "/home/alice/deep/f0.dat", Score: 500},
	})
	for _, sh := range shards {
		if sh.HotKeys != 0 || imb != 0 {
			t.Fatalf("unroutable rows joined: %+v imbalance %.2f", shards, imb)
		}
	}
}

// TestHeatJoinSkewed: two hot prefixes homed on one of four shards and a
// little background heat elsewhere. The join puts the heat on the shard
// that owns it, the imbalance is that shard's heat over the mean, and the
// gauge carries it in percent.
func TestHeatJoinSkewed(t *testing.T) {
	r := newTestRouter(t, 4)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	seedGrid(t, r)

	// Find two prefixes homed on the same shard to manufacture skew, and
	// one elsewhere for background heat.
	prefixes := []string{}
	for _, c := range "abcdefghijklmnop" {
		prefixes = append(prefixes, "/zone/proj-"+string(c))
	}
	home := r.Map().Shard(prefixes[0])
	same := []string{prefixes[0]}
	var other string
	for _, p := range prefixes[1:] {
		if r.Map().Shard(p) == home && len(same) < 2 {
			same = append(same, p)
		} else if r.Map().Shard(p) != home && other == "" {
			other = p
		}
	}
	if len(same) < 2 || other == "" {
		t.Fatalf("ring layout gave no co-homed pair among %v", prefixes)
	}

	shards, imb := r.HeatJoin([]obs.HeatStat{
		{Key: same[0], Score: 900, Bytes: 1 << 20},
		{Key: same[1], Score: 300},
		{Key: other, Score: 50},
	})
	if got := shards[home]; got.Shard != home || got.Score != 1200 || got.HotKeys != 2 {
		t.Errorf("hot shard row = %+v, want shard %d with score 1200 from 2 keys", got, home)
	}
	if got := shards[r.Map().Shard(other)]; got.Score != 50 || got.HotKeys != 1 {
		t.Errorf("background shard row = %+v, want score 50 from 1 key", got)
	}
	// 1200 on the hottest shard over a mean of 1250/4.
	if want := 1200 / (1250.0 / 4); imb != want {
		t.Errorf("imbalance = %.4f, want %.4f", imb, want)
	}
	if v := reg.Gauge("mcat.shard.heat_imbalance_pct").Value(); v != 384 {
		t.Errorf("heat_imbalance_pct gauge = %d, want 384", v)
	}
}
