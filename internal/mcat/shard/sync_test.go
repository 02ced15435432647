package shard

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// followerOf builds a follower router wired to pull straight from the
// leader in process — the transport the daemon provides over the wire,
// collapsed for determinism.
func followerOf(t *testing.T, leader *Router) *Router {
	t.Helper()
	f := NewRouter(leader.N(), "admin", "local")
	f.EnableMemoryJournals()
	for i := 0; i < f.N(); i++ {
		f.SetFollower(i, "leader")
	}
	f.SetPuller(func(peer string, idx int, after uint64) (PullResult, error) {
		return leader.Pull(idx, after)
	}, DefaultPromoteAfter)
	return f
}

func TestReplicationConverges(t *testing.T) {
	leader := newTestRouter(t, 2)
	seedGrid(t, leader)
	f := followerOf(t, leader)

	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if got, want := f.SubtreeObjects("/"), leader.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower objects %v != leader %v", got, want)
	}
	// Incremental: new leader mutations flow on the next pull.
	if err := leader.MkColl("/projects/p1/incr", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce (incremental): %v", err)
	}
	if !f.CollExists("/projects/p1/incr") {
		t.Error("incremental mutation did not replicate")
	}
	// Caught-up shards are not stale and queries are complete.
	_, partial, err := f.QueryPartial(testQuery("e0"))
	if err != nil || len(partial) != 0 {
		t.Errorf("caught-up follower query: partial=%v err=%v", partial, err)
	}
}

func testQuery(val string) mcat.Query {
	return mcat.Query{
		Scope: "/",
		Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: val}},
	}
}

func TestSnapshotCatchUpWhenLogTrimmed(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	// Blow past the replication log's retention so a fresh follower
	// cannot be served entries from seq 0.
	for i := 0; i < DefaultRepLogCap+50; i++ {
		if err := leader.AddMeta("/home/alice/deep/f0.dat", types.MetaUser,
			types.AVU{Name: fmt.Sprintf("churn%d", i), Value: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := leader.Pull(0, 0)
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	if res.Snapshot == nil {
		t.Fatal("expected a snapshot when the log no longer covers seq 0")
	}

	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce via snapshot: %v", err)
	}
	if got, want := f.SubtreeObjects("/"), leader.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot catch-up diverged: %v != %v", got, want)
	}
	// After the snapshot the follower rides the entry stream again.
	if err := leader.MkColl("/home/after", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if !f.CollExists("/home/after") {
		t.Error("post-snapshot entry did not replicate")
	}
}

// Pull failures mark the shard stale (partial queries) and, after the
// threshold, promote the follower to leader so it accepts writes.
func TestPromotionAfterRepeatedPullFailures(t *testing.T) {
	f := NewRouter(1, "admin", "local")
	f.EnableMemoryJournals()
	f.SetFollower(0, "dead-leader")
	f.SetPuller(func(peer string, idx int, after uint64) (PullResult, error) {
		return PullResult{}, errors.New("connection refused")
	}, 3)

	for i := 0; i < 2; i++ {
		if err := f.SyncOnce(); err == nil {
			t.Fatal("SyncOnce should surface pull errors")
		}
		if role, _ := f.Role(0); role != Follower {
			t.Fatalf("promoted after only %d failures", i+1)
		}
	}
	// Stale shard rejects writes and reports partial reads meanwhile.
	if err := f.MkColl("/x", "admin"); !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("stale follower write err = %v", err)
	}
	if err := f.SyncOnce(); err == nil {
		t.Fatal("third SyncOnce should still error")
	}
	if role, _ := f.Role(0); role != Leader {
		t.Fatal("not promoted after reaching the failure threshold")
	}
	if err := f.MkColl("/x", "admin"); err != nil {
		t.Fatalf("promoted shard write: %v", err)
	}
}

// brokenDisk is a journal writer that fails every write.
type brokenDisk struct{}

func (brokenDisk) Write([]byte) (int, error) { return 0, errors.New("input/output error") }

// A follower whose own journal stops taking appends latches like a
// leader does: the failed appends are counted, later pulls are not
// applied (memory stops running ahead of its journal), and the refusal
// does not count towards promotion.
func TestFollowerJournalFailureStopsApplying(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	f := NewRouter(1, "admin", "local")
	reg := obs.NewRegistry()
	f.SetMetrics(reg)
	f.AttachJournal(0, mcat.NewJournal(brokenDisk{}))
	f.SetFollower(0, "leader")
	f.SetPuller(func(peer string, idx int, after uint64) (PullResult, error) {
		return leader.Pull(idx, after)
	}, 1)

	// The batch in flight when the journal fails is applied whole.
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if !f.CollExists("/projects/p1") {
		t.Fatal("first batch did not apply")
	}
	if f.JournalErr() == nil || reg.Counter("mcat.journal.append.errors").Value() == 0 {
		t.Fatalf("JournalErr = %v, append.errors = %d: follower-side append failures not latched",
			f.JournalErr(), reg.Counter("mcat.journal.append.errors").Value())
	}

	if err := leader.MkColl("/projects/p1/later", "admin"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.SyncOnce(); !errors.Is(err, types.ErrReadOnly) {
			t.Fatalf("SyncOnce after the latch: err = %v, want ErrReadOnly", err)
		}
	}
	if f.CollExists("/projects/p1/later") {
		t.Error("follower applied a pulled entry after its journal latched")
	}
	if role, _ := f.Role(0); role != Follower {
		t.Error("a latched journal promoted the follower")
	}
}

func TestRepLogTrimAndSince(t *testing.T) {
	rl := NewRepLog(4)
	for i := 1; i <= 6; i++ {
		rl.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	if rl.Head() != 6 {
		t.Fatalf("Head = %d, want 6", rl.Head())
	}
	// Entries 1-2 trimmed: a reader at 0 or 1 needs a snapshot.
	if _, ok := rl.Since(0); ok {
		t.Error("Since(0) should demand a snapshot after trim")
	}
	if _, ok := rl.Since(1); ok {
		t.Error("Since(1) should demand a snapshot after trim")
	}
	got, ok := rl.Since(3)
	if !ok || len(got) != 3 || string(got[0]) != "e4" {
		t.Errorf("Since(3) = %q ok=%v", got, ok)
	}
	// Fully caught up.
	got, ok = rl.Since(6)
	if !ok || len(got) != 0 {
		t.Errorf("Since(6) = %q ok=%v", got, ok)
	}
	// The ring keeps overwriting in place: after several laps the window
	// is still the newest four lines, in sequence order.
	for i := 7; i <= 19; i++ {
		rl.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	got, ok = rl.Since(15)
	if !ok || len(got) != 4 || string(got[0]) != "e16" || string(got[3]) != "e19" {
		t.Errorf("Since(15) after laps = %q ok=%v", got, ok)
	}
	if _, ok := rl.Since(14); ok {
		t.Error("Since(14) should demand a snapshot: e15 was overwritten")
	}
}

// A log with a boot-unique base numbers its first line base+1 and keeps
// the ring arithmetic independent of that offset.
func TestRepLogBaseThenWrap(t *testing.T) {
	rl := NewRepLog(3)
	rl.SetBase(1000)
	for i := 1; i <= 5; i++ {
		rl.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	if rl.Head() != 1005 {
		t.Fatalf("Head = %d, want 1005", rl.Head())
	}
	got, ok := rl.Since(1002)
	if !ok || len(got) != 3 || string(got[0]) != "e3" || string(got[2]) != "e5" {
		t.Errorf("Since(1002) = %q ok=%v", got, ok)
	}
	if _, ok := rl.Since(1001); ok {
		t.Error("Since(1001) should demand a snapshot")
	}
}

// A promoted follower can serve pulls itself: its replayed journal fed
// its own replication log.
func TestPromotedFollowerServesPulls(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	f.Promote(0)
	res, err := f.Pull(0, 0)
	if err != nil {
		t.Fatalf("promoted Pull: %v", err)
	}
	if len(res.Entries) == 0 && res.Snapshot == nil {
		t.Error("promoted follower served an empty stream")
	}
	// A second-generation follower converges off the promoted one.
	g := followerOf(t, f)
	if err := g.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.SubtreeObjects("/"), leader.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("second-generation follower diverged: %v != %v", got, want)
	}
}
