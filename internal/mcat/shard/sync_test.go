package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
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

// journalForm is a shard's state as the journal lines that recreate
// it. The admin account is made by New on each side, so its creation
// time is left out.
func journalForm(t *testing.T, c *mcat.Catalog) []string {
	t.Helper()
	var out []string
	for _, e := range c.Export("/") {
		if e.Op == "adduser" && e.User.Name == "admin" {
			u := *e.User
			u.CreatedAt = time.Time{}
			e.User = &u
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
	return out
}

// A cross-shard MoveColl is deletes on the source shard and the entries
// that recreate the subtree on the destination; followers of both
// shards replay them to the leader's state.
func TestCrossShardMoveCollReplicates(t *testing.T) {
	leader := newTestRouter(t, 4)
	seedGrid(t, leader)
	src := "/home/alice/deep"
	for _, err := range []error{
		leader.MkColl(src+"/sub", "alice"),
		leader.SetACL(src, "bob", acl.Write),
		leader.SetStructural(src, types.StructuralAttr{Name: "origin", Mandatory: true}),
		leader.AddAnnotation(src+"/f0.dat", types.Annotation{Author: "bob", Text: "checked"}),
		leader.AttachFileMeta(src+"/f0.dat", src+"/f2.dat"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	var dst string
	for i := 0; i < 50 && dst == ""; i++ {
		if cand := fmt.Sprintf("/projects/sub%d", i); leader.homeIdx(cand) != leader.homeIdx(src) {
			dst = cand
		}
	}
	if err := leader.MoveColl(src, dst); err != nil {
		t.Fatalf("MoveColl: %v", err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{leader.homeIdx(src), leader.homeIdx(dst)} {
		if got, want := journalForm(t, f.Shard(i)), journalForm(t, leader.Shard(i)); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: follower\n%s\nleader\n%s", i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	if got := f.FileMeta(dst + "/f0.dat"); !reflect.DeepEqual(got, []string{dst + "/f2.dat"}) {
		t.Errorf("follower's moved attachment = %v", got)
	}
}

// A put is one replication entry on its home shard: the follower
// applies the object, its replicas and its metadata together, and every
// follower journal ends byte-identical to its leader's.
func TestFollowerAppliesPutWhole(t *testing.T) {
	leader, f := NewRouter(4, "admin", "local"), NewRouter(4, "admin", "local")
	var lj, fj [4]bytes.Buffer
	for i := 0; i < 4; i++ {
		leader.AttachJournal(i, mcat.NewJournal(&lj[i]))
		f.AttachJournal(i, mcat.NewJournal(&fj[i]))
		f.SetFollower(i, "leader")
	}
	f.SetPuller(func(peer string, idx int, after uint64) (PullResult, error) {
		return leader.Pull(idx, after)
	}, DefaultPromoteAfter)
	seedGrid(t, leader)

	const coll, name = "/home/alice/deep", "put.dat"
	path := coll + "/" + name
	home := leader.shards[leader.homeIdx(path)]
	head := home.rl.Head()
	id, err := leader.NewObjectID(path)
	if err != nil {
		t.Fatal(err)
	}
	o := &types.DataObject{ID: id, Collection: coll, Name: name, Owner: "alice", Size: 3, Checksum: "abc", Replicas: []types.Replica{
		{Number: 0, Resource: "r1", PhysicalPath: "/vault/a", Status: types.ReplicaClean, Size: 3, Checksum: "abc"},
		{Number: 1, Resource: "r1", PhysicalPath: "/vault/b", Status: types.ReplicaClean, Size: 3, Checksum: "abc"},
	}}
	meta := []types.AVU{{Name: "band", Value: "J"}, {Name: "experiment", Value: "put"}}
	if err := leader.Ingest(o, meta); err != nil {
		t.Fatal(err)
	}
	if n := home.rl.Head() - head; n != 1 {
		t.Fatalf("the put is %d replication entries, want 1", n)
	}

	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(fj[i].Bytes(), lj[i].Bytes()) {
			t.Errorf("shard %d: the follower's journal is not the leader's:\n%s\nleader:\n%s", i, fj[i].Bytes(), lj[i].Bytes())
		}
	}
	got, err := f.GetObject(path)
	if err != nil || got.ID != id || len(got.Replicas) != 2 || got.Size != 3 {
		t.Errorf("follower's object = %+v, %v", got, err)
	}
	if avus, err := f.GetMeta(path, types.MetaUser); err != nil || !reflect.DeepEqual(avus, meta) {
		t.Errorf("follower's metadata = %v, %v", avus, err)
	}
	if hits, err := f.RunQuery(mcat.Query{Scope: coll, Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "put"}}}); err != nil || len(hits) != 1 {
		t.Errorf("follower's indexed query = %v, %v", hits, err)
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

// failingDisk is a journal writer that fails every write once broken.
type failingDisk struct{ broken bool }

func (d *failingDisk) Write(p []byte) (int, error) {
	if d.broken {
		return 0, errors.New("input/output error")
	}
	return len(p), nil
}

// A follower whose own journal stops taking appends latches like a
// leader does: the pulled entry whose append fails is not applied, nor
// is anything pulled after it (memory never runs ahead of its journal),
// the failure is counted, and neither it nor the refusals after it count
// towards promotion.
func TestFollowerJournalFailureStopsApplying(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	f := NewRouter(1, "admin", "local")
	reg := obs.NewRegistry()
	f.SetMetrics(reg)
	disk := &failingDisk{}
	f.AttachJournal(0, mcat.NewJournal(disk))
	f.SetFollower(0, "leader")
	f.SetPuller(func(peer string, idx int, after uint64) (PullResult, error) {
		return leader.Pull(idx, after)
	}, 1)
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}

	disk.broken = true
	for _, p := range []string{"/projects/p1/later", "/projects/p1/later2"} {
		if err := leader.MkColl(p, "admin"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SyncOnce(); err == nil || !strings.Contains(err.Error(), "input/output error") {
		t.Fatalf("SyncOnce whose first append fails: err = %v, want the append's error", err)
	}
	if f.JournalErr() == nil || reg.Counter("mcat.journal.append.errors").Value() != 1 {
		t.Fatalf("JournalErr = %v, append.errors = %d: follower-side append failure not latched",
			f.JournalErr(), reg.Counter("mcat.journal.append.errors").Value())
	}
	for i := 0; i < 2; i++ {
		if err := f.SyncOnce(); !errors.Is(err, types.ErrReadOnly) {
			t.Fatalf("SyncOnce after the latch: err = %v, want ErrReadOnly", err)
		}
	}
	if f.CollExists("/projects/p1/later") || f.CollExists("/projects/p1/later2") {
		t.Error("follower applied a pulled entry its journal did not take")
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
