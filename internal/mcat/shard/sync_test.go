package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	f.SetPuller(pullFrom(leader), DefaultPromoteAfter)
	return f
}

// pullFrom is a puller that pulls from leader in process.
func pullFrom(leader *Router) PullFunc {
	return func(peer string, idx int, from Position) (PullResult, error) {
		return leader.Pull(idx, from)
	}
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

// attachJournalFiles gives every shard of r a journal file in dir,
// named prefix<i>, and returns the paths.
func attachJournalFiles(t *testing.T, r *Router, dir, prefix string) []string {
	t.Helper()
	var paths []string
	for i := 0; i < r.N(); i++ {
		path := filepath.Join(dir, fmt.Sprint(prefix, i))
		j, err := mcat.OpenJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		if _, err := r.Shard(i).Resume(j); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// journalBody returns a journal file's lines after its head.
func journalBody(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := bytes.Cut(b, []byte("\n"))
	return body
}

// A put is one replication entry on its home shard: the follower
// applies the object, its replicas and its metadata together, and every
// follower journal ends with the same lines as its leader's.
func TestFollowerAppliesPutWhole(t *testing.T) {
	leader, f := NewRouter(4, "admin", "local"), NewRouter(4, "admin", "local")
	dir := t.TempDir()
	lj, fj := attachJournalFiles(t, leader, dir, "leader"), attachJournalFiles(t, f, dir, "follower")
	for i := 0; i < 4; i++ {
		f.SetFollower(i, "leader")
	}
	f.SetPuller(pullFrom(leader), DefaultPromoteAfter)
	// The follower catches up before the leader writes, so it receives
	// every later line as an entry.
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	seedGrid(t, leader)

	const coll, name = "/home/alice/deep", "put.dat"
	path := coll + "/" + name
	home := leader.homeIdx(path)
	before := leader.Shard(home).JournalPos()
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
	if res, err := leader.Pull(home, before); err != nil || res.Snapshot != nil || len(res.Entries) != 1 {
		t.Fatalf("the put is %d replication entries (snapshot %v, %v), want 1", len(res.Entries), res.Snapshot != nil, err)
	}

	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got, want := journalBody(t, fj[i]), journalBody(t, lj[i]); !bytes.Equal(got, want) {
			t.Errorf("shard %d: the follower's journal lines are not the leader's:\n%s\nleader:\n%s", i, got, want)
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

// A compaction empties the leader's journal under a new generation: a
// follower positioned in the old one gets exactly one catch-up, then
// lines again.
func TestSnapshotCatchUpWhenLogTrimmed(t *testing.T) {
	leader := newTestRouter(t, 1)
	reg := obs.NewRegistry()
	leader.SetMetrics(reg)
	seedGrid(t, leader)
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	snaps := reg.Counter("mcat.shard.pull.snapshots")
	if v := snaps.Value(); v != 1 {
		t.Fatalf("the first pull: %d catch-ups, want 1", v)
	}
	if err := leader.AddMeta("/home/alice/deep/f0.dat", types.MetaUser, types.AVU{Name: "before", Value: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Shard(0).Compact(""); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddMeta("/home/alice/deep/f0.dat", types.MetaUser, types.AVU{Name: "after", Value: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce across the compaction: %v", err)
	}
	if v := snaps.Value(); v != 2 {
		t.Fatalf("a follower in the old generation: %d catch-ups in all, want 2", v)
	}
	if got, want := journalForm(t, f.Shard(0)), journalForm(t, leader.Shard(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("catch-up diverged:\n%s\nleader:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// After the catch-up the follower reads lines again.
	if err := leader.MkColl("/home/after", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if !f.CollExists("/home/after") || snaps.Value() != 2 {
		t.Errorf("post-catch-up line: replicated %v, %d catch-ups (want 2)", f.CollExists("/home/after"), snaps.Value())
	}
}

// Pull failures mark the shard stale (partial queries) and, after the
// threshold, promote the follower to leader so it accepts writes.
func TestPromotionAfterRepeatedPullFailures(t *testing.T) {
	f := NewRouter(1, "admin", "local")
	f.EnableMemoryJournals()
	f.SetFollower(0, "dead-leader")
	f.SetPuller(func(peer string, idx int, from Position) (PullResult, error) {
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
	f.SetPuller(pullFrom(leader), 1)
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

// A pull position comes off the wire. Every one that is not the start
// of a line of the leader's journal gets a catch-up, never a partial
// line; a torn fragment in the journal is passed over, counted, and
// stalls no follower.
func TestPullPositionFromTheWire(t *testing.T) {
	opt := testOpts(t.TempDir(), 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedGrid(t, st.Router())
	head := st.Router().Shard(0).JournalPos()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A kill tore the last append: half a line, no newline.
	jf, err := os.OpenFile(opt.JournalPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteString(`{"Op":"mkcoll","Coll":{"Path":"/torn`)
	jf.Close()
	if st, err = Open(opt); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := st.Router()
	reg := obs.NewRegistry()
	leader.SetMetrics(reg)
	if err := leader.MkColl("/home/later", "admin"); err != nil {
		t.Fatal(err)
	}
	first, err := leader.Pull(0, Position{})
	if err != nil {
		t.Fatal(err)
	}
	gen, end := first.Pos.Gen, first.Pos.Off
	if gen != head.Gen || end <= head.Off {
		t.Fatalf("catch-up at %+v, want generation %d past offset %d", first.Pos, head.Gen, head.Off)
	}

	snaps, skipped := reg.Counter("mcat.shard.pull.snapshots"), reg.Counter("mcat.shard.pull.skipped")
	for _, tc := range []struct {
		name string
		from Position
	}{
		{"generation 0", Position{Gen: 0, Off: head.Off}},
		{"another generation", Position{Gen: gen + 1, Off: head.Off}},
		{"offset past the end", Position{Gen: gen, Off: end + 1}},
		{"offset inside a line", Position{Gen: gen, Off: head.Off - 1}},
		{"offset inside the head", Position{Gen: gen, Off: 1}},
		{"negative offset", Position{Gen: gen, Off: -1}},
	} {
		was := snaps.Value()
		res, err := leader.Pull(0, tc.from)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Snapshot == nil || res.Entries != nil || res.Pos != first.Pos || snaps.Value() != was+1 {
			t.Errorf("%s: snapshot %v, %d entries, at %+v (want a catch-up at %+v)", tc.name, res.Snapshot != nil, len(res.Entries), res.Pos, first.Pos)
		}
	}

	// A follower positioned before the kill reads on past the fragment.
	res, err := leader.Pull(0, head)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || len(res.Entries) != 1 || res.Pos != first.Pos || skipped.Value() != 1 {
		t.Fatalf("pull across the torn line: snapshot %v, entries %q, at %+v, %d skipped; want the one later line to %+v, 1 skipped",
			res.Snapshot != nil, res.Entries, res.Pos, skipped.Value(), first.Pos)
	}
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	f.SetPuller(func(peer string, idx int, from Position) (PullResult, error) {
		return leader.Pull(idx, head)
	}, DefaultPromoteAfter)
	if err := f.SyncOnce(); err != nil || !f.CollExists("/home/later") || f.CollExists("/torn") {
		t.Errorf("follower across the torn line: %v; /home/later %v, /torn %v", err, f.CollExists("/home/later"), f.CollExists("/torn"))
	}
}

// Pulls racing appends and compactions: every catch-up is exact at the
// position it is sent with, and the lines pulled from there continue it
// with no gap, so the follower ends holding each triplet once.
func TestPullRacesAppend(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	f := followerOf(t, leader)
	const total = 400
	const path = "/home/alice/deep/f0.dat"
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < total && err == nil; i++ {
			err = leader.AddMeta(path, types.MetaUser, types.AVU{Name: "n", Value: fmt.Sprint(i)})
			if i%97 == 0 && err == nil {
				err = leader.Shard(0).Compact("")
			}
		}
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if err := f.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	avus, err := f.GetMeta(path, types.MetaUser)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, a := range avus {
		seen[a.Value]++
	}
	for i := 0; i < total; i++ {
		if n := seen[fmt.Sprint(i)]; n != 1 {
			t.Errorf("triplet %d is on the follower %d times, want once", i, n)
		}
	}
}

// A follower 10 000 lines behind a file-backed leader catches up from
// the journal, a bounded reply at a time, with no catch-up.
func TestFollowerCatchesUpFromJournal(t *testing.T) {
	st, err := Open(testOpts(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := st.Router()
	reg := obs.NewRegistry()
	leader.SetMetrics(reg)
	seedGrid(t, leader)
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	const behind = 10000
	for i := 0; i < behind; i++ {
		if err := leader.AddMeta("/projects/p1/f1.dat", types.MetaUser, types.AVU{Name: "n", Value: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if size := leader.Shard(0).JournalPos().Off; size <= maxPullBytes {
		t.Fatalf("%d lines are %d bytes, not past one reply's bound", behind, size)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("mcat.shard.pull.snapshots").Value(); v != 1 {
		t.Errorf("%d catch-ups served, want only the first pull's", v)
	}
	if got, want := reg.Counter("mcat.shard.pull.entries").Value(), int64(behind); got != want {
		t.Errorf("%d entries pulled, want %d", got, want)
	}
	if got, want := journalForm(t, f.Shard(0)), journalForm(t, leader.Shard(0)); !reflect.DeepEqual(got, want) {
		t.Error("the follower is not the leader after catching up from the journal")
	}
}

// A caught-up follower resumes where it was after its leader's store
// closes and reopens: the journal's generation and offsets outlive the
// process, so the leader serves it lines and no catch-up.
func TestFollowerResumesAcrossLeaderRestart(t *testing.T) {
	opt := testOpts(t.TempDir(), 2)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedGrid(t, st.Router())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Router().MkColl("/home/before", "admin"); err != nil {
		t.Fatal(err)
	}
	f := followerOf(t, st.Router())
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if st, err = Open(opt); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	st.Router().SetMetrics(reg)
	received := 0
	f.SetPuller(func(peer string, idx int, from Position) (PullResult, error) {
		res, err := st.Router().Pull(idx, from)
		if res.Snapshot != nil {
			received++
		}
		return res, err
	}, DefaultPromoteAfter)
	if err := st.Router().MkColl("/home/after", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("mcat.shard.pull.snapshots").Value(); v != 0 || received != 0 {
		t.Errorf("the restarted leader served %d catch-ups (the follower received %d), want 0", v, received)
	}
	if !f.CollExists("/home/before") || !f.CollExists("/home/after") {
		t.Errorf("follower after the leader's restart: /home/before %v, /home/after %v", f.CollExists("/home/before"), f.CollExists("/home/after"))
	}
}

// A promoted follower serves pulls from its own journal: a new
// follower of it catches up once, then reads the promoted shard's lines.
func TestPromotedFollowerServesPulls(t *testing.T) {
	leader := newTestRouter(t, 1)
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	seedGrid(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	f.Promote(0)
	reg := obs.NewRegistry()
	f.SetMetrics(reg)
	g := followerOf(t, f)
	if err := g.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.SubtreeObjects("/"), leader.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("second-generation follower diverged: %v != %v", got, want)
	}
	if err := f.MkColl("/projects/p1/promoted", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := g.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if !g.CollExists("/projects/p1/promoted") {
		t.Error("the promoted leader's entry did not replicate")
	}
	if snaps, lines := reg.Counter("mcat.shard.pull.snapshots").Value(), reg.Counter("mcat.shard.pull.entries").Value(); snaps != 1 || lines != 1 {
		t.Errorf("the promoted shard served %d catch-ups and %d lines, want 1 and 1", snaps, lines)
	}
}

// A follower that caught up from a snapshot holds state no line of its
// own journal carries. Promoted, it must serve a new follower that
// snapshot rather than an empty stream, or the new follower ends up
// empty.
func TestPromotedSnapshotFollowerServesPulls(t *testing.T) {
	leader := newTestRouter(t, 1)
	seedGrid(t, leader)
	f := followerOf(t, leader)
	if err := f.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	f.Promote(0)
	g := followerOf(t, f)
	if err := g.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.SubtreeObjects("/"), leader.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("second-generation follower of a snapshot-fed leader: %v != %v", got, want)
	}
}
