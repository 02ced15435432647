package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

func testOpts(dir string, n int) OpenOptions {
	return OpenOptions{
		Shards:      n,
		CatalogPath: filepath.Join(dir, "catalog.json"),
		JournalPath: filepath.Join(dir, "journal.log"),
		Admin:       "admin",
		Domain:      "local",
	}
}

// seedStore writes a representative slice of catalog state through a
// store's router.
func seedStore(t *testing.T, r *Router) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.AddUser(types.User{Name: "alice", Domain: "sdsc"}))
	must(r.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"}))
	must(r.MkColl("/home", "admin"))
	for _, p := range []string{"/home/alice", "/home/bob", "/projects", "/projects/p1", "/projects/p1/deep"} {
		must(r.MkCollAll(p, "admin"))
	}
	for i, coll := range []string{"/home/alice", "/home/bob", "/projects/p1/deep"} {
		_, err := r.RegisterObject(&types.DataObject{
			Collection: coll, Name: "f.dat", Owner: "alice",
			Size: int64(100 + i), DataType: "generic",
		})
		must(err)
		must(r.AddMeta(coll+"/f.dat", types.MetaUser, types.AVU{Name: "experiment", Value: "e1"}))
	}
	must(r.SetACL("/home/alice", "alice", acl.Own))
	r.EnqueueRepair(types.RepairTask{Path: "/home/alice/f.dat", Resource: "r1", Kind: "replicate"})
}

// checkSeeded verifies the state written by seedStore, whatever layout
// it was reopened under.
func checkSeeded(t *testing.T, r *Router) {
	t.Helper()
	wantObjs := []string{"/home/alice/f.dat", "/home/bob/f.dat", "/projects/p1/deep/f.dat"}
	if got := r.SubtreeObjects("/"); !reflect.DeepEqual(got, wantObjs) {
		t.Errorf("objects = %v, want %v", got, wantObjs)
	}
	if _, err := r.GetUser("alice"); err != nil {
		t.Errorf("GetUser(alice): %v", err)
	}
	if _, err := r.GetResource("r1"); err != nil {
		t.Errorf("GetResource(r1): %v", err)
	}
	avus, err := r.GetMeta("/projects/p1/deep/f.dat", types.MetaUser)
	if err != nil || len(avus) != 1 || avus[0].Name != "experiment" {
		t.Errorf("GetMeta = %v (%v)", avus, err)
	}
	if lvl := r.EffectiveLevel("/home/alice/f.dat", "alice"); lvl < acl.Own {
		t.Errorf("EffectiveLevel(alice) = %v", lvl)
	}
	pend := r.PendingRepairs()
	if len(pend) != 1 || pend[0].Path != "/home/alice/f.dat" {
		t.Errorf("PendingRepairs = %v", pend)
	}
	hits, err := r.RunQuery(testQuery("e1"))
	if err != nil || len(hits) != 3 {
		t.Errorf("RunQuery = %d hits (%v)", len(hits), err)
	}
}

// Single-shard stores must keep the exact monolithic file layout —
// existing catalogs load unchanged and no shard artifacts appear.
func TestOpenSingleShardUsesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(opt.JournalPath); err != nil {
		t.Errorf("journal not at the legacy path: %v", err)
	}
	for _, p := range []string{opt.mapPath(), opt.CatalogPath + ".shard0", opt.JournalPath + ".shard0"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("unexpected shard artifact %s", p)
		}
	}

	st2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Router().N() != 1 {
		t.Fatalf("N = %d", st2.Router().N())
	}
	checkSeeded(t, st2.Router())
}

// Changing the shard count rebalances every entry into the new layout,
// retires the old files, and the result is stable across further
// reopens — including shrinking back to the monolithic layout.
func TestReshardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testOpts(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// 1 -> 4: rebalance.
	opt4 := testOpts(dir, 4)
	st4, err := Open(opt4)
	if err != nil {
		t.Fatal(err)
	}
	if st4.Router().N() != 4 {
		t.Fatalf("N = %d", st4.Router().N())
	}
	checkSeeded(t, st4.Router())
	// New mutations land in the sharded journals and survive reopen.
	if err := st4.Router().MkColl("/projects/p1/deep/post", "admin"); err != nil {
		t.Fatal(err)
	}
	st4.Close()
	if _, err := os.Stat(opt4.mapPath()); err != nil {
		t.Errorf("shard map not journaled: %v", err)
	}
	if _, err := os.Stat(opt4.CatalogPath); !os.IsNotExist(err) {
		t.Error("legacy catalog file not retired")
	}
	if _, err := os.Stat(opt4.JournalPath); !os.IsNotExist(err) {
		t.Error("legacy journal file not retired")
	}

	// 4 -> 4: no rebalance, same data.
	var rebalanced bool
	opt4b := opt4
	opt4b.Logf = func(format string, args ...any) {
		if strings.Contains(format, "rebalancing") {
			rebalanced = true
		}
	}
	st4b, err := Open(opt4b)
	if err != nil {
		t.Fatal(err)
	}
	if rebalanced {
		t.Error("reopening with the same shard count rebalanced")
	}
	checkSeeded(t, st4b.Router())
	if !st4b.Router().CollExists("/projects/p1/deep/post") {
		t.Error("post-reshard mutation lost across reopen")
	}
	st4b.Close()

	// 4 -> 1: collapse back to the monolithic layout.
	opt1 := testOpts(dir, 1)
	st1, err := Open(opt1)
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st1.Router())
	st1.Close()
	if _, err := os.Stat(opt1.mapPath()); !os.IsNotExist(err) {
		t.Error("shard map not removed after collapsing to one shard")
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(opt4.catPath(4, i)); !os.IsNotExist(err) {
			t.Errorf("shard %d catalog not retired", i)
		}
	}
}

// Two sharded layouts name their files alike below the smaller count:
// retiring the old layout must not delete what the new one just wrote,
// or a restart before the next snapshot boots empty.
func TestReshardBetweenShardedLayouts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testOpts(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	st.Close()
	for _, n := range []int{2, 2, 3} {
		st, err := Open(testOpts(dir, n))
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", n, err)
		}
		checkSeeded(t, st.Router())
		st.Close()
	}
}

// reshardResources registers resources through seed, reopens the store
// at 1 -> 4 -> 1 shards, and requires every shard of every layout to
// answer for each resource exactly as the original did: kind, members,
// policy, online state and every user's level under its ACL.
func reshardResources(t *testing.T, seed func(r *Router) error) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(testOpts(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := st.Router()
	if err := r.AddUser(types.User{Name: "alice", Domain: "sdsc"}); err != nil {
		t.Fatal(err)
	}
	if err := seed(r); err != nil {
		t.Fatal(err)
	}
	answer := func(c Catalog) []string {
		var out []string
		for _, res := range c.Resources() {
			res.CreatedAt = res.CreatedAt.UTC() // as a journal line carries it
			out = append(out, fmt.Sprintf("%+v alice=%v", res, c.ResourceLevel(res.Name, "alice")))
		}
		return out
	}
	want := answer(r)
	st.Close()

	for _, n := range []int{4, 1} {
		st, err := Open(testOpts(dir, n))
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if got := answer(st.Router().Shard(i)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d shards, shard %d: resources\n%s\nwant\n%s", n, i, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
		st.Close()
	}
}

// A logical resource can sort before the members it names; resharding
// must register the members first.
func TestReshardLogicalResourceBeforeMember(t *testing.T) {
	reshardResources(t, func(r *Router) error {
		return errors.Join(
			r.AddResource(types.Resource{Name: "disk1", Kind: types.ResourcePhysical, Driver: "memfs"}),
			r.AddResource(types.Resource{Name: "tape1", Kind: types.ResourcePhysical, Driver: "memfs"}),
			r.AddResource(types.Resource{Name: "archive", Kind: types.ResourceLogical, Members: []string{"disk1", "tape1"}}),
		)
	})
}

// Resharding keeps what was set on a resource after it was registered:
// an offline resource stays offline, a policy and an ACL stay.
func TestReshardKeepsResourceState(t *testing.T) {
	reshardResources(t, func(r *Router) error {
		return errors.Join(
			r.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"}),
			r.AddResource(types.Resource{Name: "r2", Kind: types.ResourcePhysical, Driver: "memfs"}),
			r.AddResource(types.Resource{Name: "repl", Kind: types.ResourceLogical, Members: []string{"r1", "r2"}}),
			r.SetResourcePolicy("repl", "async:1"),
			r.SetResourceOnline("r2", false),
			r.SetResourceACL("r1", "alice", acl.Read),
		)
	})
}

// reopenAt4 snapshots a one-shard store after seed and reopens it at
// four shards.
func reopenAt4(t *testing.T, seed func(r *Router)) *Store {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(testOpts(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	seed(st.Router())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st4, err := Open(testOpts(dir, 4))
	if err != nil {
		t.Fatalf("reopen at 4 shards: %v", err)
	}
	t.Cleanup(func() { st4.Close() })
	return st4
}

// An object ID handed out before a reshard is never handed out after
// it, even when its object was deleted.
func TestReshardNeverReissuesDeletedIDs(t *testing.T) {
	var ids []types.ObjectID
	st := reopenAt4(t, func(r *Router) {
		if err := r.MkCollAll("/a/b", "admin"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			id, err := r.RegisterObject(&types.DataObject{Collection: "/a/b", Name: fmt.Sprintf("f%d", i), Owner: "admin"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 8; i < 12; i++ {
			if err := r.DeleteObject(fmt.Sprintf("/a/b/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	id, err := st.Router().RegisterObject(&types.DataObject{Collection: "/a/b", Name: "new", Owner: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if id == old {
			t.Errorf("the resharded catalog handed out ID %d again", id)
		}
	}
}

// A file-metadata attachment whose file was deleted does not stop a
// reshard.
func TestReshardAfterAttachedFileDeleted(t *testing.T) {
	st := reopenAt4(t, func(r *Router) {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(r.MkCollAll("/a/b", "admin"))
		for _, name := range []string{"data", "meta"} {
			_, err := r.RegisterObject(&types.DataObject{Collection: "/a/b", Name: name, Owner: "admin"})
			must(err)
		}
		must(r.AttachFileMeta("/a/b/data", "/a/b/meta"))
		must(r.DeleteObject("/a/b/meta"))
	})
	if got := st.Router().FileMeta("/a/b/data"); len(got) != 0 {
		t.Errorf("FileMeta(/a/b/data) = %v, want none", got)
	}
}

// A snapshot that exists but cannot be read stops the boot: starting
// with an empty shard would let the next Snapshot overwrite a damaged
// but recoverable file. An absent snapshot is still a fresh start.
func TestUnreadableSnapshotIsFatal(t *testing.T) {
	for _, n := range []int{1, 2} {
		dir := t.TempDir()
		opt := testOpts(dir, n)
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		seedStore(t, st.Router())
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		st.Close()

		file := opt.catPath(n, n-1)
		damaged, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ { // the opening brace and the version key
			damaged[i] ^= 0xff
		}
		if err := os.WriteFile(file, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(opt); err == nil {
			st.Snapshot()
			st.Close()
			t.Errorf("%d shard(s): Open booted over an unreadable snapshot", n)
		}
		if got, _ := os.ReadFile(file); !bytes.Equal(got, damaged) {
			t.Errorf("%d shard(s): the damaged snapshot was rewritten", n)
		}

		if err := os.Remove(file); err != nil {
			t.Fatal(err)
		}
		st, err = Open(opt)
		if err != nil {
			t.Fatalf("%d shard(s): an absent snapshot must be a fresh start: %v", n, err)
		}
		st.Close()
	}
}

// Boot replay skips and counts corrupt journal lines instead of
// aborting or silently dropping them.
func TestReplaySkippedCounted(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	st.Close()

	jf, err := os.OpenFile(opt.JournalPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteString("{\"op\":\"garbage, torn mid-write\n")
	jf.Close()

	st2, err := Open(opt)
	if err != nil {
		t.Fatalf("corrupt line must not abort boot: %v", err)
	}
	defer st2.Close()
	if st2.ReplaySkipped != 1 {
		t.Errorf("ReplaySkipped = %d, want 1", st2.ReplaySkipped)
	}
	checkSeeded(t, st2.Router())
}

// Snapshot compacts each journal under live traffic: pre-snapshot
// history moves into the snapshot file, later mutations into the
// emptied journal, and a reopen sees both.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 2)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(opt.jnlPath(2, i))
		if err != nil {
			t.Fatalf("compacted journal %d: %v", i, err)
		}
		if !bytes.HasPrefix(b, []byte(`{"Gen":`)) || bytes.Count(b, []byte("\n")) != 1 {
			t.Errorf("journal %d not emptied by the snapshot: %q, want its head alone", i, b)
		}
	}
	if err := st.Router().MkColl("/projects/p1/deep/after", "admin"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkSeeded(t, st2.Router())
	if !st2.Router().CollExists("/projects/p1/deep/after") {
		t.Error("post-snapshot mutation lost")
	}
}

// A snapshot whose publish fails leaves the journal whole and taking
// appends, no temp file and no extra fd, and the next good one loses no
// mutation. (The name is from when a snapshot swapped journals.)
func TestFailedSnapshotClosesJournal(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd")
		}
		return len(ents)
	}
	dir := t.TempDir()
	opt := testOpts(dir, 1)
	base := fds()
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	seeded, err := os.ReadFile(opt.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the snapshot goes fails every save.
	if err := os.MkdirAll(filepath.Join(opt.CatalogPath, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Snapshot(); err == nil {
			t.Fatal("snapshot onto a directory succeeded")
		}
		if err := st.Router().MkColl(fmt.Sprintf("/projects/failed%d", i), "admin"); err != nil {
			t.Fatal(err)
		}
	}
	files := func(want ...string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("files = %q, want %q", names, want)
		}
	}
	files("catalog.json", "journal.log")
	after, err := os.ReadFile(opt.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, seeded) || bytes.Count(after[len(seeded):], []byte("\n")) != 3 {
		t.Errorf("after the failed snapshots the journal is %q, want the seeded lines and three more", after)
	}
	if err := os.RemoveAll(opt.CatalogPath); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Router().MkColl("/projects/after", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fds(); n != base {
		t.Errorf("%d fds open after Close, %d before Open", n, base)
	}
	files("catalog.json", "journal.log")
	if b, _ := os.ReadFile(opt.JournalPath); bytes.Count(b, []byte("\n")) != 2 {
		t.Errorf("the journal after the good snapshot is %q, want its head and its one later line", b)
	}

	st2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkSeeded(t, st2.Router())
	for _, p := range []string{"/projects/failed0", "/projects/failed1", "/projects/failed2", "/projects/after"} {
		if !st2.Router().CollExists(p) {
			t.Errorf("%s lost across the failed snapshots", p)
		}
	}
}

// An older binary killed between its journal rotation and rename left a
// .new tail that the next boot must replay and absorb: its entries are
// in no snapshot, so they must still be there after a second boot that
// took none.
func TestCrashTailReplay(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Router().AddUser(types.User{Name: "carol", Domain: "sdsc"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	st.Close()

	// Simulate the torn rotation: move part of the history into a .new
	// tail as if the rename never happened.
	data, err := os.ReadFile(opt.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) / 2
	for cut < len(data) && data[cut] != '\n' {
		cut++
	}
	cut++
	if cut >= len(data) {
		t.Fatal("journal too small to split")
	}
	if err := os.WriteFile(opt.JournalPath, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opt.JournalPath+".new", data[cut:], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st2.Router())
	if _, err := os.Stat(opt.JournalPath + ".new"); !os.IsNotExist(err) {
		t.Error(".new tail not absorbed after replay")
	}
	// A second kill, before any snapshot.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	checkSeeded(t, st3.Router())
	if _, err := st3.Router().GetUser("carol"); err != nil {
		t.Errorf("the snapshot's user is gone: %v", err)
	}
	if st3.ReplaySkipped != 0 {
		t.Errorf("%d journal lines skipped on the second boot", st3.ReplaySkipped)
	}
}

// Open with no paths is the memory-only mode the tests and embedded
// callers use: everything works, nothing touches disk.
func TestOpenMemoryOnly(t *testing.T) {
	st, err := Open(OpenOptions{Shards: 2, Admin: "admin", Domain: "local"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStore(t, st.Router())
	checkSeeded(t, st.Router())
	if err := st.Snapshot(); err != nil {
		t.Errorf("memory-only Snapshot: %v", err)
	}
}

// A restarted leader's replication log is empty even though its
// catalog carries snapshotted history. A fresh follower (applied = 0)
// must be pushed onto the snapshot path, not told "caught up" with
// none of that state — the restart-epoch base guarantees it.
func TestFollowerOfReopenedStore(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 2)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkSeeded(t, st2.Router())

	f := followerOf(t, st2.Router())
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce against reopened leader: %v", err)
	}
	if got, want := f.SubtreeObjects("/"), st2.Router().SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower objects %v != leader %v", got, want)
	}
	// Incremental pulls resume after the snapshot hop.
	if err := st2.Router().MkColl("/projects/p1/deep/incr", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce (incremental): %v", err)
	}
	if !f.CollExists("/projects/p1/deep/incr") {
		t.Error("incremental mutation after snapshot hop did not replicate")
	}
}

func TestLoadMapFileMissingAndInvalid(t *testing.T) {
	dir := t.TempDir()
	m, err := LoadMapFile(filepath.Join(dir, "absent.shardmap"))
	if m != nil || err != nil {
		t.Errorf("missing map: %v %v", m, err)
	}
	bad := filepath.Join(dir, "bad.shardmap")
	os.WriteFile(bad, []byte(`{"Version":99,"Shards":2}`), 0o644)
	if _, err := LoadMapFile(bad); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad version err = %v", err)
	}
}

// A persistent follower's catch-up is durable: the loaded state is the
// shard's snapshot before the follower's position moves past it, so a
// line applied after it replays at the next boot onto that state,
// although the follower closed without a Snapshot of its own.
func TestFollowerCatchUpSurvivesRestart(t *testing.T) {
	leader := newTestRouter(t, 2)
	for _, err := range []error{leader.MkColl("/home", "admin"), leader.MkColl("/home/a", "admin")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	opt := testOpts(t.TempDir(), 2)
	follow := func() *Store {
		t.Helper()
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			st.Router().SetFollower(i, "leader")
		}
		st.Router().SetPuller(pullFrom(leader), DefaultPromoteAfter)
		return st
	}
	st := follow()
	if err := st.Router().SyncOnce(); err != nil { // the catch-up
		t.Fatal(err)
	}
	if err := leader.MkColl("/home/a/b", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := st.Router().SyncOnce(); err != nil { // one incremental line
		t.Fatal(err)
	}
	if !st.Router().CollExists("/home/a/b") {
		t.Fatal("the incremental line did not apply")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = follow()
	defer st.Close()
	for _, p := range []string{"/home", "/home/a", "/home/a/b"} {
		if !st.Router().CollExists(p) {
			t.Errorf("%s is gone after the follower's restart", p)
		}
	}
	if st.ReplaySkipped != 0 {
		t.Errorf("%d journal lines skipped at the restart", st.ReplaySkipped)
	}
}

// Snapshots taken while writers add metadata put every acknowledged
// triplet in the snapshot or in the emptied journal, never in both: a
// reopen holds each exactly once (an "addmeta" applied twice would show
// as a second copy).
func TestSnapshotUnderWritesIsExact(t *testing.T) {
	opt := testOpts(t.TempDir(), 2)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	const writers, each = 4, 50
	done := make(chan struct{})
	snaps := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-done:
				snaps <- nil
				return
			default:
				err = st.Snapshot()
			}
		}
		snaps <- err
	}()
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < each && err == nil; i++ {
				err = st.Router().AddMeta("/projects/p1/deep/f.dat", types.MetaUser, types.AVU{Name: "w", Value: fmt.Sprintf("%d-%d", w, i)})
			}
			errs <- err
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(done)
	if err := <-snaps; err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	avus, err := st.Router().GetMeta("/projects/p1/deep/f.dat", types.MetaUser)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, avu := range avus {
		if avu.Name == "w" {
			seen[avu.Value]++
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if v := fmt.Sprintf("%d-%d", w, i); seen[v] != 1 {
				t.Errorf("triplet %s is there %d times after the reopen, want once", v, seen[v])
			}
		}
	}
}

// A compaction cut between its two steps: the snapshot is published,
// the journal is not emptied (simulated by putting back a copy taken
// before the compaction). The snapshot names a generation the journal
// is not in, so the reopen skips the journal, and every triplet and
// annotation is there exactly once.
func TestCompactionCutBeforeEmptyAppliesOnce(t *testing.T) {
	opt := testOpts(t.TempDir(), 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	const path = "/home/alice/f.dat"
	for i := 0; i < 3; i++ {
		if err := st.Router().AddMeta(path, types.MetaUser, types.AVU{Name: "n", Value: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Router().AddAnnotation(path, types.Annotation{Author: "alice", Text: fmt.Sprint("note ", i)}); err != nil {
			t.Fatal(err)
		}
	}
	uncut, err := os.ReadFile(opt.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opt.JournalPath, uncut, 0o644); err != nil {
		t.Fatal(err)
	}

	for boot := 0; boot < 2; boot++ {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		checkSeeded(t, st.Router())
		avus, err := st.Router().GetMeta(path, types.MetaUser)
		if err != nil {
			t.Fatal(err)
		}
		anns, err := st.Router().Annotations(path)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, a := range avus {
			seen[a.Name+"="+a.Value]++
		}
		for _, a := range anns {
			seen[a.Text]++
		}
		for i := 0; i < 3; i++ {
			for _, k := range []string{fmt.Sprint("n=", i), fmt.Sprint("note ", i)} {
				if seen[k] != 1 {
					t.Errorf("boot %d: %q is there %d times, want once", boot, k, seen[k])
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A journal an older binary wrote has no head. Boot replays it and
// leaves it as it is, so every pull from it is a catch-up; the first
// Snapshot gives it a generation, and followers read lines from then on.
func TestJournalWithoutHead(t *testing.T) {
	opt := testOpts(t.TempDir(), 1)
	st, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st.Router())
	st.Close()
	b, err := os.ReadFile(opt.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := bytes.Cut(b, []byte("\n"))
	if !bytes.HasPrefix(head, []byte(`{"Gen":`)) {
		t.Fatalf("journal head = %q", head)
	}
	if err := os.WriteFile(opt.JournalPath, body, 0o644); err != nil {
		t.Fatal(err)
	}

	if st, err = Open(opt); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkSeeded(t, st.Router())
	leader := st.Router()
	if pos := leader.Shard(0).JournalPos(); pos.Gen != 0 || pos.Off != int64(len(body)) {
		t.Fatalf("boot touched the headless journal: at %+v, want generation 0 at %d", pos, len(body))
	}
	f := followerOf(t, leader)
	for i := 0; i < 2; i++ {
		res, err := leader.Pull(0, f.shards[0].applied)
		if err != nil || res.Snapshot == nil {
			t.Fatalf("pull %d from a headless journal: snapshot %v, %v; want a catch-up", i, res.Snapshot != nil, err)
		}
		if err := f.applyPull(0, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncOnce(); err != nil { // the catch-up into the new generation
		t.Fatal(err)
	}
	if err := leader.MkColl("/home/after", "admin"); err != nil {
		t.Fatal(err)
	}
	res, err := leader.Pull(0, f.shards[0].applied)
	if err != nil || res.Snapshot != nil || len(res.Entries) != 1 {
		t.Fatalf("pull after the first Snapshot: snapshot %v, %d entries, %v; want the one line", res.Snapshot != nil, len(res.Entries), err)
	}
}
