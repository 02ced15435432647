package shard

import (
	"bytes"
	"errors"
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

// Snapshot rotates each journal under live traffic: pre-snapshot
// history moves into the snapshot file, later mutations into the fresh
// journal, and a reopen sees both.
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
		fi, err := os.Stat(opt.jnlPath(2, i))
		if err != nil {
			t.Fatalf("rotated journal %d: %v", i, err)
		}
		if fi.Size() != 0 {
			t.Errorf("journal %d not reset by rotation: %d bytes", i, fi.Size())
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

// A crash between journal rotation and rename leaves a .new tail that
// the next boot must replay and absorb.
func TestCrashTailReplay(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts(dir, 1)
	st, err := Open(opt)
	if err != nil {
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
	defer st2.Close()
	checkSeeded(t, st2.Router())
	if _, err := os.Stat(opt.JournalPath + ".new"); !os.IsNotExist(err) {
		t.Error(".new tail not absorbed after replay")
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
