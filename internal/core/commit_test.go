package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/core"
	"gosrb/internal/durable"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// A put is one catalog transaction: the object, its replica rows and its
// user metadata commit as one journal entry, appended before it is
// applied. These tests hold the three ways a put used to half-happen — a
// refused metadata triplet, a failed journal append, a crash part-way
// through the put's journal bytes — and what one put costs.

// commitRig is a broker over cat with two memfs disks, a mirror over
// both, and /home writable by alice.
func commitRig(t *testing.T, cat shard.Catalog) (*core.Broker, []*memfs.FS) {
	t.Helper()
	b := core.New(cat, "srb1")
	disks := []*memfs.FS{memfs.New(), memfs.New()}
	for i, d := range disks {
		if err := b.AddPhysicalResource("admin", fmt.Sprintf("disk%d", i+1), types.ClassFileSystem, "memfs", d); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{
		b.AddLogicalResource("admin", "mirror", []string{"disk1", "disk2"}),
		cat.AddUser(types.User{Name: "alice", Domain: "sdsc"}),
		cat.MkColl("/home", "admin"),
		cat.SetACL("/home", "alice", acl.Write),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return b, disks
}

func filesOn(disks []*memfs.FS) int {
	n := 0
	for _, d := range disks {
		n += d.Usage().Files
	}
	return n
}

// A metadata triplet the catalog refuses refuses the whole put before a
// byte is stored: no row, no replica file, no journal line.
func TestRefusedMetadataStoresNothing(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	var jnl bytes.Buffer
	cat.SetJournal(durable.NewJournal(&jnl))
	b, disks := commitRig(t, cat)
	lines := jnl.Len()

	_, err := b.Ingest("alice", core.IngestOpts{
		Path: "/home/f.txt", Data: []byte("hello grid"), Resource: "disk1",
		Meta: []types.AVU{{Name: "color", Value: "red"}, {Name: "", Value: "x"}},
	})
	if !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("ingest with an unnamed triplet: err = %v, want ErrInvalid", err)
	}
	if o, err := cat.GetObject("/home/f.txt"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("the refused put left a row: %+v (%v)", o, err)
	}
	if n := filesOn(disks); n != 0 {
		t.Errorf("the refused put left %d replica files", n)
	}
	if jnl.Len() != lines {
		t.Errorf("the refused put journaled %q", jnl.Bytes()[lines:])
	}
}

// failingDisk is a journal writer whose Nth Write, and every one after,
// fails.
type failingDisk struct {
	n   int
	buf bytes.Buffer
}

var errIO = errors.New("input/output error")

func (w *failingDisk) Write(p []byte) (int, error) {
	if w.n--; w.n <= 0 {
		return 0, errIO
	}
	return w.buf.Write(p)
}

// A put whose journal append fails is not acknowledged: the client gets
// the append's error, memory holds no row, the drivers no bytes, and the
// shard latches read-only as for any failed append.
func TestIngestJournalFailureNotAcknowledged(t *testing.T) {
	cat := shard.NewRouter(1, "admin", "sdsc")
	b, disks := commitRig(t, cat)
	disk := &failingDisk{n: 2}
	cat.AttachJournal(0, durable.NewJournal(disk))

	put := func(name string) error {
		_, err := b.Ingest("alice", core.IngestOpts{
			Path: "/home/" + name, Data: []byte("payload " + name), Resource: "mirror",
			Meta: []types.AVU{{Name: "color", Value: "red"}},
		})
		return err
	}
	if err := put("first"); err != nil {
		t.Fatalf("put before the failure: %v", err)
	}
	files := filesOn(disks)
	if err := put("second"); !errors.Is(err, errIO) {
		t.Fatalf("put whose append fails: err = %v, want the append's error", err)
	}
	if o, err := cat.GetObject("/home/second"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("the unacknowledged put is in memory: %+v (%v)", o, err)
	}
	if hits, _ := cat.RunQuery(mcat.Query{Scope: "/home", Conds: []mcat.Condition{{Attr: "color", Op: "=", Value: "red"}}}); len(hits) != 1 {
		t.Errorf("color=red finds %d objects, want the first put alone", len(hits))
	}
	if n := filesOn(disks); n != files {
		t.Errorf("the unacknowledged put left %d replica files", n-files)
	}
	if !errors.Is(cat.JournalErr(), errIO) {
		t.Errorf("JournalErr = %v, want the append's error latched", cat.JournalErr())
	}
	if err := put("third"); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("put after the latch: err = %v, want ErrReadOnly", err)
	}
	if err := b.Mkdir("alice", "/home/sub"); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("mkdir after the latch: err = %v, want ErrReadOnly", err)
	}
	if n := filesOn(disks); n != files {
		t.Errorf("a put refused by the latch stored %d replica files", n-files)
	}
}

// Bytes are removed only once the catalog no longer names them: a delete,
// a replica removal or a container removal whose journal append fails, or
// that a latched shard refuses, leaves every replica file where it was.
func TestRefusedDeleteKeepsBytes(t *testing.T) {
	cat := shard.NewRouter(1, "admin", "sdsc")
	b, disks := commitRig(t, cat)
	for _, name := range []string{"f", "g"} {
		if _, err := b.Ingest("alice", core.IngestOpts{Path: "/home/" + name, Data: []byte("bytes of " + name), Resource: "mirror"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.CreateContainer("alice", "/home/box", "mirror"); err != nil {
		t.Fatal(err)
	}
	files := filesOn(disks)
	cat.AttachJournal(0, durable.NewJournal(&failingDisk{n: 1}))

	if err := b.Delete("alice", "/home/f"); !errors.Is(err, errIO) {
		t.Errorf("delete whose append fails: err = %v, want the append's error", err)
	}
	if err := b.DeleteReplica("alice", "/home/g", 1); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("replica removal on the latched shard: err = %v, want ErrReadOnly", err)
	}
	if err := b.DeleteContainer("alice", "/home/box"); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("container removal on the latched shard: err = %v, want ErrReadOnly", err)
	}
	for _, name := range []string{"f", "g"} {
		if got, err := b.Get("alice", "/home/"+name); err != nil || string(got) != "bytes of "+name {
			t.Errorf("Get %s after the refused removal = %q, %v", name, got, err)
		}
	}
	if o, err := cat.GetObject("/home/g"); err != nil || len(o.Replicas) != 2 {
		t.Errorf("/home/g after the refused replica removal: %+v, %v", o, err)
	}
	if n := filesOn(disks); n != files {
		t.Errorf("the refused removals took %d replica files", files-n)
	}
}

// racingDisk runs race once, inside the first Create it serves: a put
// that lands while another put of the same path is storing its bytes.
type racingDisk struct {
	*memfs.FS
	race func()
}

func (d *racingDisk) Create(path string) (storage.WriteFile, error) {
	if race := d.race; race != nil {
		d.race = nil
		race()
	}
	return d.FS.Create(path)
}

// A put that loses its path to a concurrent put between taking its ID
// and committing is refused, and removes the replica files it stored.
func TestIngestLosingRaceRemovesItsBytes(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	b, _ := commitRig(t, cat)
	disk := &racingDisk{FS: memfs.New()}
	if err := b.AddPhysicalResource("admin", "racy", types.ClassFileSystem, "memfs", disk); err != nil {
		t.Fatal(err)
	}
	put := func(data string) error {
		_, err := b.Ingest("alice", core.IngestOpts{Path: "/home/f", Data: []byte(data), Resource: "racy"})
		return err
	}
	var winner error
	disk.race = func() { winner = put("winner") }
	if err := put("loser"); !errors.Is(err, types.ErrExists) {
		t.Fatalf("the put that lost the path: err = %v, want ErrExists", err)
	}
	if winner != nil {
		t.Fatalf("the put that won the path: %v", winner)
	}
	if got, err := b.Get("alice", "/home/f"); err != nil || string(got) != "winner" {
		t.Errorf("Get = %q, %v, want the winner's bytes", got, err)
	}
	if n := disk.Usage().Files; n != 1 {
		t.Errorf("the disk holds %d files, want the winner's alone", n)
	}
}

// TestPutCrashPoints is the put's row of the crash-point matrix: three
// puts journaled through Broker.Ingest on a persistent catalog, then the
// last put's journal bytes cut at every offset and the catalog booted
// again. Every boot holds the last put whole — row, clean replicas,
// checksum, every triplet, found by an indexed query — or not at all,
// and a Mkdir made after it is still there at the boot after that.
// The member row does the same with puts into a container, whose last
// two lines are the container's update and the member.
func TestPutCrashPoints(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			putCrashPoints(t, n, "")
		})
	}
	t.Run("member", func(t *testing.T) {
		t.Parallel()
		putCrashPoints(t, 1, "/home/alice/box")
	})
}

// putCrashPoints runs one row; a non-empty container puts the objects
// into a container made there first.
func putCrashPoints(t *testing.T, shards int, container string) {
	dir := t.TempDir()
	opt := shard.OpenOptions{
		Shards:      shards,
		CatalogPath: filepath.Join(dir, "catalog.json"),
		JournalPath: filepath.Join(dir, "journal.log"),
		Admin:       "admin",
		Domain:      "sdsc",
	}
	st, err := shard.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, disks := commitRig(t, st.Router())
	if err := b.Mkdir("alice", "/home/alice"); err != nil {
		t.Fatal(err)
	}
	wantLines := 1
	if container != "" {
		if _, err := b.CreateContainer("alice", container, "mirror"); err != nil {
			t.Fatal(err)
		}
		wantLines = 2
	}
	journal := func(i int) string {
		if shards == 1 {
			return opt.JournalPath
		}
		return fmt.Sprintf("%s.shard%d", opt.JournalPath, i)
	}
	home := journal(st.Router().Map().ShardOfPath("/home/alice"))
	journalBytes := func() []byte {
		var all []byte
		for i := 0; i < shards; i++ {
			data, _ := os.ReadFile(journal(i))
			all = append(all, data...)
		}
		return all
	}

	const last = "/home/alice/f2"
	data := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 100+i) }
	meta := func(i int) []types.AVU {
		return []types.AVU{{Name: "band", Value: fmt.Sprintf("J%d", i)}, {Name: "mag", Value: fmt.Sprint(i)}, {Name: "survey", Value: "2mass"}}
	}
	var start int
	var lost types.ObjectID
	for i := 0; i < 3; i++ {
		before, err := os.ReadFile(home)
		if err != nil {
			t.Fatal(err)
		}
		all := journalBytes()
		o, err := b.Ingest("alice", core.IngestOpts{Path: fmt.Sprintf("/home/alice/f%d", i), Data: data(i), Resource: "mirror", Container: container, Meta: meta(i)})
		if err != nil {
			t.Fatal(err)
		}
		if added := bytes.Count(journalBytes(), []byte("\n")) - bytes.Count(all, []byte("\n")); added != wantLines {
			t.Errorf("put %d journaled %d lines, want %d", i, added, wantLines)
		}
		start, lost = len(before), o.ID
	}
	full, err := os.ReadFile(home)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(data(2))
	want := hex.EncodeToString(sum[:])
	whole := 0
	for cut := start; cut <= len(full); cut++ {
		if err := os.WriteFile(home, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := shard.Open(opt)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		r := st.Router()
		if st.ReplaySkipped > 1 {
			t.Errorf("cut at %d: %d corrupt lines, want at most the torn one", cut, st.ReplaySkipped)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.GetObject(fmt.Sprintf("/home/alice/f%d", i)); err != nil {
				t.Errorf("cut at %d: put %d lost: %v", cut, i, err)
			}
		}
		hits, err := r.RunQuery(mcat.Query{Scope: "/home/alice", Conds: []mcat.Condition{{Attr: "band", Op: "=", Value: "J2"}}})
		if err != nil {
			t.Fatal(err)
		}
		o, err := r.GetObject(last)
		avus, _ := r.GetMeta(last, types.MetaUser)
		switch {
		case errors.Is(err, types.ErrNotFound):
			if len(hits) != 0 || len(avus) != 0 {
				t.Errorf("cut at %d: no row, yet the query finds %v and the path holds %v", cut, hits, avus)
			}
		case err != nil:
			t.Fatalf("cut at %d: %v", cut, err)
		default:
			whole++
			stored := o.Container == container && o.ContainerSize == o.Size
			if c, err := r.GetObject(container); container != "" && (err != nil || c.Size < o.ContainerOffset+o.ContainerSize) {
				t.Errorf("cut at %d: the member lies past its container %+v (%v)", cut, c, err)
			}
			if container == "" {
				stored = len(o.Replicas) == 2
				for _, rep := range o.Replicas {
					stored = stored && rep.Status == types.ReplicaClean && rep.Checksum == want && rep.Size == o.Size
				}
			}
			if o.Size != int64(len(data(2))) || o.Checksum != want || !stored {
				t.Errorf("cut at %d: half a put: %+v", cut, o)
			}
			if len(avus) != 3 || len(hits) != 1 || hits[0].Path != last {
				t.Errorf("cut at %d: the put's triplets %v, query hits %v", cut, avus, hits)
			}
		}
		// A write acknowledged after booting over the cut survives the
		// next boot: it is not glued onto a torn last line.
		const after = "/home/alice/after"
		if err := core.New(r, "srb1").Mkdir("alice", after); err != nil {
			t.Fatalf("cut at %d: Mkdir: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = shard.Open(opt); err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		if !st.Router().CollExists(after) {
			t.Errorf("cut at %d: the Mkdir acknowledged after booting over the cut is gone", cut)
		}
		if st.ReplaySkipped > 1 {
			t.Errorf("cut at %d: second boot: %d corrupt lines, want at most the torn one", cut, st.ReplaySkipped)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if whole == 0 || whole == len(full)-start+1 {
		t.Errorf("%d of %d cuts held the put: the sweep missed one side", whole, len(full)-start+1)
	}

	// Booted without the last put, the catalog hands its ID out again;
	// the next put's Create replaces the orphaned replica files.
	if err := os.WriteFile(home, full[:start], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = shard.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b = core.New(st.Router(), "srb1")
	for i, d := range disks {
		if err := b.Remount(fmt.Sprintf("disk%d", i+1), d); err != nil {
			t.Fatal(err)
		}
	}
	o, err := b.Ingest("alice", core.IngestOpts{Path: last, Data: []byte("second life"), Resource: "mirror", Container: container})
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != lost {
		t.Errorf("the put after the crash got ID %d; the lost put's %d was not handed out again", o.ID, lost)
	}
	if got, err := b.Get("alice", last); err != nil || string(got) != "second life" {
		t.Errorf("Get over the orphan = %q, %v", got, err)
	}
}

// What TestIngestAllocations measures, go1.24 linux/amd64: ingestAllocsParent
// at the last commit where a put was four or five catalog mutations
// (register, update, one addmeta per triplet), ingestAllocsMeasured since
// it is one.
const (
	ingestAllocsParent   = 63
	ingestAllocsMeasured = 38
	ingestAllocsSlack    = 3
)

// skipAllocFence stands an allocation fence down where the counts are
// not the broker's own: under the race detector, with the catalog's row
// canary, whose fingerprints allocate, and with the frame canary, under
// which lent objects are dropped rather than recycled (lend.Canary).
func skipAllocFence(t *testing.T) {
	t.Helper()
	if raceEnabled || rowCanary || lend.Canary {
		t.Skip("allocation counts are not meaningful under the race detector or a canary")
	}
}

// TestIngestAllocations fences what one put costs in heap objects on
// every `go test`, not only in bench/: a 64 B Ingest with three
// triplets on a journaled 4-shard router.
func TestIngestAllocations(t *testing.T) {
	skipAllocFence(t)
	r := shard.NewRouter(4, "admin", "sdsc")
	r.EnableMemoryJournals()
	b := core.New(r, "srb1")
	if err := b.AddPhysicalResource("admin", "r1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	if err := r.MkCollAll("/zone/proj", "admin"); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	paths := make([]string, runs+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/zone/proj/o%03d", i)
	}
	data := bytes.Repeat([]byte("x"), 64)
	meta := []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: "12"}, {Name: "dc:title", Value: "M31", Units: "text"}}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := b.Ingest("admin", core.IngestOpts{Path: paths[i], Data: data, Resource: "r1", Meta: meta}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("Ingest: %.1f allocs/op (measured %d, parent %d)", allocs, ingestAllocsMeasured, ingestAllocsParent)
	if allocs > ingestAllocsMeasured+ingestAllocsSlack {
		t.Errorf("Ingest allocates %.1f times per put, budget %d (measured %d + slack %d)",
			allocs, ingestAllocsMeasured+ingestAllocsSlack, ingestAllocsMeasured, ingestAllocsSlack)
	}
}

// TestMutationAllocations fences the single-line mutations bench/ drives
// besides a put, each on a journaled 1- and 4-shard router with its path
// made by fmt.Sprintf per call. The budgets are what each cost, go1.24
// linux/amd64, when every mutation but a create was applied before it
// was logged; logging first must not cost more.
func TestMutationAllocations(t *testing.T) {
	skipAllocFence(t)
	const runs = 200
	budgets := []struct {
		op     string
		budget float64
		do     func(r *shard.Router, path string) error
	}{
		{"addmeta", 5, func(r *shard.Router, path string) error {
			return r.AddMeta(path, types.MetaUser, types.AVU{Name: "band", Value: "J"})
		}},
		{"annotate", 6, func(r *shard.Router, path string) error {
			return r.AddAnnotation(path, types.Annotation{Author: "alice", Text: "calibrated"})
		}},
		{"delete", 3, func(r *shard.Router, path string) error { return r.DeleteObject(path) }},
	}
	for _, n := range []int{1, 4} {
		r := shard.NewRouter(n, "admin", "sdsc")
		r.EnableMemoryJournals()
		if err := r.MkCollAll("/zone/proj", "admin"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= runs; i++ {
			if _, err := r.RegisterObject(&types.DataObject{Collection: "/zone/proj", Name: fmt.Sprintf("o%03d", i), Owner: "admin"}); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range budgets {
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := b.do(r, fmt.Sprintf("/zone/proj/o%03d", i)); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%d shards, %s: %.1f allocs/op (budget %.0f)", n, b.op, allocs, b.budget)
			if allocs > b.budget {
				t.Errorf("%d shards: %s allocates %.1f times per call, budget %.0f", n, b.op, allocs, b.budget)
			}
		}
	}
}
