package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"gosrb/internal/core"
	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// Every create — a put, a container, a member, a link and the five
// registered kinds — takes one path: newObject takes the name and the ID,
// then one ingest entry commits the object with its triplets. These
// tests hold what that path promises on every create.

// createRig is commitRig plus what the registered kinds point at: a file
// and a directory on disk1, a database resource "db" and a command
// "echo".
func createRig(t *testing.T, cat shard.Catalog) (*core.Broker, []*memfs.FS) {
	t.Helper()
	b, disks := commitRig(t, cat)
	for _, err := range []error{
		storage.WriteAll(disks[0], "/outside/f.dat", []byte("registered bytes")),
		storage.WriteAll(disks[0], "/cone/a.txt", []byte("A")),
		b.AddPhysicalResource("admin", "db", types.ClassDatabase, "dbfs", dbfs.New()),
		b.RegisterCommand("admin", "echo", func([]string) ([]byte, error) { return []byte("echo"), nil }),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return b, disks
}

// createOp is one creating op, making the object at path.
type createOp struct {
	name string
	do   func(path string) (types.DataObject, error)
}

// createOps is every creating op, in an order where each finds what it
// needs: the link points at the put and the member goes into the
// container, both made in the collection real. meta rides on the ops
// that take triplets.
func createOps(b *core.Broker, real string, meta []types.AVU) []createOp {
	return []createOp{
		{"put", func(p string) (types.DataObject, error) {
			return b.Ingest("alice", core.IngestOpts{Path: p, Data: []byte("put bytes"), Resource: "mirror", Meta: meta})
		}},
		{"box", func(p string) (types.DataObject, error) { return b.CreateContainer("alice", p, "mirror") }},
		{"member", func(p string) (types.DataObject, error) {
			return b.Ingest("alice", core.IngestOpts{Path: p, Data: []byte("member bytes"), Container: real + "/box", Meta: meta})
		}},
		{"link", func(p string) (types.DataObject, error) {
			if err := b.Link("alice", real+"/put", p); err != nil {
				return types.DataObject{}, err
			}
			return b.Cat.GetObject(real + "/link")
		}},
		{"file", func(p string) (types.DataObject, error) {
			return b.RegisterFile("alice", p, "disk1", "/outside/f.dat", meta)
		}},
		{"dir", func(p string) (types.DataObject, error) { return b.RegisterDirectory("alice", p, "disk1", "/cone") }},
		{"sql", func(p string) (types.DataObject, error) {
			return b.RegisterSQL("alice", p, types.SQLSpec{Resource: "db", Query: "SELECT 1"})
		}},
		{"url", func(p string) (types.DataObject, error) { return b.RegisterURL("alice", p, "mem://site/page") }},
		{"method", func(p string) (types.DataObject, error) {
			return b.RegisterMethod("alice", p, types.MethodSpec{Name: "echo"})
		}},
	}
}

// A create into a linked collection lands at the link target and
// returns the object there, with its triplets.
func TestCreateThroughLinkedCollection(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	b, _ := createRig(t, cat)
	for _, err := range []error{
		b.Mkdir("alice", "/home/real"),
		b.LinkColl("alice", "/home/real", "/home/alias"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	meta := []types.AVU{{Name: "band", Value: "J"}, {Name: "survey", Value: "2mass"}}
	for _, op := range createOps(b, "/home/real", meta) {
		o, err := op.do("/home/alias/" + op.name)
		want := "/home/real/" + op.name
		if err != nil || o.Path() != want {
			t.Errorf("%s into /home/alias: %s, %v; want the object at %s", op.name, o.Path(), err, want)
			continue
		}
		if stored, err := cat.GetObject(want); err != nil || stored.ID != o.ID {
			t.Errorf("%s: the catalog holds %+v (%v), want ID %d", op.name, stored, err, o.ID)
		}
	}
	for _, name := range []string{"put", "member", "file"} {
		if avus, err := cat.GetMeta("/home/real/"+name, types.MetaUser); err != nil || !slices.Equal(avus, meta) {
			t.Errorf("%s: triplets %v (%v), want %v", name, avus, err, meta)
		}
	}
}

// RegisterFile refuses an unnamed triplet, as a put does, and keeps
// nothing of the registration: no row, no journal line.
func TestRegisterFileRefusedTripletStoresNothing(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	var jnl bytes.Buffer
	cat.SetJournal(durable.NewJournal(&jnl))
	b, _ := createRig(t, cat)
	lines := jnl.Len()

	_, err := b.RegisterFile("alice", "/home/reg", "disk1", "/outside/f.dat",
		[]types.AVU{{Name: "color", Value: "red"}, {Name: "", Value: "x"}})
	if !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("register with an unnamed triplet: err = %v, want ErrInvalid", err)
	}
	if o, err := cat.GetObject("/home/reg"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("the refused registration left a row: %+v (%v)", o, err)
	}
	if jnl.Len() != lines {
		t.Errorf("the refused registration journaled %q", jnl.Bytes()[lines:])
	}
}

// brokenDisk refuses to create any file.
type brokenDisk struct{ *memfs.FS }

func (brokenDisk) Create(string) (storage.WriteFile, error) { return nil, errIO }

// Every creating op writes exactly one journal entry for the object it
// makes — a member also the container's update — on a monolith and on a
// 4-shard router; one that fails before its commit writes none.
func TestCreateJournalEntries(t *testing.T) {
	for _, shards := range []int{0, 4} { // 0: a monolithic catalog
		var bufs []*bytes.Buffer
		var cat shard.Catalog
		if shards == 0 {
			mono := mcat.New("admin", "sdsc")
			bufs = append(bufs, new(bytes.Buffer))
			mono.SetJournal(durable.NewJournal(bufs[0]))
			cat = mono
		} else {
			r := shard.NewRouter(shards, "admin", "sdsc")
			for i := 0; i < shards; i++ {
				bufs = append(bufs, new(bytes.Buffer))
				r.AttachJournal(i, durable.NewJournal(bufs[i]))
			}
			cat = r
		}
		b, disks := createRig(t, cat)
		for _, err := range []error{
			b.AddPhysicalResource("admin", "broken", types.ClassFileSystem, "memfs", brokenDisk{memfs.New()}),
			b.AddLogicalResource("admin", "half", []string{"disk1", "broken"}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		// written returns the entries journaled since the last call, by
		// shard in order.
		seen := make([]int, len(bufs))
		written := func() []mcat.Entry {
			var out []mcat.Entry
			for i, buf := range bufs {
				for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()[seen[i]:]), []byte("\n")) {
					if len(line) == 0 {
						continue
					}
					var e mcat.Entry
					if err := json.Unmarshal(line, &e); err != nil {
						t.Fatal(err)
					}
					out = append(out, e)
				}
				seen[i] = buf.Len()
			}
			return out
		}
		written()

		meta := []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: "12"}}
		for _, op := range createOps(b, "/home", meta) {
			if _, err := op.do("/home/" + op.name); err != nil {
				t.Fatalf("shards=%d, %s: %v", shards, op.name, err)
			}
			var ops []string
			var ingest mcat.Entry
			for _, e := range written() {
				ops = append(ops, e.Op)
				if e.Op == "ingest" {
					ingest = e
				}
			}
			slices.Sort(ops)
			want := []string{"ingest"}
			if op.name == "member" {
				want = []string{"ingest", "update"}
			}
			if !slices.Equal(ops, want) {
				t.Errorf("shards=%d, %s journaled %v, want %v", shards, op.name, ops, want)
			}
			if takesMeta := op.name == "put" || op.name == "member" || op.name == "file"; takesMeta && !slices.Equal(ingest.Meta, meta) {
				t.Errorf("shards=%d, %s: the ingest entry carries %v, want %v", shards, op.name, ingest.Meta, meta)
			}
		}

		// A container whose second segment cannot be made: no entry, no
		// row, and the first segment removed.
		files := disks[0].Usage().Files
		if _, err := b.CreateContainer("alice", "/home/halfbox", "half"); !errors.Is(err, errIO) {
			t.Errorf("shards=%d, mkcontainer on a broken disk: err = %v, want the disk's error", shards, err)
		}
		if got := written(); len(got) != 0 {
			t.Errorf("shards=%d, the failed mkcontainer journaled %+v", shards, got)
		}
		if o, err := cat.GetObject("/home/halfbox"); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("shards=%d, the failed mkcontainer left a row: %+v (%v)", shards, o, err)
		}
		if n := disks[0].Usage().Files; n != files {
			t.Errorf("shards=%d, the failed mkcontainer left %d segment files", shards, n-files)
		}
	}
}
