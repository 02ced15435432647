package mcat

import (
	"bytes"
	"os"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// FuzzJournalReplay feeds arbitrary bytes — seeded with a real journal
// and with hand-broken variants — through the tolerant replay path.
// Whatever the corruption, replay must never panic and must never
// leave the catalog in a state that fails the invariant checks: a torn
// or hostile journal line may be skipped, but it cannot corrupt the
// indexes of the entries around it.
func FuzzJournalReplay(f *testing.F) {
	// Seed: a journal produced by a representative mutation sequence.
	var buf bytes.Buffer
	c := New("admin", "local")
	c.SetJournal(NewJournal(&buf))
	fuzzSeed(c)
	full := buf.Bytes()
	f.Add(full)

	// Truncated mid-line, duplicated, and spliced variants.
	if len(full) > 10 {
		f.Add(full[:len(full)-7])
		f.Add(append(append([]byte(nil), full...), full[:len(full)/2]...))
	}
	f.Add([]byte("{\"op\":\"mkcoll\"}\n"))
	f.Add([]byte("{\"op\":\"register\",\"obj\":{\"ID\":0}}\n"))
	f.Add([]byte("not json at all\n\x00\xff{\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New("admin", "local")
		if _, err := c.ReplayCounted(bytes.NewReader(data)); err != nil {
			// I/O-level errors (oversized lines) are fine; panics are not.
			return
		}
		checkInvariants(t, c)
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes to Load, which takes a
// follower's catch-up off the wire (ShardPullReply.Snapshot) — seeded
// with a snapshot, the legacy fixture, a cut copy of each and junk. Load
// never panics; one that fails leaves every table as it was, and one
// that succeeds leaves the catalog consistent.
func FuzzSnapshotLoad(f *testing.F) {
	c := New("admin", "local")
	fuzzSeed(c)
	var snap bytes.Buffer
	if err := c.Save(&snap); err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile("testdata/snapshot.v1")
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{snap.Bytes(), legacy} {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:bytes.LastIndexByte(b[:len(b)-1], '\n')+1]) // one line short
	}
	f.Add([]byte("{\"Version\":2,\"NextID\":0,\"Entries\":1}\n{\"Op\":\"mkcoll\"}\n"))
	f.Add([]byte("{\"Version\":1,\"Objects\":{\"/x\":null}}\n"))
	f.Add([]byte("not json at all\n\x00\xff{\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New("admin", "local")
		if err := c.MkColl("/kept", "admin"); err != nil {
			t.Fatal(err)
		}
		before := image(t, c)
		if err := c.Load(bytes.NewReader(data)); err != nil {
			if d := sameImage(image(t, c), before); d != "" {
				t.Fatalf("a failed load (%v) changed the catalog: %s", err, d)
			}
			return
		}
		checkInvariants(t, c)
	})
}

// fuzzSeed makes a representative mutation sequence.
func fuzzSeed(c *Catalog) {
	c.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	c.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"})
	c.MkColl("/home", "admin")
	c.MkCollAll("/home/alice/deep", "alice")
	c.RegisterObject(&types.DataObject{Collection: "/home/alice", Name: "f.txt", Owner: "alice", DataType: "generic"})
	c.AddMeta("/home/alice/f.txt", types.MetaUser, types.AVU{Name: "a", Value: "1"})
	c.SetACL("/home/alice", "alice", acl.Own)
	c.AddAnnotation("/home/alice/f.txt", types.Annotation{Author: "alice", Text: "note"})
	id, _ := c.NewObjectID("/home/alice/p.dat")
	c.Ingest(&types.DataObject{ID: id, Collection: "/home/alice", Name: "p.dat", Owner: "alice", Size: 1,
		Replicas: []types.Replica{{Resource: "r1", PhysicalPath: "/vault/p", Status: types.ReplicaClean, Size: 1}}},
		[]types.AVU{{Name: "a", Value: "2"}, {Name: "b", Value: "3"}})
	c.MoveObject("/home/alice/f.txt", "/home/alice/deep", "g.txt")
	c.DeleteObject("/home/alice/deep/g.txt")
}
