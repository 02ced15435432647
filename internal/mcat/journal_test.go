package mcat

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
	"gosrb/internal/types"
)

// journalRoundTrip exercises a mutation sequence with a journal
// attached, replays it into a fresh catalog, and returns both.
func journalRoundTrip(t *testing.T, mutate func(c *Catalog)) (*Catalog, *Catalog) {
	t.Helper()
	var buf bytes.Buffer
	c1 := New("admin", "sdsc")
	c1.SetJournal(durable.NewJournal(&buf))
	mutate(c1)
	c2 := New("admin", "sdsc")
	if _, err := c2.ReplayCounted(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return c1, c2
}

func TestJournalReplaysNamespace(t *testing.T) {
	c1, c2 := journalRoundTrip(t, func(c *Catalog) {
		c.AddUser(types.User{Name: "alice", Domain: "sdsc"})
		c.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"})
		c.MkColl("/home", "admin")
		c.MkCollAll("/home/alice/deep", "alice")
		mustRegister(t, c, "/home/alice", "f.txt", "alice")
		c.UpdateObject("/home/alice/f.txt", func(o *types.DataObject) error {
			o.Size = 42
			o.Replicas = []types.Replica{{Number: 0, Resource: "r1", PhysicalPath: "/v/1", Status: types.ReplicaClean}}
			return nil
		})
		c.MoveObject("/home/alice/f.txt", "/home/alice/deep", "g.txt")
	})
	o1, err1 := c1.GetObject("/home/alice/deep/g.txt")
	o2, err2 := c2.GetObject("/home/alice/deep/g.txt")
	if err1 != nil || err2 != nil {
		t.Fatalf("objects: %v / %v", err1, err2)
	}
	if o1.ID != o2.ID || o2.Size != 42 || len(o2.Replicas) != 1 {
		t.Errorf("replayed object = %+v, want %+v", o2, o1)
	}
	if _, err := c2.GetUser("alice"); err != nil {
		t.Error("user lost in replay")
	}
	if _, err := c2.GetResource("r1"); err != nil {
		t.Error("resource lost in replay")
	}
	// IDs continue past the replayed maximum.
	id2 := mustRegister(t, c2, "/home", "new", "alice")
	if id2 <= o2.ID {
		t.Errorf("nextID after replay: %d <= %d", id2, o2.ID)
	}
}

func TestJournalReplaysMetadataAndACLs(t *testing.T) {
	c1, c2 := journalRoundTrip(t, func(c *Catalog) {
		c.AddUser(types.User{Name: "bob", Domain: "x"})
		c.AddGroup("curators")
		c.AddToGroup("curators", "bob")
		c.MkColl("/d", "admin")
		mustRegister(t, c, "/d", "f", "admin")
		c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
		c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "blue"})
		c.UpdateMeta("/d/f", types.MetaUser, "color", "red", types.AVU{Name: "color", Value: "green"})
		c.DeleteMeta("/d/f", types.MetaUser, "color", "blue")
		c.SetACL("/d/f", "bob", acl.Write)
		c.SetACL("/d", acl.GroupPrefix+"curators", acl.Annotate)
		c.SetStructural("/d", types.StructuralAttr{Name: "need", Mandatory: true})
		c.AddAnnotation("/d/f", types.Annotation{Author: "bob", Text: "note"})
	})
	m1, _ := c1.GetMeta("/d/f", types.MetaUser)
	m2, _ := c2.GetMeta("/d/f", types.MetaUser)
	if len(m1) != 1 || len(m2) != 1 || m2[0].Value != "green" {
		t.Errorf("meta after replay = %+v (orig %+v)", m2, m1)
	}
	// The attribute index was rebuilt by the replayed mutations.
	hits, _ := c2.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "green"}}})
	if len(hits) != 1 {
		t.Errorf("index after replay: %+v", hits)
	}
	if got := c2.EffectiveLevel("/d/f", "bob"); got != acl.Write {
		t.Errorf("ACL after replay = %v", got)
	}
	if !c2.GroupsOf("bob")["curators"] {
		t.Error("group membership lost")
	}
	if len(c2.Structural("/d")) != 1 {
		t.Error("structural lost")
	}
	if anns, _ := c2.Annotations("/d/f"); len(anns) != 1 {
		t.Error("annotation lost")
	}
}

func TestJournalReplaysDeletesAndLinks(t *testing.T) {
	_, c2 := journalRoundTrip(t, func(c *Catalog) {
		c.MkColl("/a", "admin")
		c.MkColl("/b", "admin")
		mustRegister(t, c, "/a", "gone", "admin")
		c.DeleteObject("/a/gone")
		c.MkColl("/a/sub", "admin")
		c.MoveColl("/a/sub", "/b/sub")
		c.LinkColl("/b/sub", "/a/lnk", "admin")
		c.DeleteColl("/b/sub") // empty; the link dangles but stays
	})
	if _, err := c2.GetObject("/a/gone"); err == nil {
		t.Error("deleted object resurrected by replay")
	}
	if c2.CollExists("/b/sub") {
		t.Error("deleted collection resurrected")
	}
	col, err := c2.GetColl("/a/lnk")
	if err != nil || col.LinkTarget != "/b/sub" {
		t.Errorf("linked collection after replay = %+v, %v", col, err)
	}
}

func TestSnapshotPlusJournalTail(t *testing.T) {
	// The intended recovery flow: load the snapshot, then replay the
	// journal tail written after it.
	c1 := New("admin", "sdsc")
	c1.MkColl("/d", "admin")
	mustRegister(t, c1, "/d", "before", "admin")
	var snap bytes.Buffer
	if err := c1.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	c1.SetJournal(durable.NewJournal(&tail))
	mustRegister(t, c1, "/d", "after", "admin")
	c1.AddMeta("/d/after", types.MetaUser, types.AVU{Name: "k", Value: "v"})

	c2 := New("admin", "sdsc")
	if err := c2.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, err := c2.ReplayCounted(bytes.NewReader(tail.Bytes()))
	if err != nil || st != (ReplayStats{Applied: 2}) {
		t.Fatalf("replay = %+v, %v", st, err)
	}
	for _, p := range []string{"/d/before", "/d/after"} {
		if _, err := c2.GetObject(p); err != nil {
			t.Errorf("missing %s after recovery: %v", p, err)
		}
	}
}

func TestReplayIsIdempotentOnDuplicates(t *testing.T) {
	var buf bytes.Buffer
	c1 := New("admin", "sdsc")
	c1.SetJournal(durable.NewJournal(&buf))
	c1.MkColl("/d", "admin")
	mustRegister(t, c1, "/d", "f", "admin")

	c2 := New("admin", "sdsc")
	// Replay the same journal twice: duplicates are skipped, not fatal.
	if _, err := c2.ReplayCounted(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, err := c2.ReplayCounted(bytes.NewReader(buf.Bytes()))
	if err != nil || st != (ReplayStats{Refused: 2}) {
		t.Errorf("second replay = %+v, %v", st, err)
	}
	if len(c2.SubtreeObjects("/")) != 1 {
		t.Error("duplicate replay must not duplicate objects")
	}
}

// TestReplayCountsGarbage: a line that is not an entry is skipped and
// counted, never applied and never silently lost.
func TestReplayCountsGarbage(t *testing.T) {
	c := New("admin", "sdsc")
	st, err := c.ReplayCounted(strings.NewReader("not json\n"))
	if err != nil || st != (ReplayStats{Corrupt: 1}) {
		t.Errorf("garbage line: %+v, %v, want Corrupt == 1", st, err)
	}
	// Unknown ops are refused, and are not corruption.
	st, err = c.ReplayCounted(strings.NewReader(`{"Op":"future-op"}` + "\n"))
	if err != nil || st != (ReplayStats{Refused: 1}) {
		t.Errorf("unknown op: %+v, %v", st, err)
	}
}

func TestJournalFile(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "mcat.journal")
	j, err := OpenJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	c1 := New("admin", "sdsc")
	c1.SetJournal(j)
	c1.MkColl("/d", "admin")
	mustRegister(t, c1, "/d", "f", "admin")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	resume := func(c *Catalog, path string) ReplayStats {
		t.Helper()
		j, err := OpenJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		st, err := c.Resume(j)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	c2 := New("admin", "sdsc")
	if st := resume(c2, jpath); st != (ReplayStats{Applied: 2}) {
		t.Fatalf("Resume = %+v", st)
	}
	if _, err := c2.GetObject("/d/f"); err != nil {
		t.Error("file journal replay lost the object")
	}
	// Missing journals apply nothing.
	if st := resume(New("admin", "sdsc"), filepath.Join(dir, "absent")); st != (ReplayStats{}) {
		t.Errorf("missing journal: %+v", st)
	}
}

func TestReplayDoesNotRelog(t *testing.T) {
	var src bytes.Buffer
	c1 := New("admin", "sdsc")
	c1.SetJournal(durable.NewJournal(&src))
	c1.MkColl("/d", "admin")

	var dst bytes.Buffer
	c2 := New("admin", "sdsc")
	c2.SetJournal(durable.NewJournal(&dst))
	if _, err := c2.ReplayCounted(bytes.NewReader(src.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Errorf("replay re-logged %d bytes", dst.Len())
	}
	// The journal stays attached: new mutations log again.
	c2.MkColl("/e", "admin")
	if dst.Len() == 0 {
		t.Error("journal should stay attached through replay")
	}
}

// A memory journal past its bound empties itself under a new
// generation: a position in the old one reads nothing and is sent a
// snapshot, and the new generation reads the line that overflowed it.
func TestMemJournalEmptiesPastBound(t *testing.T) {
	const max = 512
	j := durable.NewMemJournal(max)
	c := New("admin", "sdsc")
	c.SetJournal(j)
	start := j.Pos()
	if start.Gen == 0 || start.Off == 0 {
		t.Fatalf("a new memory journal is at %+v, want a generation and its head", start)
	}
	for i := 0; j.Pos().Gen == start.Gen; i++ {
		if err := c.MkColl(fmt.Sprintf("/c%d", i), "admin"); err != nil {
			t.Fatal(err)
		}
	}
	if size := j.Pos().Off; size >= max {
		t.Errorf("the emptied journal is %d bytes, past its bound %d", size, max)
	}
	old, err := c.ReadJournal(start, 1<<20)
	if err != nil || old.Snapshot == nil || old.Pos != j.Pos() {
		t.Fatalf("read from the old generation: snapshot %v at %+v, %v; want a catch-up at %+v", old.Snapshot != nil, old.Pos, err, j.Pos())
	}
	head := int64(len(durable.AppendHead(nil, j.Pos().Gen)))
	fresh, err := c.ReadJournal(JournalPos{Gen: j.Pos().Gen, Off: head}, 1<<20)
	if err != nil || len(fresh.Entries) != 1 || fresh.Pos != j.Pos() {
		t.Errorf("read from the new generation: %d entries to %+v, %v; want the line that overflowed it", len(fresh.Entries), fresh.Pos, err)
	}
}
