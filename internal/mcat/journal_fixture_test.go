package mcat_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// The journal fixture pins the journal format. testdata/journal.v1 was
// written by fixtureScript at the commit before the entry type was
// exported, and testdata/journal.v1.dump is what replaying it answered
// there. The format is unchanged while the same script still journals
// the same bytes and the fixture still replays to the same dump.
// testdata/journal.ingest and its dump pin the "ingest" entry, a put, the
// same way from the commit that introduced it.

var fixtureEpoch = time.Date(2002, 7, 24, 9, 0, 0, 0, time.UTC)

// fixtureKinds is every entry kind the fixture must hold.
var fixtureKinds = []string{
	"adduser", "deluser", "addgroup", "addtogroup", "rmfromgroup",
	"addresource", "delresource", "setonline", "replpolicy", "setresourceacl",
	"mkcoll", "rmcoll", "movecoll", "linkcoll",
	"register", "update", "delete", "move",
	"setacl", "addmeta", "updmeta", "delmeta", "copymeta", "filemeta",
	"structural", "delstructural", "annotate", "delannotations",
	"repairenq", "repairdone",
}

// fixtureScript makes at least one mutation of every entry kind.
func fixtureScript(t *testing.T, c shard.Catalog) {
	t.Helper()
	m := func(err error) { t.Helper(); must(t, err) }
	n := func(k int, err error) {
		t.Helper()
		if err != nil || k == 0 {
			t.Fatalf("changed %d (%v)", k, err)
		}
	}
	m(c.AddUser(types.User{Name: "alice", Domain: "sdsc"}))
	m(c.AddUser(types.User{Name: "carol", Domain: "caltech"}))
	m(c.AddGroup("curators"))
	m(c.AddToGroup("curators", "alice"))
	m(c.AddToGroup("curators", "carol"))
	m(c.RemoveFromGroup("curators", "carol"))
	m(c.DeleteUser("carol"))

	for _, name := range []string{"disk1", "tape1", "scratch"} {
		m(c.AddResource(types.Resource{Name: name, Kind: types.ResourcePhysical, Driver: "memfs", Server: "srb1"}))
	}
	m(c.AddResource(types.Resource{Name: "archive", Kind: types.ResourceLogical, Members: []string{"disk1", "tape1"}}))
	m(c.SetResourcePolicy("archive", "async:1"))
	m(c.SetResourceOnline("tape1", false))
	m(c.SetResourceACL("disk1", "alice", acl.Read))
	m(c.DeleteResource("scratch"))

	m(c.MkColl("/home", "admin"))
	m(c.MkCollAll("/home/alice/data", "alice"))
	m(c.MkColl("/home/alice/tmp", "alice"))
	m(c.DeleteColl("/home/alice/tmp"))
	m(c.MkColl("/home/alice/old", "alice"))
	m(c.MoveColl("/home/alice/old", "/home/alice/new"))
	m(c.LinkColl("/home/alice/data", "/home/alice/shortcut", "alice"))

	for _, name := range []string{"a.fits", "b.txt", "meta.xml", "gone.dat"} {
		_, err := c.RegisterObject(&types.DataObject{
			Collection: "/home/alice/data", Name: name, Owner: "alice", DataType: "generic",
			Replicas: []types.Replica{{Number: 0, Resource: "disk1", PhysicalPath: "/vault/" + name}},
		})
		m(err)
	}
	m(c.UpdateObject("/home/alice/data/a.fits", func(o *types.DataObject) error {
		o.Size = 2880
		o.Checksum = "sha256:00"
		o.Replicas = append(o.Replicas, types.Replica{Number: 1, Resource: "tape1", PhysicalPath: "/tape/a.fits"})
		return nil
	}))
	m(c.DeleteObject("/home/alice/data/gone.dat"))
	m(c.MoveObject("/home/alice/data/b.txt", "/home/alice/new", "c.txt"))

	m(c.SetACL("/home/alice/data", "alice", acl.Own))
	m(c.SetACL("/home", acl.GroupPrefix+"curators", acl.Read))
	m(c.SetACL("/home/alice/data/a.fits", acl.Public, acl.Read))
	a := "/home/alice/data/a.fits"
	m(c.AddMeta(a, types.MetaUser, types.AVU{Name: "band", Value: "J"}))
	m(c.AddMeta(a, types.MetaUser, types.AVU{Name: "band", Value: "H"}))
	m(c.AddMeta(a, types.MetaType, types.AVU{Name: "dc:title", Value: "M31", Units: "text"}))
	m(c.AddMeta("/home/alice", types.MetaUser, types.AVU{Name: "project", Value: "2mass"}))
	n(c.UpdateMeta(a, types.MetaUser, "band", "J", types.AVU{Name: "band", Value: "K"}))
	n(c.DeleteMeta(a, types.MetaUser, "band", "H"))
	m(c.CopyMeta(a, "/home/alice/new/c.txt"))
	m(c.AttachFileMeta(a, "/home/alice/data/meta.xml"))
	m(c.SetStructural("/home/alice/data", types.StructuralAttr{Name: "origin", Mandatory: true, Defaults: []string{"2mass"}}))
	m(c.SetStructural("/home/alice/data", types.StructuralAttr{Name: "draft", Comment: "removed below"}))
	m(c.DeleteStructural("/home/alice/data", "draft"))
	m(c.AddAnnotation(a, types.Annotation{Author: "alice", Text: "calibrated"}))
	m(c.AddAnnotation(a, types.Annotation{Author: "bob", Kind: "errata", Text: "wrong band"}))
	n(c.DeleteAnnotations(a, "bob"))

	c.EnqueueRepair(types.RepairTask{Path: a, Resource: "tape1", Kind: "replicate", Reason: "async:1"})
	c.EnqueueRepair(types.RepairTask{Path: "/home/alice/new/c.txt", Resource: "tape1", Kind: "replicate"})
	c.NoteRepairAttempt(types.RepairKey(a, "tape1"))
	c.CompleteRepair(types.RepairKey("/home/alice/new/c.txt", "tape1"))
}

func fixtureID(id types.ObjectID) string { return fmt.Sprint(id) }

func TestJournalFixture(t *testing.T) {
	checkFixture(t, "testdata/journal.v1", fixtureScript, fixtureKinds)
}

// TestJournalFixtureIngest pins the "ingest" entry: one put — an object
// with two replica rows and two metadata triplets — as the one line it
// journals, through a monolith and a one-shard router alike.
func TestJournalFixtureIngest(t *testing.T) {
	checkFixture(t, "testdata/journal.ingest", ingestScript, []string{"ingest"})
}

// ingestScript makes the accounts, resources and collection a put needs,
// then commits one put.
func ingestScript(t *testing.T, c shard.Catalog) {
	t.Helper()
	m := func(err error) { t.Helper(); must(t, err) }
	m(c.AddUser(types.User{Name: "alice", Domain: "sdsc"}))
	for _, name := range []string{"disk1", "tape1"} {
		m(c.AddResource(types.Resource{Name: name, Kind: types.ResourcePhysical, Driver: "memfs", Server: "srb1"}))
	}
	m(c.MkColl("/home", "admin"))
	m(c.MkColl("/home/alice", "alice"))
	putM31(t, c)
}

// putM31 commits one put — an object with two replica rows and two
// metadata triplets — into /home/alice, on disk1 and tape1.
func putM31(t *testing.T, c shard.Catalog) {
	t.Helper()
	m := func(err error) { t.Helper(); must(t, err) }
	const path = "/home/alice/m31.fits"
	id, err := c.NewObjectID(path)
	m(err)
	replica := func(n types.ReplicaNumber, resource string) types.Replica {
		return types.Replica{Number: n, Resource: resource, PhysicalPath: fmt.Sprintf("/vault/%03d/oid%d.r%d", id%512, id, n),
			Status: types.ReplicaClean, Size: 2880, Checksum: "sha256:2880", CreatedAt: fixtureEpoch}
	}
	m(c.Ingest("/home/alice/m31.fits", &types.DataObject{
		ID: id, Collection: "/home/alice", Name: "m31.fits", Owner: "alice", DataType: "fits image",
		Size: 2880, Checksum: "sha256:2880", Replicas: []types.Replica{replica(0, "disk1"), replica(1, "tape1")},
	}, []types.AVU{{Name: "band", Value: "J"}, {Name: "dc:title", Value: "M31", Units: "text"}}))
}

// checkFixture holds a journal fixture: script journals exactly its bytes
// through a monolith and through a one-shard router, it holds a line of
// every one of kinds, and it replays to the dump beside it — the answers
// it gave when it was written — and to the catalog that wrote it.
func checkFixture(t *testing.T, file string, script func(*testing.T, shard.Catalog), kinds []string) {
	t.Helper()
	fixture, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wantDump, err := os.ReadFile(file + ".dump")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	live := mcat.New("admin", "sdsc")
	live.SetClock(func() time.Time { return fixtureEpoch })
	live.SetJournal(durable.NewJournal(&buf))
	script(t, live)
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Errorf("the fixture script no longer journals the bytes of %s:\n%s", file, buf.Bytes())
	}
	// A one-shard router is a passthrough: it journals the same bytes.
	var routed bytes.Buffer
	r := shard.NewRouter(1, "admin", "sdsc")
	r.SetClock(func() time.Time { return fixtureEpoch })
	r.AttachJournal(0, durable.NewJournal(&routed))
	script(t, r)
	if !bytes.Equal(routed.Bytes(), fixture) {
		t.Errorf("the fixture script through a one-shard router journals other bytes than %s:\n%s", file, routed.Bytes())
	}
	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(fixture), []byte("\n")) {
		var e struct{ Op string }
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("fixture line %q: %v", line, err)
		}
		seen[e.Op] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("the fixture holds no %q entry", k)
		}
	}

	replayed := mcat.New("admin", "sdsc")
	st, err := replayed.ReplayCounted(bytes.NewReader(fixture))
	if err != nil || st.Corrupt != 0 {
		t.Fatalf("replay: %+v, %v", st, err)
	}
	got := dump(replayed, fixtureID)
	if d := diffDump(got, splitDump(wantDump)); d != "" {
		t.Errorf("the fixture replays to another dump than it did when written: %s", d)
	}
	if d := diffDump(dump(live, fixtureID), got); d != "" {
		t.Errorf("replay differs from the catalog that wrote the journal: %s", d)
	}
}

// refusingDisk is a journal writer that refuses every Write.
type refusingDisk struct{}

func (refusingDisk) Write([]byte) (int, error) { return 0, errors.New("input/output error") }

// TestEveryKindRefusedWhenAppendFails holds that every kind is logged
// before it is applied: each line of testdata/journal.v1, applied to the
// state the lines before it make through a journal that refuses the
// Write, is refused, latches the journal and leaves every read answering
// as before.
func TestEveryKindRefusedWhenAppendFails(t *testing.T) {
	fixture, err := os.ReadFile("testdata/journal.v1")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(fixture), []byte("\n"))
	for k, line := range lines {
		var e mcat.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		c := mcat.New("admin", "sdsc")
		if st, err := c.ReplayCounted(bytes.NewReader(bytes.Join(lines[:k], []byte("\n")))); err != nil || st.Applied != k {
			t.Fatalf("line %d: replaying the lines before it: %+v, %v", k+1, st, err)
		}
		before := dump(c, fixtureID)
		c.SetJournal(durable.NewJournal(refusingDisk{}))
		if err := c.Apply(e); err == nil || c.JournalErr() == nil {
			t.Errorf("line %d, %s: Apply = %v, JournalErr = %v; want the append's error latched", k+1, e.Op, err, c.JournalErr())
		}
		if d := diffDump(dump(c, fixtureID), before); d != "" {
			t.Errorf("line %d, %s: a refused append changed the catalog: %s", k+1, e.Op, d)
		}
	}
}

func splitDump(b []byte) []string {
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	return out
}
