package core

import (
	"errors"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/audit"
	"gosrb/internal/mcat"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// newBroker builds a broker with two memfs resources, a logical
// resource over both, and two non-admin users.
func newBroker(t *testing.T) *Broker {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	b := New(cat, "srb1")
	for _, r := range []string{"disk1", "disk2"} {
		if err := b.AddPhysicalResource("admin", r, types.ClassFileSystem, "memfs", memfs.New()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddLogicalResource("admin", "mirror", []string{"disk1", "disk2"}); err != nil {
		t.Fatal(err)
	}
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.AddUser(types.User{Name: "bob", Domain: "caltech"})
	if err := cat.MkColl("/home", "admin"); err != nil {
		t.Fatal(err)
	}
	// Write inherits down the hierarchy, so the grant is per-user: a
	// public write grant would let anyone read everyone's objects.
	cat.SetACL("/home", "alice", acl.Write)
	return b
}

func TestIngestAndGet(t *testing.T) {
	b := newBroker(t)
	o, err := b.Ingest("alice", IngestOpts{
		Path: "/home/f.txt", Data: []byte("hello grid"), Resource: "disk1",
		Meta: []types.AVU{{Name: "color", Value: "red"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Size != 10 || len(o.Replicas) != 1 || o.Owner != "alice" {
		t.Errorf("object = %+v", o)
	}
	data, err := b.Get("alice", "/home/f.txt")
	if err != nil || string(data) != "hello grid" {
		t.Errorf("Get = %q, %v", data, err)
	}
	avus, _ := b.GetMeta("alice", "/home/f.txt", types.MetaUser)
	if len(avus) != 1 || avus[0].Value != "red" {
		t.Errorf("meta = %+v", avus)
	}
	// A stranger without a grant cannot read.
	if _, err := b.Get("bob", "/home/f.txt"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("stranger read: %v", err)
	}
	// Owner grants read; bob succeeds.
	if err := b.Chmod("alice", "/home/f.txt", "bob", acl.Read); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("bob", "/home/f.txt"); err != nil {
		t.Errorf("granted read: %v", err)
	}
}

func TestIngestIntoLogicalResourceReplicates(t *testing.T) {
	b := newBroker(t)
	o, err := b.Ingest("alice", IngestOpts{Path: "/home/m.dat", Data: []byte("mirrored"), Resource: "mirror"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Replicas) != 2 {
		t.Fatalf("replicas = %+v", o.Replicas)
	}
	seen := map[string]bool{}
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean {
			t.Errorf("replica %d not clean: %+v", r.Number, r)
		}
		seen[r.Resource] = true
	}
	if !seen["disk1"] || !seen["disk2"] {
		t.Errorf("replicas on %v", seen)
	}
	// Failover: disk1 down, reads succeed from disk2.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/m.dat")
	if err != nil || string(data) != "mirrored" {
		t.Errorf("failover Get = %q, %v", data, err)
	}
}

func TestIngestGuards(t *testing.T) {
	b := newBroker(t)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/ghost/f", Data: nil, Resource: "disk1"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing collection: %v", err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/f"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("no resource: %v", err)
	}
	// Root collection is not publicly writable.
	if _, err := b.Ingest("alice", IngestOpts{Path: "/top", Data: nil, Resource: "disk1"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("root ingest: %v", err)
	}
	// Mandatory structural metadata is enforced.
	b.Cat.SetStructural("/home", types.StructuralAttr{Name: "project", Mandatory: true})
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/x", Data: nil, Resource: "disk1"}); !errors.Is(err, types.ErrMandatoryMeta) {
		t.Errorf("mandatory meta: %v", err)
	}
	if _, err := b.Ingest("alice", IngestOpts{
		Path: "/home/x", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "project", Value: "srb"}},
	}); err != nil {
		t.Errorf("satisfied mandatory: %v", err)
	}
}

func TestReingestKeepsMetadata(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("v1"), Resource: "mirror",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	if err := b.Reingest("alice", "/home/f", []byte("version two")); err != nil {
		t.Fatal(err)
	}
	data, _ := b.Get("alice", "/home/f")
	if string(data) != "version two" {
		t.Errorf("after reingest = %q", data)
	}
	avus, _ := b.GetMeta("alice", "/home/f", types.MetaUser)
	if len(avus) != 1 {
		t.Error("metadata must survive reingest")
	}
	o, _ := b.Cat.GetObject("/home/f")
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean || r.Size != 11 {
			t.Errorf("replica after reingest: %+v", r)
		}
	}
}

func TestMkdirListDelete(t *testing.T) {
	b := newBroker(t)
	if err := b.Mkdir("alice", "/home/sub"); err != nil {
		t.Fatal(err)
	}
	b.Ingest("alice", IngestOpts{Path: "/home/sub/f", Data: []byte("x"), Resource: "disk1"})
	stats, err := b.List("alice", "/home/sub")
	if err != nil || len(stats) != 1 {
		t.Errorf("List = %+v, %v", stats, err)
	}
	st, err := b.StatPath("alice", "/home/sub")
	if err != nil || !st.IsCollect {
		t.Errorf("StatPath coll = %+v, %v", st, err)
	}
	st, err = b.StatPath("alice", "/home/sub/f")
	if err != nil || st.Size != 1 {
		t.Errorf("StatPath obj = %+v, %v", st, err)
	}
	if err := b.RmColl("alice", "/home/sub"); !errors.Is(err, types.ErrNotEmpty) {
		t.Errorf("rmcoll non-empty: %v", err)
	}
	if err := b.Delete("alice", "/home/sub/f"); err != nil {
		t.Fatal(err)
	}
	if err := b.RmColl("alice", "/home/sub"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRemovesBytesAndMetadata(t *testing.T) {
	b := newBroker(t)
	o, _ := b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("bye"), Resource: "disk1",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	d, _ := b.Driver("disk1")
	if _, err := d.Stat(o.Replicas[0].PhysicalPath); err != nil {
		t.Fatal("bytes should exist before delete")
	}
	if err := b.Delete("alice", "/home/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat(o.Replicas[0].PhysicalPath); !errors.Is(err, types.ErrNotFound) {
		t.Error("bytes should be removed")
	}
	hits, _ := b.Cat.RunQuery(mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v"}}})
	if len(hits) != 0 {
		t.Error("metadata should die with the object")
	}
	// Delete requires Own.
	b.Ingest("alice", IngestOpts{Path: "/home/g", Data: nil, Resource: "disk1"})
	if err := b.Delete("bob", "/home/g"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign delete: %v", err)
	}
}

func TestDeleteReplicaOneAtATime(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("multi"), Resource: "mirror",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	if err := b.DeleteReplica("alice", "/home/f", 0); err != nil {
		t.Fatal(err)
	}
	o, _ := b.Cat.GetObject("/home/f")
	if len(o.Replicas) != 1 {
		t.Fatalf("replicas = %+v", o.Replicas)
	}
	// Deleting the last replica deletes object + metadata.
	if err := b.DeleteReplica("alice", "/home/f", o.Replicas[0].Number); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cat.GetObject("/home/f"); !errors.Is(err, types.ErrNotFound) {
		t.Error("object should be gone after last replica")
	}
}

func TestCopyDropsUserMetadata(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/src", Data: []byte("payload"), Resource: "disk1",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	b.Annotate("alice", "/home/src", types.Annotation{Text: "note"})
	if err := b.Copy("alice", "/home/src", "/home/dst", ""); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("alice", "/home/dst")
	if err != nil || string(data) != "payload" {
		t.Errorf("copy contents = %q, %v", data, err)
	}
	avus, _ := b.GetMeta("alice", "/home/dst", types.MetaUser)
	if len(avus) != 0 {
		t.Error("copy must not carry user metadata")
	}
	anns, _ := b.Annotations("alice", "/home/dst")
	if len(anns) != 0 {
		t.Error("copy must not carry annotations")
	}
	// Copies are unconnected: changing the copy leaves the source alone.
	b.Reingest("alice", "/home/dst", []byte("changed"))
	src, _ := b.Get("alice", "/home/src")
	if string(src) != "payload" {
		t.Error("source affected by copy mutation")
	}
}

func TestCopyCollectionRecursive(t *testing.T) {
	b := newBroker(t)
	b.Mkdir("alice", "/home/proj")
	b.Mkdir("alice", "/home/proj/sub")
	b.Ingest("alice", IngestOpts{Path: "/home/proj/a", Data: []byte("1"), Resource: "disk1"})
	b.Ingest("alice", IngestOpts{Path: "/home/proj/sub/b", Data: []byte("2"), Resource: "disk1"})
	if err := b.Copy("alice", "/home/proj", "/home/proj2", ""); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/home/proj2/a", "/home/proj2/sub/b"} {
		if _, err := b.Get("alice", p); err != nil {
			t.Errorf("copied %s: %v", p, err)
		}
	}
}

func TestMoveKeepsMetadata(t *testing.T) {
	b := newBroker(t)
	b.Mkdir("alice", "/home/a")
	b.Mkdir("alice", "/home/b")
	b.Ingest("alice", IngestOpts{Path: "/home/a/f", Data: []byte("x"), Resource: "disk1",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	if err := b.Move("alice", "/home/a/f", "/home/b/g"); err != nil {
		t.Fatal(err)
	}
	avus, err := b.GetMeta("alice", "/home/b/g", types.MetaUser)
	if err != nil || len(avus) != 1 {
		t.Errorf("meta after move = %+v, %v", avus, err)
	}
	// Bytes are reachable without a physical move.
	data, err := b.Get("alice", "/home/b/g")
	if err != nil || string(data) != "x" {
		t.Errorf("get after move = %q, %v", data, err)
	}
	// Move requires Own.
	b.Ingest("alice", IngestOpts{Path: "/home/a/h", Data: nil, Resource: "disk1"})
	if err := b.Move("bob", "/home/a/h", "/home/b/h"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign move: %v", err)
	}
}

func TestLinkSemantics(t *testing.T) {
	b := newBroker(t)
	b.Mkdir("alice", "/home/orig")
	b.Mkdir("alice", "/home/links")
	b.Ingest("alice", IngestOpts{Path: "/home/orig/f", Data: []byte("linked data"), Resource: "disk1"})
	b.Chmod("alice", "/home/orig/f", acl.Public, acl.Read)
	if err := b.Link("alice", "/home/orig/f", "/home/links/lnk"); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("bob", "/home/links/lnk")
	if err != nil || string(data) != "linked data" {
		t.Errorf("get via link = %q, %v", data, err)
	}
	// Chained link collapses to the original target.
	if err := b.Link("alice", "/home/links/lnk", "/home/links/lnk2"); err != nil {
		t.Fatal(err)
	}
	o, _ := b.Cat.GetObject("/home/links/lnk2")
	if o.LinkTarget != "/home/orig/f" {
		t.Errorf("chained link target = %q", o.LinkTarget)
	}
	// Deleting a link only unlinks.
	if err := b.Delete("alice", "/home/links/lnk"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/orig/f"); err != nil {
		t.Error("original must survive link deletion")
	}
	// Link permission follows the target: revoke public read.
	b.Chmod("alice", "/home/orig/f", acl.Public, acl.None)
	if _, err := b.Get("bob", "/home/links/lnk2"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("link access after revoke: %v", err)
	}
}

func TestAuditTrail(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("x"), Resource: "disk1"})
	b.Get("alice", "/home/f")
	b.Get("bob", "/home/f") // denied
	all := b.Audit.Query(audit.Filter{})
	if len(all) < 3 {
		t.Errorf("audit records = %d", len(all))
	}
	gets := b.Audit.Query(audit.Filter{Op: "get", User: "alice"})
	if len(gets) != 1 || !gets[0].OK {
		t.Errorf("alice get audit = %+v", gets)
	}
	denied := 0
	for _, r := range all {
		if !r.OK {
			denied++
		}
	}
	if denied == 0 {
		t.Error("denied access must be audited")
	}
}
