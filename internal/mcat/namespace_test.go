package mcat

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gosrb/internal/types"
)

func newCat(t *testing.T) *Catalog {
	t.Helper()
	return New("admin", "sdsc")
}

func mustMkColl(t *testing.T, c *Catalog, path, owner string) {
	t.Helper()
	if err := c.MkColl(path, owner); err != nil {
		t.Fatalf("MkColl(%s): %v", path, err)
	}
}

func mustRegister(t *testing.T, c *Catalog, coll, name, owner string) types.ObjectID {
	t.Helper()
	id, err := c.RegisterObject(&types.DataObject{
		Name: name, Collection: coll, Owner: owner, DataType: "generic",
		Replicas: []types.Replica{{Number: 0, Resource: "r1", PhysicalPath: "/phys/" + name}},
	})
	if err != nil {
		t.Fatalf("RegisterObject(%s/%s): %v", coll, name, err)
	}
	return id
}

func TestMkCollHierarchy(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/home", "admin")
	mustMkColl(t, c, "/home/sekar", "sekar")
	if err := c.MkColl("/home/sekar", "sekar"); !errors.Is(err, types.ErrExists) {
		t.Errorf("dup coll: %v", err)
	}
	if err := c.MkColl("/no/parent/here", "x"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("orphan coll: %v", err)
	}
	if err := c.MkColl("/", "x"); !errors.Is(err, types.ErrExists) {
		t.Errorf("root recreate: %v", err)
	}
	if err := c.MkCollAll("/a/b/c/d", "admin"); err != nil {
		t.Fatalf("MkCollAll: %v", err)
	}
	if !c.CollExists("/a/b/c") {
		t.Error("MkCollAll should create ancestors")
	}
	got, err := c.GetColl("/home/sekar")
	if err != nil || got.Owner != "sekar" {
		t.Errorf("GetColl = %+v, %v", got, err)
	}
}

func TestRegisterAndGetObject(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/data", "admin")
	id := mustRegister(t, c, "/data", "f.txt", "alice")
	o, err := c.GetObject("/data/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != id || o.Owner != "alice" || len(o.Replicas) != 1 {
		t.Errorf("object = %+v", o)
	}
	byID, err := c.GetObjectByID(id)
	if err != nil || byID.Path() != "/data/f.txt" {
		t.Errorf("GetObjectByID = %+v, %v", byID, err)
	}
	if _, err := c.RegisterObject(&types.DataObject{Name: "f.txt", Collection: "/data"}); !errors.Is(err, types.ErrExists) {
		t.Errorf("dup object: %v", err)
	}
	if _, err := c.RegisterObject(&types.DataObject{Name: "x", Collection: "/ghost"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("orphan object: %v", err)
	}
	if _, err := c.RegisterObject(&types.DataObject{Name: "a/b", Collection: "/data"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad name: %v", err)
	}
	// Registering a name that collides with a collection fails.
	mustMkColl(t, c, "/data/sub", "admin")
	if _, err := c.RegisterObject(&types.DataObject{Name: "sub", Collection: "/data"}); !errors.Is(err, types.ErrExists) {
		t.Errorf("object/coll collision: %v", err)
	}
}

// TestIngestedRowIsClipped: the object Ingest stores is the caller's,
// clipped, so a reader that appends to its replicas gets an array of its
// own, never the spare capacity the caller built the slice with.
func TestIngestedRowIsClipped(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	id, err := c.NewObjectID("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]types.Replica, 1, 4)
	reps[0] = types.Replica{Number: 0, Resource: "r1", PhysicalPath: "/phys/f", Status: types.ReplicaClean}
	if err := c.Ingest(&types.DataObject{ID: id, Collection: "/d", Name: "f", Owner: "u", Replicas: reps}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetObject("/d/f")
	if err != nil || len(got.Replicas) != 1 || cap(got.Replicas) != 1 {
		t.Fatalf("stored replicas: len %d cap %d, %v; want a clipped slice of 1", len(got.Replicas), cap(got.Replicas), err)
	}
}

// TestReturnedRowOutlivesWrites pins the shared-row contract: a row
// GetObject returned reads exactly as it did after the catalog updates
// it, renames it, moves its collection or adds a replica to it, and
// appending to its slices never writes into the catalog's row.
func TestReturnedRowOutlivesWrites(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustMkColl(t, c, "/d/sub", "admin")
	mustRegister(t, c, "/d", "f", "u")
	mustRegister(t, c, "/d/sub", "g", "u")
	addReplica := func(path string, n types.ReplicaNumber) {
		t.Helper()
		if err := c.UpdateObject(path, func(o *types.DataObject) error {
			o.Replicas = append(o.Replicas, types.Replica{Number: n, Resource: "r2"})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Three replicas: an unclipped row would have room for a fourth.
	addReplica("/d/f", 1)
	addReplica("/d/f", 2)
	f, _ := c.GetObject("/d/f")
	g, _ := c.GetObject("/d/sub/g")
	wantF, wantG := f.Clone(), g.Clone()

	if err := c.UpdateObject("/d/f", func(o *types.DataObject) error {
		o.Replicas[0].Status = types.ReplicaDirty
		o.Size = 999
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	addReplica("/d/f", 3)
	if err := c.MoveObject("/d/f", "/d", "f2"); err != nil {
		t.Fatal(err)
	}
	if err := c.MoveColl("/d/sub", "/d/sub2"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, *wantF) || !reflect.DeepEqual(g, *wantG) {
		t.Fatalf("a returned row changed under writes:\n%+v\n%+v", f, g)
	}

	// Two readers append to one returned row's replicas at once: each
	// gets an array of its own (-race reports a shared one).
	row, _ := c.GetObject("/d/f2")
	want := row.Clone()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps := append(row.Replicas, types.Replica{Number: 9})
			reps[0].Resource = "tampered"
		}()
	}
	wg.Wait()
	if got, _ := c.GetObject("/d/f2"); !reflect.DeepEqual(got, *want) {
		t.Errorf("appending to a returned row changed the catalog's row: %+v", got.Replicas)
	}
}

func TestListColl(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustMkColl(t, c, "/d/sub", "admin")
	mustRegister(t, c, "/d", "b.txt", "u")
	mustRegister(t, c, "/d", "a.txt", "u")
	stats, err := c.ListColl("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("ListColl = %+v", stats)
	}
	// collections first, then objects, each sorted
	if !stats[0].IsCollect || stats[0].Path != "/d/sub" {
		t.Errorf("first entry = %+v", stats[0])
	}
	if stats[1].Path != "/d/a.txt" || stats[2].Path != "/d/b.txt" {
		t.Errorf("object order = %+v", stats[1:])
	}
	if _, err := c.ListColl("/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("list missing: %v", err)
	}
}

func TestUpdateObject(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustRegister(t, c, "/d", "f", "u")
	err := c.UpdateObject("/d/f", func(o *types.DataObject) error {
		o.Size = 123
		o.Replicas = append(o.Replicas, types.Replica{Number: 1, Resource: "r2"})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := c.GetObject("/d/f")
	if o.Size != 123 || len(o.Replicas) != 2 {
		t.Errorf("after update = %+v", o)
	}
	// A failing mutator leaves the object untouched.
	errBoom := errors.New("boom")
	err = c.UpdateObject("/d/f", func(o *types.DataObject) error {
		o.Size = 999
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("expected boom, got %v", err)
	}
	o, _ = c.GetObject("/d/f")
	if o.Size != 123 {
		t.Error("failed update must not apply")
	}
	// Identity fields cannot be changed through UpdateObject.
	c.UpdateObject("/d/f", func(o *types.DataObject) error {
		o.Name = "hacked"
		return nil
	})
	if _, err := c.GetObject("/d/f"); err != nil {
		t.Error("identity must be preserved")
	}
}

func TestDeleteObjectAndColl(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustRegister(t, c, "/d", "f", "u")
	if err := c.DeleteColl("/d"); !errors.Is(err, types.ErrNotEmpty) {
		t.Errorf("non-empty delete: %v", err)
	}
	if err := c.DeleteObject("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteObject("/d/f"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := c.DeleteColl("/d"); err != nil {
		t.Fatal(err)
	}
	if c.CollExists("/d") {
		t.Error("collection should be gone")
	}
	if err := c.DeleteColl("/"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("root delete: %v", err)
	}
}

// Deleting an object drops every attachment naming it as a metadata
// file, live and in replay; Export leaves out one whose file is gone
// all the same, as a catalog written before that could hold it.
func TestDeleteObjectDropsAttachments(t *testing.T) {
	c := newCat(t)
	var buf bytes.Buffer
	c.SetJournal(NewJournal(&buf))
	mustMkColl(t, c, "/d", "admin")
	for _, name := range []string{"x", "y", "meta", "other"} {
		mustRegister(t, c, "/d", name, "u")
	}
	for _, a := range [][2]string{{"/d/x", "/d/meta"}, {"/d/x", "/d/other"}, {"/d/y", "/d/meta"}} {
		if err := c.AttachFileMeta(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteObject("/d/meta"); err != nil {
		t.Fatal(err)
	}
	replayed := newCat(t)
	if _, err := replayed.ReplayCounted(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*Catalog{c, replayed} {
		if got := cat.FileMeta("/d/x"); len(got) != 1 || got[0] != "/d/other" {
			t.Errorf("FileMeta(/d/x) = %v, want [/d/other]", got)
		}
		if got := cat.FileMeta("/d/y"); len(got) != 0 {
			t.Errorf("FileMeta(/d/y) = %v, want none", got)
		}
	}

	c.fileMeta["/d/y"] = []string{"/d/gone"}
	for _, e := range c.Export("/") {
		if e.Op == "filemeta" && e.Path2 == "/d/gone" {
			t.Errorf("Export holds an attachment to a file that is gone: %+v", e)
		}
	}
}

func TestMoveObject(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/a", "admin")
	mustMkColl(t, c, "/b", "admin")
	id := mustRegister(t, c, "/a", "f", "u")
	c.AddMeta("/a/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	if err := c.MoveObject("/a/f", "/b", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetObject("/a/f"); !errors.Is(err, types.ErrNotFound) {
		t.Error("old path should be gone")
	}
	o, err := c.GetObject("/b/g")
	if err != nil || o.ID != id {
		t.Fatalf("moved object: %+v, %v", o, err)
	}
	// Metadata follows the move.
	avus, _ := c.GetMeta("/b/g", types.MetaUser)
	if len(avus) != 1 || avus[0].Value != "red" {
		t.Errorf("meta after move = %+v", avus)
	}
	// And remains queryable at the new path.
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "red"}}})
	if len(hits) != 1 || hits[0].Path != "/b/g" {
		t.Errorf("query after move = %+v", hits)
	}
	// Destination collision.
	mustRegister(t, c, "/b", "h", "u")
	if err := c.MoveObject("/b/g", "/b", "h"); !errors.Is(err, types.ErrExists) {
		t.Errorf("collision: %v", err)
	}
}

func TestMoveColl(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/proj", "admin")
	mustMkColl(t, c, "/proj/run1", "admin")
	mustMkColl(t, c, "/proj/run1/raw", "admin")
	mustRegister(t, c, "/proj/run1", "log.txt", "u")
	mustRegister(t, c, "/proj/run1/raw", "d0", "u")
	c.AddMeta("/proj/run1/raw/d0", types.MetaUser, types.AVU{Name: "kind", Value: "raw"})
	mustMkColl(t, c, "/archive", "admin")

	if err := c.MoveColl("/proj/run1", "/archive/run1"); err != nil {
		t.Fatal(err)
	}
	if c.CollExists("/proj/run1") {
		t.Error("old subtree should be gone")
	}
	for _, p := range []string{"/archive/run1", "/archive/run1/raw"} {
		if !c.CollExists(p) {
			t.Errorf("missing moved collection %s", p)
		}
	}
	if _, err := c.GetObject("/archive/run1/log.txt"); err != nil {
		t.Errorf("moved object: %v", err)
	}
	o, err := c.GetObject("/archive/run1/raw/d0")
	if err != nil || o.Collection != "/archive/run1/raw" {
		t.Errorf("deep moved object: %+v, %v", o, err)
	}
	hits, _ := c.RunQuery(Query{Scope: "/archive", Conds: []Condition{{Attr: "kind", Op: "=", Value: "raw"}}})
	if len(hits) != 1 {
		t.Errorf("query after MoveColl = %+v", hits)
	}
	// Listing the new parent shows the moved collection.
	stats, _ := c.ListColl("/archive")
	if len(stats) != 1 || stats[0].Path != "/archive/run1" {
		t.Errorf("ListColl after move = %+v", stats)
	}
	// Guards.
	if err := c.MoveColl("/archive/run1", "/archive/run1/sub"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("move into self: %v", err)
	}
	if err := c.MoveColl("/ghost", "/x"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("move missing: %v", err)
	}
}

func TestLinkCollAndResolve(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/cultures", "curator")
	mustMkColl(t, c, "/cultures/avian", "curator")
	mustMkColl(t, c, "/mine", "alice")
	if err := c.LinkColl("/cultures/avian", "/mine/birds", "alice"); err != nil {
		t.Fatal(err)
	}
	eff, err := c.ResolveColl("/mine/birds")
	if err != nil || eff != "/cultures/avian" {
		t.Errorf("ResolveColl = %q, %v", eff, err)
	}
	// Linking to a link collapses to the original target.
	mustMkColl(t, c, "/yours", "bob")
	if err := c.LinkColl("/mine/birds", "/yours/birds", "bob"); err != nil {
		t.Fatal(err)
	}
	col, _ := c.GetColl("/yours/birds")
	if col.LinkTarget != "/cultures/avian" {
		t.Errorf("chained link target = %q", col.LinkTarget)
	}
	// Registering into a linked collection lands in the target.
	mustRegister(t, c, "/mine/birds", "finch.jpg", "alice")
	if _, err := c.GetObject("/cultures/avian/finch.jpg"); err != nil {
		t.Errorf("object should land in link target: %v", err)
	}
	// Listing through the link shows target members.
	stats, _ := c.ListColl("/mine/birds")
	if len(stats) != 1 {
		t.Errorf("list through link = %+v", stats)
	}
	// A linked sub-collection can be removed without touching the target.
	if err := c.DeleteColl("/mine/birds"); err != nil {
		t.Fatal(err)
	}
	if !c.CollExists("/cultures/avian") {
		t.Error("target must survive link deletion")
	}
	// Cycle guard: cannot link a collection beneath its own target.
	if err := c.LinkColl("/cultures", "/cultures/self", "x"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("cycle link: %v", err)
	}
}

func TestObjectLinksIndex(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustMkColl(t, c, "/links", "admin")
	mustRegister(t, c, "/d", "orig", "u")
	_, err := c.RegisterObject(&types.DataObject{
		Name: "ln", Collection: "/links", Owner: "u",
		Kind: types.KindLink, LinkTarget: "/d/orig",
	})
	if err != nil {
		t.Fatal(err)
	}
	links := c.LinksTo("/d/orig")
	if len(links) != 1 || links[0] != "/links/ln" {
		t.Errorf("LinksTo = %v", links)
	}
	resolved, err := c.ResolveObject("/links/ln")
	if err != nil || resolved.Path() != "/d/orig" {
		t.Errorf("ResolveObject = %+v, %v", resolved, err)
	}
}

func TestSubtreeObjects(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/a", "admin")
	mustMkColl(t, c, "/a/b", "admin")
	mustRegister(t, c, "/a", "1", "u")
	mustRegister(t, c, "/a/b", "2", "u")
	mustMkColl(t, c, "/z", "admin")
	mustRegister(t, c, "/z", "3", "u")
	got := c.SubtreeObjects("/a")
	if len(got) != 2 || got[0] != "/a/1" || got[1] != "/a/b/2" {
		t.Errorf("SubtreeObjects = %v", got)
	}
	if len(c.SubtreeObjects("/")) != 3 {
		t.Error("root subtree should see everything")
	}
}

func TestConcurrentCatalogAccess(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/c", "admin")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("f-%d-%d", w, i)
				if _, err := c.RegisterObject(&types.DataObject{Name: name, Collection: "/c", Owner: "u"}); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				c.AddMeta("/c/"+name, types.MetaUser, types.AVU{Name: "w", Value: fmt.Sprint(w)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.ListColl("/c")
				c.RunQuery(Query{Scope: "/c", Conds: []Condition{{Attr: "w", Op: "=", Value: "1"}}})
			}
		}()
	}
	wg.Wait()
	if got := c.Stats().Objects; got != 200 {
		t.Errorf("objects = %d, want 200", got)
	}
}

func TestStats(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustRegister(t, c, "/d", "f", "u")
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "a", Value: "1"})
	s := c.Stats()
	if s.Objects != 1 || s.Collections != 2 || s.Users != 1 || s.MetaEntries != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestResolveHelpers(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/a", "admin")
	// ResolveColl of a plain collection is itself.
	if p, err := c.ResolveColl("/a"); err != nil || p != "/a" {
		t.Errorf("ResolveColl plain = %q, %v", p, err)
	}
	if _, err := c.ResolveColl("/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("ResolveColl missing = %v", err)
	}
	// A dangling linked collection resolves to an error.
	mustMkColl(t, c, "/b", "admin")
	if err := c.LinkColl("/b", "/a/lnk", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteColl("/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResolveColl("/a/lnk"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("dangling link resolve = %v", err)
	}
	// ResolveObject on a plain object returns it.
	mustRegister(t, c, "/a", "f", "u")
	o, err := c.ResolveObject("/a/f")
	if err != nil || o.Name != "f" {
		t.Errorf("ResolveObject plain = %+v, %v", o, err)
	}
	// A broken object link resolves to an error.
	if _, err := c.RegisterObject(&types.DataObject{
		Name: "ln", Collection: "/a", Kind: types.KindLink, LinkTarget: "/a/ghost",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResolveObject("/a/ln"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("broken link resolve = %v", err)
	}
	// GetObjectByID of an unknown id.
	if _, err := c.GetObjectByID(9999); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("byID missing = %v", err)
	}
}

func TestUserGroupErrorPaths(t *testing.T) {
	c := newCat(t)
	if err := c.DeleteUser("ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("delete missing user = %v", err)
	}
	if err := c.AddUser(types.User{Name: "a/b"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad user name = %v", err)
	}
	if err := c.AddGroup("x/y"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad group name = %v", err)
	}
	if err := c.AddGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddGroup("g"); !errors.Is(err, types.ErrExists) {
		t.Errorf("dup group = %v", err)
	}
	if err := c.AddToGroup("ghost", "admin"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("add to missing group = %v", err)
	}
	if err := c.AddToGroup("g", "ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("add missing user = %v", err)
	}
	// Adding twice is idempotent.
	c.AddToGroup("g", "admin")
	if err := c.AddToGroup("g", "admin"); err != nil {
		t.Errorf("re-add = %v", err)
	}
	if err := c.RemoveFromGroup("ghost", "admin"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("remove from missing group = %v", err)
	}
}

func TestQueryLimitAndScopeEdge(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	for i := 0; i < 5; i++ {
		mustRegister(t, c, "/d", fmt.Sprintf("f%d", i), "u")
		c.AddMeta(fmt.Sprintf("/d/f%d", i), types.MetaUser, types.AVU{Name: "k", Value: "v"})
	}
	hits, err := c.RunQuery(Query{Scope: "/d", Conds: []Condition{{Attr: "k", Op: "=", Value: "v"}}, Limit: 2})
	if err != nil || len(hits) != 2 {
		t.Errorf("limited query = %d hits, %v", len(hits), err)
	}
	// Metadata on the collection itself is indexed but scoped out of
	// object results.
	c.AddMeta("/d", types.MetaUser, types.AVU{Name: "k", Value: "v"})
	hits, _ = c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "k", Op: "=", Value: "v"}}})
	if len(hits) != 5 {
		t.Errorf("collection meta leaked into object hits: %d", len(hits))
	}
}
