package mcat

import (
	"errors"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

func setupMeta(t *testing.T) *Catalog {
	t.Helper()
	c := newCat(t)
	mustMkColl(t, c, "/d", "admin")
	mustRegister(t, c, "/d", "f", "alice")
	return c
}

func TestAddGetMeta(t *testing.T) {
	c := setupMeta(t)
	if err := c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"}); err != nil {
		t.Fatal(err)
	}
	// Multiple values for one attribute are allowed.
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "blue"})
	c.AddMeta("/d/f", types.MetaType, types.AVU{Name: "dc:title", Value: "A File", Units: ""})
	avus, err := c.GetMeta("/d/f", types.MetaUser)
	if err != nil || len(avus) != 2 {
		t.Fatalf("GetMeta = %+v, %v", avus, err)
	}
	all, _ := c.AllMeta("/d/f")
	if len(all[types.MetaUser]) != 2 || len(all[types.MetaType]) != 1 {
		t.Errorf("AllMeta = %+v", all)
	}
	// Guards.
	if err := c.AddMeta("/ghost", types.MetaUser, types.AVU{Name: "x"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("meta on missing: %v", err)
	}
	if err := c.AddMeta("/d/f", types.MetaUser, types.AVU{}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("empty name: %v", err)
	}
	if err := c.AddMeta("/d/f", types.MetaSystem, types.AVU{Name: "sys"}); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("system class write: %v", err)
	}
}

func TestMetaOnCollections(t *testing.T) {
	c := setupMeta(t)
	if err := c.AddMeta("/d", types.MetaUser, types.AVU{Name: "topic", Value: "cultures"}); err != nil {
		t.Fatal(err)
	}
	avus, err := c.GetMeta("/d", types.MetaUser)
	if err != nil || len(avus) != 1 {
		t.Errorf("collection meta = %+v, %v", avus, err)
	}
}

func TestUpdateMeta(t *testing.T) {
	c := setupMeta(t)
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "blue"})
	n, err := c.UpdateMeta("/d/f", types.MetaUser, "color", "red", types.AVU{Name: "color", Value: "green"})
	if err != nil || n != 1 {
		t.Fatalf("UpdateMeta = %d, %v", n, err)
	}
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "green"}}})
	if len(hits) != 1 {
		t.Errorf("index after update = %+v", hits)
	}
	hits, _ = c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "red"}}})
	if len(hits) != 0 {
		t.Errorf("stale index entry = %+v", hits)
	}
	// Empty oldValue updates every value of the attribute.
	n, _ = c.UpdateMeta("/d/f", types.MetaUser, "color", "", types.AVU{Name: "color", Value: "black"})
	if n != 2 {
		t.Errorf("bulk update = %d", n)
	}
}

func TestDeleteMeta(t *testing.T) {
	c := setupMeta(t)
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "a", Value: "1"})
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "a", Value: "2"})
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "b", Value: "3"})
	n, err := c.DeleteMeta("/d/f", types.MetaUser, "a", "1")
	if err != nil || n != 1 {
		t.Fatalf("DeleteMeta = %d, %v", n, err)
	}
	n, _ = c.DeleteMeta("/d/f", types.MetaUser, "a", "")
	if n != 1 {
		t.Errorf("delete all values = %d", n)
	}
	avus, _ := c.GetMeta("/d/f", types.MetaUser)
	if len(avus) != 1 || avus[0].Name != "b" {
		t.Errorf("remaining = %+v", avus)
	}
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "a", Op: "=", Value: "2"}}})
	if len(hits) != 0 {
		t.Errorf("index should forget deleted meta: %+v", hits)
	}
}

// TestMetaIndexKeepsPathThatStillCarriesValue: one path may hold the
// same (name, value) more than once — in the user and the type class, or
// by a repeated AddMeta. Taking one such entry away, by delete or by
// update, must leave the path findable through the other.
func TestMetaIndexKeepsPathThatStillCarriesValue(t *testing.T) {
	red := Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "red"}}}
	found := func(c *Catalog, when string) {
		t.Helper()
		if hits, _ := c.RunQuery(red); len(hits) != 1 || hits[0].Path != "/d/f" {
			t.Errorf("%s: color = red finds %+v, want /d/f", when, hits)
		}
		checkInvariants(t, c)
	}
	for _, edit := range []struct {
		name string
		do   func(c *Catalog) (int, error)
	}{
		{"delete", func(c *Catalog) (int, error) { return c.DeleteMeta("/d/f", types.MetaUser, "color", "red") }},
		{"update", func(c *Catalog) (int, error) {
			return c.UpdateMeta("/d/f", types.MetaUser, "color", "red", types.AVU{Name: "color", Value: "green"})
		}},
	} {
		// The pair in both classes: the user entry goes, the type entry stays.
		c := setupMeta(t)
		c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
		c.AddMeta("/d/f", types.MetaType, types.AVU{Name: "Color", Value: "red"})
		if n, err := edit.do(c); err != nil || n != 1 {
			t.Fatalf("%s: %d, %v", edit.name, n, err)
		}
		found(c, edit.name+" of the user entry, type entry left")
		// Once the type entry goes too, so does the posting.
		c.DeleteMeta("/d/f", types.MetaType, "color", "")
		if hits, _ := c.RunQuery(red); len(hits) != 0 {
			t.Errorf("%s: index kept a pair no entry carries: %+v", edit.name, hits)
		}
		checkInvariants(t, c)
	}
	// The pair twice in one class: an update to itself changes nothing.
	c := setupMeta(t)
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	if n, _ := c.UpdateMeta("/d/f", types.MetaUser, "color", "", types.AVU{Name: "color", Value: "red"}); n != 2 {
		t.Fatalf("self-update = %d, want 2", n)
	}
	found(c, "update of both duplicates to the same value")
}

func TestCopyMeta(t *testing.T) {
	c := setupMeta(t)
	mustRegister(t, c, "/d", "g", "alice")
	c.AddMeta("/d/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	c.AddMeta("/d/f", types.MetaAnnotation, types.AVU{Name: "note", Value: "hi"})
	if err := c.CopyMeta("/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	avus, _ := c.GetMeta("/d/g", types.MetaUser)
	if len(avus) != 1 || avus[0].Value != "red" {
		t.Errorf("copied meta = %+v", avus)
	}
	// Only queryable classes copy.
	ann, _ := c.GetMeta("/d/g", types.MetaAnnotation)
	if len(ann) != 0 {
		t.Errorf("annotations must not copy: %+v", ann)
	}
}

func TestFileMeta(t *testing.T) {
	c := setupMeta(t)
	mustRegister(t, c, "/d", "f.meta", "alice")
	if err := c.AttachFileMeta("/d/f", "/d/f.meta"); err != nil {
		t.Fatal(err)
	}
	// Idempotent; one file can serve several objects.
	c.AttachFileMeta("/d/f", "/d/f.meta")
	if got := c.FileMeta("/d/f"); len(got) != 1 || got[0] != "/d/f.meta" {
		t.Errorf("FileMeta = %v", got)
	}
	if err := c.AttachFileMeta("/d/f", "/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing meta file: %v", err)
	}
}

func TestStructuralInheritance(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/cultures", "curator")
	mustMkColl(t, c, "/cultures/avian", "curator")
	c.SetStructural("/cultures", types.StructuralAttr{Name: "culture-core", Mandatory: true, Comment: "MetaCore for Cultures"})
	c.SetStructural("/cultures/avian", types.StructuralAttr{Name: "species", Mandatory: true})
	c.SetStructural("/cultures/avian", types.StructuralAttr{Name: "region", Defaults: []string{"unknown", "nearctic", "palearctic"}})

	attrs := c.Structural("/cultures/avian")
	if len(attrs) != 3 {
		t.Fatalf("Structural = %+v", attrs)
	}
	// Nearer definition shadows an inherited one of the same name.
	c.SetStructural("/cultures/avian", types.StructuralAttr{Name: "culture-core", Mandatory: false})
	attrs = c.Structural("/cultures/avian")
	for _, a := range attrs {
		if a.Name == "culture-core" && a.Mandatory {
			t.Error("nearer structural attr should shadow")
		}
	}

	missing := c.CheckMandatory("/cultures/avian", []types.AVU{{Name: "SPECIES", Value: "finch"}})
	if len(missing) != 0 {
		t.Errorf("mandatory check = %v", missing)
	}
	missing = c.CheckMandatory("/cultures/avian", nil)
	if len(missing) != 1 || missing[0] != "species" {
		t.Errorf("missing = %v", missing)
	}
	// A single default satisfies a mandatory attribute.
	c.SetStructural("/cultures/avian", types.StructuralAttr{Name: "species", Mandatory: true, Defaults: []string{"unknown"}})
	if missing := c.CheckMandatory("/cultures/avian", nil); len(missing) != 0 {
		t.Errorf("default should satisfy: %v", missing)
	}
	if err := c.DeleteStructural("/cultures/avian", "region"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteStructural("/cultures/avian", "region"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestAnnotations(t *testing.T) {
	c := setupMeta(t)
	if err := c.AddAnnotation("/d/f", types.Annotation{Author: "bob", Text: "nice dataset", Kind: "comment"}); err != nil {
		t.Fatal(err)
	}
	c.AddAnnotation("/d/f", types.Annotation{Author: "carol", Text: "4/5", Kind: "rating"})
	anns, err := c.Annotations("/d/f")
	if err != nil || len(anns) != 2 {
		t.Fatalf("Annotations = %+v, %v", anns, err)
	}
	if anns[0].CreatedAt.IsZero() {
		t.Error("timestamp should be stamped")
	}
	n, _ := c.DeleteAnnotations("/d/f", "bob")
	if n != 1 {
		t.Errorf("deleted = %d", n)
	}
	anns, _ = c.Annotations("/d/f")
	if len(anns) != 1 || anns[0].Author != "carol" {
		t.Errorf("remaining = %+v", anns)
	}
}

func TestACLAndEffectiveLevel(t *testing.T) {
	c := newCat(t)
	c.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	c.AddUser(types.User{Name: "bob", Domain: "sdsc"})
	c.AddUser(types.User{Name: "carol", Domain: "caltech"})
	c.AddGroup("curators")
	c.AddToGroup("curators", "carol")
	mustMkColl(t, c, "/proj", "alice")
	mustMkColl(t, c, "/proj/data", "alice")
	mustRegister(t, c, "/proj/data", "f", "alice")

	// Owner holds Own on the object; collection owner curates subtree.
	if got := c.EffectiveLevel("/proj/data/f", "alice"); got != acl.Curate {
		t.Errorf("owner level = %v", got)
	}
	if got := c.EffectiveLevel("/proj/data/f", "bob"); got != acl.None {
		t.Errorf("stranger level = %v", got)
	}
	// Admins always curate.
	if got := c.EffectiveLevel("/proj/data/f", "admin"); got != acl.Curate {
		t.Errorf("admin level = %v", got)
	}
	// Collection-level grant inherits downward.
	c.SetACL("/proj", "bob", acl.Read)
	if got := c.EffectiveLevel("/proj/data/f", "bob"); got != acl.Read {
		t.Errorf("inherited level = %v", got)
	}
	// Object-level grant beats inherited.
	c.SetACL("/proj/data/f", "bob", acl.Write)
	if got := c.EffectiveLevel("/proj/data/f", "bob"); got != acl.Write {
		t.Errorf("object level = %v", got)
	}
	// Group grant.
	c.SetACL("/proj", acl.GroupPrefix+"curators", acl.Annotate)
	if got := c.EffectiveLevel("/proj/data/f", "carol"); got != acl.Annotate {
		t.Errorf("group level = %v", got)
	}
	// Public grant.
	c.SetACL("/proj/data/f", acl.Public, acl.Read)
	if got := c.EffectiveLevel("/proj/data/f", "nobody"); got != acl.Read {
		t.Errorf("public level = %v", got)
	}
	// Revoke.
	c.SetACL("/proj/data/f", "bob", acl.None)
	if got := c.EffectiveLevel("/proj/data/f", "bob"); got != acl.Read {
		t.Errorf("after revoke = %v (inherited read remains)", got)
	}
	l, err := c.GetACL("/proj/data/f")
	if err != nil || len(l) != 1 { // public read
		t.Errorf("GetACL = %+v, %v", l, err)
	}
	if err := c.SetACL("/ghost", "x", acl.Read); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("ACL on missing: %v", err)
	}
}

func TestResourceACL(t *testing.T) {
	c := newCat(t)
	c.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	c.AddResource(types.Resource{Name: "disk1", Kind: types.ResourcePhysical, Driver: "memfs"})
	// Default: open for writes.
	if got := c.ResourceLevel("disk1", "alice"); got != acl.Write {
		t.Errorf("default resource level = %v", got)
	}
	c.SetResourceACL("disk1", "alice", acl.Read)
	if got := c.ResourceLevel("disk1", "alice"); got != acl.Read {
		t.Errorf("restricted level = %v", got)
	}
	if got := c.ResourceLevel("disk1", "bob"); got != acl.None {
		t.Errorf("unlisted user on restricted resource = %v", got)
	}
	if got := c.ResourceLevel("disk1", "admin"); got != acl.Curate {
		t.Errorf("admin = %v", got)
	}
}

func TestUsersGroupsResources(t *testing.T) {
	c := newCat(t)
	if err := c.AddUser(types.User{Name: "alice", Domain: "sdsc"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddUser(types.User{Name: "alice", Domain: "x"}); !errors.Is(err, types.ErrExists) {
		t.Errorf("dup user: %v", err)
	}
	u, err := c.GetUser("alice")
	if err != nil || u.Qualified() != "alice@sdsc" {
		t.Errorf("GetUser = %+v, %v", u, err)
	}
	if len(c.Users()) != 2 { // admin + alice
		t.Errorf("Users = %+v", c.Users())
	}
	c.AddGroup("g1")
	c.AddToGroup("g1", "alice")
	if !c.GroupsOf("alice")["g1"] {
		t.Error("group membership missing")
	}
	c.RemoveFromGroup("g1", "alice")
	if c.GroupsOf("alice")["g1"] {
		t.Error("member should be removed")
	}
	c.AddToGroup("g1", "alice")
	c.DeleteUser("alice")
	if len(c.Groups()[0].Members) != 0 {
		t.Error("deleting user should clear group membership")
	}

	// Resources.
	if err := c.AddResource(types.Resource{Name: "d1", Kind: types.ResourcePhysical, Driver: "memfs"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResource(types.Resource{Name: "d2", Kind: types.ResourcePhysical, Driver: "memfs"}); err != nil {
		t.Fatal(err)
	}
	// Logical resources need >= 2 existing physical members.
	if err := c.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"d1"}}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("1-member logical: %v", err)
	}
	if err := c.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"d1", "ghost"}}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing member: %v", err)
	}
	if err := c.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"d1", "d2"}}); err != nil {
		t.Fatal(err)
	}
	phys, err := c.ResolvePhysical("lr")
	if err != nil || len(phys) != 2 || phys[0].Name != "d1" {
		t.Errorf("ResolvePhysical = %+v, %v", phys, err)
	}
	phys, _ = c.ResolvePhysical("d1")
	if len(phys) != 1 {
		t.Errorf("physical resolve = %+v", phys)
	}
	// Online toggling.
	c.SetResourceOnline("d1", false)
	r, _ := c.GetResource("d1")
	if r.Online {
		t.Error("resource should be offline")
	}
	// Deletion guards: member of a logical resource cannot be deleted.
	if err := c.DeleteResource("d1"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("delete member: %v", err)
	}
	if err := c.DeleteResource("lr"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteResource("d1"); err != nil {
		t.Fatal(err)
	}
}
