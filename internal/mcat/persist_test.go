package mcat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// image renders every table of c but the indexes, which checkInvariants
// holds to them: each map with the root collection's and the admin's
// rows, and the next ID. A per-path list left empty (an ACL whose last
// grant was revoked) is left out, as a load does not recreate it.
func image(t testing.TB, c *Catalog) []string {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, err := json.MarshalIndent(map[string]any{
		"NextID": c.nextID, "Objects": c.objects, "Colls": c.colls, "Resources": c.resources,
		"Users": c.users, "Groups": c.groups, "ACLs": nonEmpty(c.acls), "Meta": nonEmpty(c.meta),
		"Structural": nonEmpty(c.structural), "Annots": nonEmpty(c.annots), "FileMeta": nonEmpty(c.fileMeta),
		"Repairs": c.repairs,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

func nonEmpty[M ~map[string]S, S ~[]E, E any](m M) M {
	out := make(M, len(m))
	for k, v := range m {
		if len(v) > 0 {
			out[k] = v
		}
	}
	return out
}

// sameImage reports the first line where two images differ, or "".
func sameImage(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	return ""
}

// saveLoad returns a catalog loaded from c's snapshot.
func saveLoad(t testing.TB, c *Catalog) *Catalog {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := New("admin", "sdsc")
	if err := back.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return back
}

// PinBirth sets the creation time New gave c's accounts and root
// collection, so the snapshot fixture's bytes do not hold the wall clock.
func PinBirth(c *Catalog, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.colls["/"].CreatedAt = at
	for _, u := range c.users {
		u.CreatedAt = at
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := newCat(t)
	c.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	c.AddGroup("curators")
	c.AddToGroup("curators", "alice")
	c.AddResource(types.Resource{Name: "d1", Kind: types.ResourcePhysical, Driver: "memfs"})
	c.AddResource(types.Resource{Name: "d2", Kind: types.ResourcePhysical, Driver: "memfs"})
	c.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"d1", "d2"}})
	mustMkColl(t, c, "/proj", "alice")
	mustRegister(t, c, "/proj", "f", "alice")
	c.AddMeta("/proj/f", types.MetaUser, types.AVU{Name: "color", Value: "red"})
	c.SetACL("/proj", "alice", acl.Own)
	c.SetStructural("/proj", types.StructuralAttr{Name: "need", Mandatory: true})
	c.AddAnnotation("/proj/f", types.Annotation{Author: "alice", Text: "note"})

	c.SetResourceOnline("d2", false)
	c.EnqueueRepair(types.RepairTask{Path: "/proj/f", Resource: "d2", Kind: "replicate"})
	// The next ID is above every live object's: a deleted one had it.
	mustRegister(t, c, "/proj", "gone", "alice")
	if err := c.DeleteObject("/proj/gone"); err != nil {
		t.Fatal(err)
	}

	c2 := saveLoad(t, c)
	checkInvariants(t, c2)
	if d := sameImage(image(t, c2), image(t, c)); d != "" {
		t.Errorf("the loaded catalog differs from the saved one: %s", d)
	}
	// Namespace restored.
	o, err := c2.GetObject("/proj/f")
	if err != nil || o.Owner != "alice" {
		t.Fatalf("object after load: %+v, %v", o, err)
	}
	// Secondary indexes rebuilt: listing, query, byID.
	stats, err := c2.ListColl("/proj")
	if err != nil || len(stats) != 1 {
		t.Errorf("list after load = %+v, %v", stats, err)
	}
	hits, _ := c2.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "color", Op: "=", Value: "red"}}})
	if len(hits) != 1 {
		t.Errorf("query after load = %+v", hits)
	}
	if _, err := c2.GetObjectByID(o.ID); err != nil {
		t.Errorf("byID after load: %v", err)
	}
	// Users, groups, resources, ACLs, structural, annotations survive.
	if _, err := c2.GetUser("alice"); err != nil {
		t.Error("user lost")
	}
	if !c2.GroupsOf("alice")["curators"] {
		t.Error("group lost")
	}
	if _, err := c2.GetResource("lr"); err != nil {
		t.Error("resource lost")
	}
	if got := c2.EffectiveLevel("/proj/f", "alice"); got < acl.Own {
		t.Errorf("ACL lost: %v", got)
	}
	if len(c2.Structural("/proj")) != 1 {
		t.Error("structural lost")
	}
	if anns, _ := c2.Annotations("/proj/f"); len(anns) != 1 {
		t.Error("annotations lost")
	}
	// New registrations continue from a fresh ID.
	id2 := mustRegister(t, c2, "/proj", "g", "alice")
	if id2 <= o.ID {
		t.Errorf("nextID not restored: %d <= %d", id2, o.ID)
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/x", "admin")
	p := filepath.Join(t.TempDir(), "mcat.json")
	if err := c.Compact(p); err != nil {
		t.Fatal(err)
	}
	c2 := New("admin", "sdsc")
	if err := c2.LoadFile(p); err != nil {
		t.Fatal(err)
	}
	if !c2.CollExists("/x") {
		t.Error("collection lost in file round trip")
	}
	if err := c2.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	c := newCat(t)
	if err := c.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if err := c.Load(strings.NewReader(`{"Version": 99}`)); err == nil {
		t.Error("wrong version should fail")
	}
}
