package mcat

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// checkInvariants verifies the catalog's internal consistency: every
// secondary index agrees exactly with primary state. The test lives in
// the package so it can inspect unexported fields.
func checkInvariants(t *testing.T, c *Catalog) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Root exists; every collection's parent exists.
	if _, ok := c.colls["/"]; !ok {
		t.Fatal("invariant: root collection missing")
	}
	for p := range c.colls {
		if p == "/" {
			continue
		}
		if _, ok := c.colls[types.Parent(p)]; !ok {
			t.Errorf("invariant: collection %s has no parent", p)
		}
	}
	// Every object's collection exists; byID is a bijection.
	for p, o := range c.objects {
		if o.Path() != p {
			t.Errorf("invariant: object key %s != path %s", p, o.Path())
		}
		if _, ok := c.colls[o.Collection]; !ok {
			t.Errorf("invariant: object %s in missing collection %s", p, o.Collection)
		}
		if got := c.byID[o.ID]; got != p {
			t.Errorf("invariant: byID[%d] = %q, want %q", o.ID, got, p)
		}
	}
	if len(c.byID) != len(c.objects) {
		t.Errorf("invariant: byID has %d entries, objects %d", len(c.byID), len(c.objects))
	}
	// Child indexes match primary state exactly.
	wantColls := map[string]map[string]string{}
	for p := range c.colls {
		if p == "/" {
			continue
		}
		par := types.Parent(p)
		if wantColls[par] == nil {
			wantColls[par] = map[string]string{}
		}
		wantColls[par][types.Base(p)] = p
	}
	for par, m := range c.childColls {
		for base, p := range m {
			if wantColls[par] == nil || wantColls[par][base] != p {
				t.Errorf("invariant: stale childColls[%s][%s]=%s", par, base, p)
			}
		}
	}
	for par, m := range wantColls {
		for base, p := range m {
			if c.childColls[par] == nil || c.childColls[par][base] != p {
				t.Errorf("invariant: missing childColls[%s][%s]=%s", par, base, p)
			}
		}
	}
	wantObjs := map[string]map[string]string{}
	for p, o := range c.objects {
		if wantObjs[o.Collection] == nil {
			wantObjs[o.Collection] = map[string]string{}
		}
		wantObjs[o.Collection][o.Name] = p
	}
	for par, m := range c.childObjs {
		for base, p := range m {
			if wantObjs[par] == nil || wantObjs[par][base] != p {
				t.Errorf("invariant: stale childObjs[%s][%s]=%s", par, base, p)
			}
		}
	}
	for par, m := range wantObjs {
		for base, p := range m {
			if c.childObjs[par] == nil || c.childObjs[par][base] != p {
				t.Errorf("invariant: missing childObjs[%s][%s]=%s", par, base, p)
			}
		}
	}
	// The attribute index equals a recomputation from the meta store.
	want := map[string]map[string]map[string]bool{}
	for p, entries := range c.meta {
		for _, e := range entries {
			if !queryableClass(e.Class) {
				continue
			}
			name := strings.ToLower(e.AVU.Name)
			if want[name] == nil {
				want[name] = map[string]map[string]bool{}
			}
			if want[name][e.AVU.Value] == nil {
				want[name][e.AVU.Value] = map[string]bool{}
			}
			want[name][e.AVU.Value][p] = true
		}
	}
	for name, vals := range c.attrIndex {
		if len(vals) == 0 {
			t.Errorf("invariant: attribute %s indexed with no value", name)
		}
		for val, set := range vals {
			if set.len() == 0 {
				t.Errorf("invariant: value %s=%s indexed with no path", name, val)
			}
			for _, p := range set.paths() {
				if want[name] == nil || want[name][val] == nil || !want[name][val][p] {
					t.Errorf("invariant: stale index entry %s=%s -> %s", name, val, p)
				}
			}
		}
	}
	for name, vals := range want {
		for val, paths := range vals {
			for p := range paths {
				if set := c.attrIndex[name][val]; !set.has(p) {
					t.Errorf("invariant: missing index entry %s=%s -> %s", name, val, p)
				}
			}
		}
	}
	// Per-path state refers only to live paths.
	for _, m := range []map[string]bool{pathsOf(c.meta), pathsOfA(c.annots), pathsOfS(c.structural), pathsOfF(c.fileMeta)} {
		for p := range m {
			if !c.pathExistsLockedForTest(p) {
				t.Errorf("invariant: orphaned per-path state at %s", p)
			}
		}
	}
}

func pathsOf(m map[string][]metaEntry) map[string]bool {
	out := map[string]bool{}
	for p := range m {
		out[p] = true
	}
	return out
}

func pathsOfA(m map[string][]types.Annotation) map[string]bool {
	out := map[string]bool{}
	for p := range m {
		out[p] = true
	}
	return out
}

func pathsOfS(m map[string][]types.StructuralAttr) map[string]bool {
	out := map[string]bool{}
	for p := range m {
		out[p] = true
	}
	return out
}

func pathsOfF(m map[string][]string) map[string]bool {
	out := map[string]bool{}
	for p := range m {
		out[p] = true
	}
	return out
}

// pathExistsLockedForTest mirrors pathExistsLocked for use under RLock.
func (c *Catalog) pathExistsLockedForTest(p string) bool {
	if _, ok := c.objects[p]; ok {
		return true
	}
	_, ok := c.colls[p]
	return ok
}

// TestRandomOpsPreserveInvariants drives the catalog through random
// operation sequences (with a journal attached) and checks every
// secondary index afterwards — then replays the journal into a fresh
// catalog and checks it reaches an equivalent, equally-consistent state.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			var journal bytes.Buffer
			c := New("admin", "sdsc")
			c.SetJournal(NewJournal(&journal))

			colls := []string{"/"}
			var objs []string
			attrs := []string{"color", "size", "shape"}
			vals := []string{"red", "blue", "big", "small", "round"}

			for step := 0; step < 600; step++ {
				switch rnd.Intn(10) {
				case 0: // new collection
					parent := colls[rnd.Intn(len(colls))]
					p := types.Join(parent, fmt.Sprintf("c%d", step))
					if c.MkColl(p, "admin") == nil {
						colls = append(colls, p)
					}
				case 1, 2: // new object
					parent := colls[rnd.Intn(len(colls))]
					if parent == "/" {
						continue
					}
					o := &types.DataObject{Name: fmt.Sprintf("o%d", step), Collection: parent, Owner: "admin"}
					if _, err := c.RegisterObject(o); err == nil {
						objs = append(objs, o.Path())
					}
				case 3, 4: // add metadata
					if len(objs) == 0 {
						continue
					}
					p := objs[rnd.Intn(len(objs))]
					c.AddMeta(p, types.MetaUser, types.AVU{
						Name:  attrs[rnd.Intn(len(attrs))],
						Value: vals[rnd.Intn(len(vals))],
					})
				case 5: // delete metadata
					if len(objs) == 0 {
						continue
					}
					c.DeleteMeta(objs[rnd.Intn(len(objs))], types.MetaUser, attrs[rnd.Intn(len(attrs))], "")
				case 6: // move an object
					if len(objs) == 0 || len(colls) < 2 {
						continue
					}
					i := rnd.Intn(len(objs))
					dst := colls[rnd.Intn(len(colls))]
					if dst == "/" {
						continue
					}
					newName := fmt.Sprintf("m%d", step)
					if c.MoveObject(objs[i], dst, newName) == nil {
						objs[i] = types.Join(dst, newName)
					}
				case 7: // delete an object
					if len(objs) == 0 {
						continue
					}
					i := rnd.Intn(len(objs))
					if c.DeleteObject(objs[i]) == nil {
						objs = append(objs[:i], objs[i+1:]...)
					}
				case 8: // ACL + annotation
					if len(objs) == 0 {
						continue
					}
					p := objs[rnd.Intn(len(objs))]
					c.SetACL(p, "someone", acl.Level(rnd.Intn(6)))
					c.AddAnnotation(p, types.Annotation{Author: "a", Text: "x"})
				case 9: // move a collection
					if len(colls) < 3 {
						continue
					}
					src := colls[1+rnd.Intn(len(colls)-1)]
					dstParent := colls[rnd.Intn(len(colls))]
					dst := types.Join(dstParent, fmt.Sprintf("mv%d", step))
					if c.MoveColl(src, dst) == nil {
						// Rebuild path books after the subtree move.
						colls = colls[:1]
						for _, p := range c.SubColls("/") {
							colls = append(colls, p)
						}
						objs = c.SubtreeObjects("/")
					}
				}
			}
			checkInvariants(t, c)

			// The journal replays to an equivalent catalog.
			c2 := New("admin", "sdsc")
			if _, err := c2.ReplayCounted(bytes.NewReader(journal.Bytes())); err != nil {
				t.Fatalf("replay: %v", err)
			}
			checkInvariants(t, c2)
			if a, b := c.Stats(), c2.Stats(); a != b {
				t.Errorf("replayed stats %+v != original %+v", b, a)
			}
			// Same query results on both.
			for _, attr := range attrs {
				for _, val := range vals {
					q := Query{Scope: "/", Conds: []Condition{{Attr: attr, Op: "=", Value: val}}}
					h1, _ := c.RunQuery(q)
					h2, _ := c2.RunQuery(q)
					if len(h1) != len(h2) {
						t.Errorf("query %s=%s: %d vs %d hits", attr, val, len(h1), len(h2))
					}
				}
			}

			// And a snapshot round trip recreates every table.
			c3 := saveLoad(t, c)
			checkInvariants(t, c3)
			if d := sameImage(image(t, c3), image(t, c)); d != "" {
				t.Errorf("the loaded catalog differs from the saved one: %s", d)
			}
		})
	}
}

// paths lists the set's paths, nil for an empty set.
func (s *postings) paths() []string {
	if s.many == nil {
		if s.one == "" {
			return nil
		}
		return []string{s.one}
	}
	out := make([]string, 0, len(s.many))
	for p := range s.many {
		out = append(out, p)
	}
	return out
}
