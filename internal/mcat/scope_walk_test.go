package mcat

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"gosrb/internal/types"
)

// scopeCatalog builds a random tree under three top-level collections,
// up to four deep, of objects carrying a numeric "n" and a "band", with
// a link collection pointing at one of the deep collections. It returns
// the catalog, every collection, the link and every object path.
func scopeCatalog(t *testing.T, seed int64) (c *Catalog, colls []string, link string, objs []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c = newCat(t)
	colls = []string{"/a", "/b", "/c"}
	for _, p := range colls {
		mustMkColl(t, c, p, "admin")
	}
	for i := 0; i < 40; i++ {
		parent := colls[rng.Intn(len(colls))]
		if types.Depth(parent) >= 4 {
			continue
		}
		p := fmt.Sprintf("%s/s%02d", parent, i)
		mustMkColl(t, c, p, "admin")
		colls = append(colls, p)
	}
	bands := []string{"J", "H", "K"}
	for i := 0; i < 400; i++ {
		coll := colls[rng.Intn(len(colls))]
		name := fmt.Sprintf("o%03d", i)
		mustRegister(t, c, coll, name, "u")
		p := coll + "/" + name
		objs = append(objs, p)
		if err := c.AddMeta(p, types.MetaUser, types.AVU{Name: "n", Value: strconv.Itoa(rng.Intn(50))}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddMeta(p, types.MetaUser, types.AVU{Name: "band", Value: bands[rng.Intn(len(bands))]}); err != nil {
			t.Fatal(err)
		}
	}
	var target string
	for _, p := range colls {
		if types.Depth(p) >= 2 {
			target = p
			break
		}
	}
	link = "/b/link"
	if err := c.LinkColl(target, link, "admin"); err != nil {
		t.Fatal(err)
	}
	return c, colls, link, objs
}

// TestQueryScopeWalkDifferential: a query walking its scope's subtree
// returns what the whole-catalog walk returns cut to the scope, for the
// root, every collection, a link collection (whose target is not
// followed), object paths and a path that names nothing.
func TestQueryScopeWalkDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, colls, link, objs := scopeCatalog(t, seed)
		rng := rand.New(rand.NewSource(seed))
		scopes := append([]string{"/", link, "/nope", "/a/"}, colls...)
		for i := 0; i < 20; i++ {
			scopes = append(scopes, objs[rng.Intn(len(objs))])
		}
		queries := []Query{
			{Conds: []Condition{{Attr: "n", Op: "<", Value: "20"}}},
			{Conds: []Condition{{Attr: "sys:name", Op: "like", Value: "o1%"}}, Select: []string{"band"}},
			{Conds: []Condition{{Attr: "band", Op: "<>", Value: "J"}, {Attr: "n", Op: ">=", Value: "10"}}, Select: []string{"n", "band"}},
			{Conds: []Condition{{Attr: "band", Op: "like", Value: "%"}}, Limit: 5},
			{Conds: []Condition{{Attr: "band", Op: "=", Value: "H"}}, Select: []string{"n"}}, // narrowed by the index
		}
		for _, scope := range scopes {
			for qi, q := range queries {
				q.Scope = scope
				got, err := c.RunQuery(q)
				if err != nil {
					t.Fatalf("seed %d scope %s query %d: %v", seed, scope, qi, err)
				}
				whole := q
				whole.Scope, whole.Limit = "/", 0
				all, err := c.RunQuery(whole)
				if err != nil {
					t.Fatal(err)
				}
				var want []Hit
				for _, h := range all {
					if inScope(types.CleanPath(scope), h.Path) && (q.Limit == 0 || len(want) < q.Limit) {
						want = append(want, h)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d scope %s query %d: %d hits, the whole walk cut to the scope %d", seed, scope, qi, len(got), len(want))
				}
			}
		}
	}
}

// TestQueryScopeWalkExaminesOnlyItsScope: a scoped query without an
// equality condition examines the objects its scope holds, each once,
// not the catalog's 2 020.
func TestQueryScopeWalkExaminesOnlyItsScope(t *testing.T) {
	c := newCat(t)
	mustMkColl(t, c, "/survey", "admin")
	for i := 0; i < 10; i++ {
		coll := fmt.Sprintf("/survey/c%02d", i)
		mustMkColl(t, c, coll, "admin")
		for j := 0; j < 200; j++ {
			mustRegister(t, c, coll, fmt.Sprintf("o%03d", j), "u")
		}
	}
	mustMkColl(t, c, "/survey/c00/deep", "admin")
	for j := 0; j < 20; j++ {
		mustRegister(t, c, "/survey/c00/deep", fmt.Sprintf("d%02d", j), "u")
	}
	if err := c.LinkColl("/survey/c05", "/survey/link", "admin"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scope string
		holds int
	}{
		{"/survey/c03", 200},
		{"/survey/c00", 220}, // its own and its sub-collection's
		{"/survey/c00/deep", 20},
		{"/survey/link", 0},         // a link holds nothing of its own
		{"/survey/c03/o007", 0},     // an object holds nothing
		{"/survey", 2020},           // every object is in scope
		{"/survey/missing", 0},      // nothing is there
		{"/survey/c00/deep/d00", 0}, // an object in a deep collection
	} {
		examined := 0
		seen := map[string]bool{}
		c.mu.RLock()
		c.eachInScope(tc.scope, func(p string, o *types.DataObject) {
			examined++
			if seen[p] || o == nil || !inScope(tc.scope, p) {
				t.Errorf("scope %s: examined %s (object %v, seen before %v)", tc.scope, p, o != nil, seen[p])
			}
			seen[p] = true
		})
		c.mu.RUnlock()
		if examined != tc.holds {
			t.Errorf("scope %s: examined %d candidates, want the %d it holds", tc.scope, examined, tc.holds)
		}
		q := Query{Scope: tc.scope, Conds: []Condition{{Attr: "sys:owner", Op: "like", Value: "u"}}}
		if hits, err := c.RunQuery(q); err != nil || len(hits) != tc.holds {
			t.Errorf("scope %s: %d hits, %v; want %d", tc.scope, len(hits), err, tc.holds)
		}
	}
}
