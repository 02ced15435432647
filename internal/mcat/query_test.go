package mcat

import (
	"errors"
	"fmt"
	"testing"

	"gosrb/internal/types"
)

// seedQuery builds a small library with varied metadata.
func seedQuery(t *testing.T) *Catalog {
	t.Helper()
	c := newCat(t)
	mustMkColl(t, c, "/lib", "admin")
	mustMkColl(t, c, "/lib/a", "admin")
	mustMkColl(t, c, "/lib/b", "admin")
	mustMkColl(t, c, "/other", "admin")
	add := func(coll, name, survey, band string, mag float64) {
		mustRegister(t, c, coll, name, "u")
		p := coll + "/" + name
		c.AddMeta(p, types.MetaUser, types.AVU{Name: "survey", Value: survey})
		c.AddMeta(p, types.MetaUser, types.AVU{Name: "band", Value: band})
		c.AddMeta(p, types.MetaUser, types.AVU{Name: "mag", Value: fmt.Sprintf("%.1f", mag)})
	}
	add("/lib/a", "m31.fits", "2mass", "J", 3.4)
	add("/lib/a", "m42.fits", "2mass", "K", 4.0)
	add("/lib/b", "ngc253.fits", "dposs", "J", 7.1)
	add("/lib/b", "m51.fits", "dposs", "H", 8.4)
	add("/other", "x.fits", "2mass", "J", 9.9)
	return c
}

func paths(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Path
	}
	return out
}

func TestQueryEquality(t *testing.T) {
	c := seedQuery(t)
	hits, err := c.RunQuery(Query{Scope: "/lib", Conds: []Condition{{Attr: "survey", Op: "=", Value: "2mass"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("hits = %v", paths(hits))
	}
	// Scope excludes /other even though it matches.
	for _, h := range hits {
		if !types.Within("/lib", h.Path) {
			t.Errorf("hit outside scope: %s", h.Path)
		}
	}
	// Root scope sees everything.
	hits, _ = c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "survey", Op: "=", Value: "2mass"}}})
	if len(hits) != 3 {
		t.Errorf("root hits = %v", paths(hits))
	}
}

func TestQueryConjunction(t *testing.T) {
	c := seedQuery(t)
	hits, _ := c.RunQuery(Query{Scope: "/lib", Conds: []Condition{
		{Attr: "survey", Op: "=", Value: "2mass"},
		{Attr: "band", Op: "=", Value: "J"},
	}})
	if len(hits) != 1 || hits[0].Path != "/lib/a/m31.fits" {
		t.Errorf("AND hits = %v", paths(hits))
	}
}

func TestQueryOperators(t *testing.T) {
	c := seedQuery(t)
	cases := []struct {
		cond Condition
		want int
	}{
		{Condition{"mag", ">", "4.0"}, 2},
		{Condition{"mag", ">=", "4.0"}, 3},
		{Condition{"mag", "<", "4.0"}, 1},
		{Condition{"mag", "<=", "7.1"}, 3},
		{Condition{"survey", "<>", "2mass"}, 2},
		{Condition{"sys:name", "like", "m%.fits"}, 3},
		{Condition{"sys:name", "not like", "m%"}, 1},
		{Condition{"band", "like", "j"}, 2}, // LIKE is case-insensitive
	}
	for _, tc := range cases {
		hits, err := c.RunQuery(Query{Scope: "/lib", Conds: []Condition{tc.cond}})
		if err != nil {
			t.Fatalf("%+v: %v", tc.cond, err)
		}
		if len(hits) != tc.want {
			t.Errorf("%+v: got %d hits %v, want %d", tc.cond, len(hits), paths(hits), tc.want)
		}
	}
}

func TestQuerySystemAttrs(t *testing.T) {
	c := seedQuery(t)
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "sys:collection", Op: "=", Value: "/lib/a"}}})
	if len(hits) != 2 {
		t.Errorf("sys:collection hits = %v", paths(hits))
	}
	hits, _ = c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "sys:owner", Op: "=", Value: "u"}}})
	if len(hits) != 5 {
		t.Errorf("sys:owner hits = %v", paths(hits))
	}
	// Size: all registered with size 0.
	hits, _ = c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "sys:size", Op: "<=", Value: "0"}}})
	if len(hits) != 5 {
		t.Errorf("sys:size hits = %v", paths(hits))
	}
}

func TestQueryAnnotations(t *testing.T) {
	c := seedQuery(t)
	c.AddAnnotation("/lib/a/m31.fits", types.Annotation{Author: "bob", Text: "the Andromeda galaxy"})
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "annotation", Op: "like", Value: "%andromeda%"}}})
	if len(hits) != 1 || hits[0].Path != "/lib/a/m31.fits" {
		t.Errorf("annotation hits = %v", paths(hits))
	}
}

func TestQuerySelectValues(t *testing.T) {
	c := seedQuery(t)
	hits, _ := c.RunQuery(Query{
		Scope:  "/lib",
		Conds:  []Condition{{Attr: "band", Op: "=", Value: "H"}},
		Select: []string{"mag", "sys:name", "missing"},
	})
	if len(hits) != 1 {
		t.Fatalf("hits = %v", paths(hits))
	}
	v := hits[0].Values
	if len(v[0]) != 1 || v[0][0] != "8.4" {
		t.Errorf("mag = %v", v[0])
	}
	if len(v[1]) != 1 || v[1][0] != "m51.fits" {
		t.Errorf("sys:name = %v", v[1])
	}
	if len(v[2]) != 0 {
		t.Errorf("missing attr = %v", v[2])
	}
}

func TestQueryLimitAndDeterminism(t *testing.T) {
	c := seedQuery(t)
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "sys:owner", Op: "=", Value: "u"}}, Limit: 2})
	if len(hits) != 2 {
		t.Fatalf("limit hits = %v", paths(hits))
	}
	// Deterministic order: sorted by path.
	h1, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "survey", Op: "=", Value: "2mass"}}})
	h2, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "survey", Op: "=", Value: "2mass"}}})
	for i := range h1 {
		if h1[i].Path != h2[i].Path {
			t.Error("query order must be deterministic")
		}
	}
}

func TestQueryBadOperator(t *testing.T) {
	c := seedQuery(t)
	if _, err := c.RunQuery(Query{Conds: []Condition{{Attr: "a", Op: "~", Value: "x"}}}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad op: %v", err)
	}
}

func TestQueryUnknownAttr(t *testing.T) {
	c := seedQuery(t)
	hits, err := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "nonexistent", Op: "=", Value: "x"}}})
	if err != nil || len(hits) != 0 {
		t.Errorf("unknown attr = %v, %v", paths(hits), err)
	}
}

func TestQueryCaseInsensitiveAttrNames(t *testing.T) {
	c := seedQuery(t)
	hits, _ := c.RunQuery(Query{Scope: "/lib", Conds: []Condition{{Attr: "SURVEY", Op: "=", Value: "dposs"}}})
	if len(hits) != 2 {
		t.Errorf("case-insensitive attr = %v", paths(hits))
	}
}

func TestQueryAttrNames(t *testing.T) {
	c := seedQuery(t)
	c.SetStructural("/lib", types.StructuralAttr{Name: "curator-note"})
	names := c.QueryAttrNames("/lib")
	want := map[string]bool{"survey": true, "band": true, "mag": true, "curator-note": true}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected attr %q", n)
		}
	}
	// Scoped: /other only has object attrs.
	names = c.QueryAttrNames("/other")
	if len(names) != 3 {
		t.Errorf("scoped names = %v", names)
	}
}

func TestQueryMultiValuedAttr(t *testing.T) {
	c := seedQuery(t)
	// An object with two values for one attr matches either.
	c.AddMeta("/lib/a/m31.fits", types.MetaUser, types.AVU{Name: "band", Value: "H"})
	hits, _ := c.RunQuery(Query{Scope: "/lib", Conds: []Condition{{Attr: "band", Op: "=", Value: "H"}}})
	if len(hits) != 2 {
		t.Errorf("multi-value hits = %v", paths(hits))
	}
}

func TestQueryDeletedObjectGone(t *testing.T) {
	c := seedQuery(t)
	c.DeleteObject("/lib/a/m31.fits")
	hits, _ := c.RunQuery(Query{Scope: "/", Conds: []Condition{{Attr: "band", Op: "=", Value: "J"}}})
	for _, h := range hits {
		if h.Path == "/lib/a/m31.fits" {
			t.Error("deleted object still in index")
		}
	}
}
