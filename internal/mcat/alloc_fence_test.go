package mcat_test

import (
	"fmt"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// Allocation fences for the catalog's read paths: what a read allocates
// may grow with what it returns, never with what it looks at.

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// queryCatalog holds n objects with band=J, of which exactly ten have
// mag >= 990: the index narrows to n candidates, the query hits ten.
func queryCatalog(t *testing.T, n int) *mcat.Catalog {
	t.Helper()
	c := mcat.New("admin", "local")
	must(t, c.MkCollAll("/zone/proj", "admin"))
	for i := 0; i < n; i++ {
		o := &types.DataObject{Collection: "/zone/proj", Name: fmt.Sprintf("o%05d", i), Owner: "alice"}
		_, err := c.RegisterObject(o)
		must(t, err)
		mag := i % 500
		if i < 10 {
			mag = 990 + i
		}
		for _, avu := range []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: fmt.Sprint(mag)}} {
			must(t, c.AddMeta(o.Path(), types.MetaUser, avu))
		}
	}
	return c
}

func TestQueryAllocatesPerHitNotPerCandidate(t *testing.T) {
	skipUnderRace(t)
	q := mcat.Query{
		Scope:  "/",
		Conds:  []mcat.Condition{{Attr: "band", Op: "=", Value: "J"}, {Attr: "mag", Op: ">=", Value: "990"}},
		Select: []string{"mag"},
	}
	allocs := func(candidates int) float64 {
		c := queryCatalog(t, candidates)
		return testing.AllocsPerRun(20, func() {
			hits, err := c.RunQuery(q)
			if err != nil || len(hits) != 10 {
				t.Fatalf("%d candidates: %d hits, err %v", candidates, len(hits), err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Errorf("a 10-hit query allocates %v times over 200 candidates and %v over 2000; it must not depend on the candidates", small, large)
	}
}

func TestKeyOfCleanPathDoesNotAllocate(t *testing.T) {
	skipUnderRace(t)
	for _, p := range []string{"/", "/zone", "/zone/proj", "/zone/proj/run7/frame-000123.fits"} {
		if n := testing.AllocsPerRun(100, func() { shard.KeyOf(p) }); n != 0 {
			t.Errorf("KeyOf(%q) allocates %v times, want 0", p, n)
		}
	}
}

func TestEffectiveLevelDoesNotAllocate(t *testing.T) {
	skipUnderRace(t)
	c := mcat.New("admin", "local")
	for _, u := range []string{"alice", "bob"} {
		must(t, c.AddUser(types.User{Name: u, Domain: "sdsc"}))
	}
	// A group exists, but alice is in none.
	must(t, c.AddGroup("staff"))
	must(t, c.AddToGroup("staff", "bob"))
	must(t, c.MkCollAll("/zone/proj/run7", "admin"))
	must(t, c.SetACL("/zone/proj", "alice", acl.Read))
	must(t, c.SetACL("/zone", "g:staff", acl.Write))
	o := &types.DataObject{Collection: "/zone/proj/run7", Name: "frame.fits", Owner: "bob"}
	_, err := c.RegisterObject(o)
	must(t, err)
	path := o.Path() // depth 4
	if got := c.EffectiveLevel(path, "alice"); got != acl.Read {
		t.Fatalf("EffectiveLevel = %v, want the level inherited from /zone/proj", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.EffectiveLevel(path, "alice") }); n != 0 {
		t.Errorf("EffectiveLevel at depth 4 allocates %v times, want 0", n)
	}
}

func TestListCollAllocationsDoNotGrowWithEntries(t *testing.T) {
	skipUnderRace(t)
	c := mcat.New("admin", "local")
	must(t, c.MkCollAll("/zone/proj", "admin"))
	for i := 0; i < 200; i++ {
		o := &types.DataObject{Collection: "/zone/proj", Name: fmt.Sprintf("o%03d", i), Owner: "alice"}
		_, err := c.RegisterObject(o)
		must(t, err)
	}
	n := testing.AllocsPerRun(20, func() {
		if st, err := c.ListColl("/zone/proj"); err != nil || len(st) != 200 {
			t.Fatalf("ListColl: %d entries, err %v", len(st), err)
		}
	})
	if n > 8 {
		t.Errorf("ListColl of 200 entries allocates %v times, want <= 8 in total", n)
	}
}
