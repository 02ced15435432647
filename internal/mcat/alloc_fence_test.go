package mcat_test

import (
	"fmt"
	"io"
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

// TestQueryAllocatesPerAnswerNotPerHit holds a query's Select values to
// a fixed number of slabs per answer: with two columns, a 100-hit answer
// allocates what a 10-hit one does.
func TestQueryAllocatesPerAnswerNotPerHit(t *testing.T) {
	skipUnderRace(t)
	c := queryCatalog(t, 200)
	allocs := func(minMag string, want int) float64 {
		q := mcat.Query{
			Scope:  "/",
			Conds:  []mcat.Condition{{Attr: "band", Op: "=", Value: "J"}, {Attr: "mag", Op: ">=", Value: minMag}},
			Select: []string{"mag", "band"},
		}
		return testing.AllocsPerRun(20, func() {
			hits, err := c.RunQuery(q)
			if err != nil || len(hits) != want {
				t.Fatalf("mag >= %s: %d hits, err %v; want %d", minMag, len(hits), err, want)
			}
			if h := hits[len(hits)-1]; len(h.Values) != 2 || len(h.Values[0]) != 1 || h.Values[1][0] != "J" {
				t.Fatalf("mag >= %s: last hit %+v, want one value in each of two columns", minMag, h)
			}
		})
	}
	small, large := allocs("990", 10), allocs("110", 100)
	if small != large {
		t.Errorf("a 2-column query allocates %v times for 10 hits and %v for 100; it must not depend on the hits", small, large)
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

// TestGetObjectAllocatesNothing: a lookup hands out the stored row,
// whose slices the reader shares, so it copies nothing onto the heap
// however many replicas, pins and versions the row holds.
func TestGetObjectAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := mcat.New("admin", "local")
	must(t, c.MkCollAll("/zone/proj", "admin"))
	o := &types.DataObject{
		Collection: "/zone/proj", Name: "frame.fits", Owner: "bob",
		Replicas: []types.Replica{{Number: 0, Resource: "r1"}, {Number: 1, Resource: "r2"}},
		Pins:     []types.Pin{{Resource: "r1", Holder: "bob"}},
		Versions: []types.Version{{Number: 1, Resource: "r1"}},
		Method:   &types.MethodSpec{Name: "m", Args: []string{"-v"}},
	}
	id, err := c.RegisterObject(o)
	must(t, err)
	path := o.Path()
	for name, get := range map[string]func() (types.DataObject, error){
		"GetObject":     func() (types.DataObject, error) { return c.GetObject(path) },
		"GetObjectByID": func() (types.DataObject, error) { return c.GetObjectByID(id) },
	} {
		n := testing.AllocsPerRun(100, func() {
			if got, err := get(); err != nil || len(got.Replicas) != 2 {
				t.Fatalf("%s = %+v, %v", name, got, err)
			}
		})
		if n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
}

// TestCheckMandatoryAllocatesNothing: a put checks its collection's
// structural attributes by walking up the collection's path, whose
// ancestors are its prefixes, so where none is defined the check makes
// no object.
func TestCheckMandatoryAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := mcat.New("admin", "local")
	must(t, c.MkCollAll("/zone/proj/run7", "admin"))
	meta := []types.AVU{{Name: "band", Value: "J"}}
	if n := testing.AllocsPerRun(100, func() {
		if missing := c.CheckMandatory("/zone/proj/run7", meta); len(missing) != 0 {
			t.Fatalf("missing %v", missing)
		}
	}); n != 0 {
		t.Errorf("CheckMandatory at depth 3 allocates %v times, want 0", n)
	}
}

// TestMutatorsKeepOnlyWhatTheyStore holds a journaled catalog's AddMeta
// and AddAnnotation to the objects the catalog keeps: the path's first
// metaEntry or annotation, and for a triplet the index's set of paths
// for its new value. The entry, its line and the triplet or annotation
// it points at are built in a pooled line buffer and make nothing; the
// one more object an annotation costs is its creation time's JSON
// (time.Time.MarshalJSON, ROADMAP M.4).
func TestMutatorsKeepOnlyWhatTheyStore(t *testing.T) {
	skipUnderRace(t)
	const runs = 200
	c := mcat.New("admin", "local")
	c.SetJournal(mcat.NewJournal(io.Discard))
	must(t, c.MkCollAll("/zone/proj", "admin"))
	paths := make([]string, 2*(runs+1))
	for i := range paths {
		o := &types.DataObject{Collection: "/zone/proj", Name: fmt.Sprintf("o%05d", i), Owner: "alice"}
		_, err := c.RegisterObject(o)
		must(t, err)
		paths[i] = o.Path()
	}
	values := make([]string, len(paths))
	for i := range values {
		values[i] = fmt.Sprint("v", i)
	}
	i := 0
	addMeta := testing.AllocsPerRun(runs, func() {
		must(t, c.AddMeta(paths[i], types.MetaUser, types.AVU{Name: "band", Value: values[i]}))
		i++
	})
	annotate := testing.AllocsPerRun(runs, func() {
		must(t, c.AddAnnotation(paths[i], types.Annotation{Author: "alice", Text: "seen"}))
		i++
	})
	// A triplet keeps three objects: its path's metaEntry slice, and the
	// new value's set of paths, a map and the group its first path lands
	// in.
	if addMeta != 3 {
		t.Errorf("AddMeta makes %v objects, want 3: the metaEntry slice and the index's new set", addMeta)
	}
	if annotate != 2 {
		t.Errorf("AddAnnotation makes %v objects, want 2: the annotation slice and its time's JSON", annotate)
	}
}
