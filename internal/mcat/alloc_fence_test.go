package mcat_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
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

// skipAllocFence stands an allocation fence down where the counts are not
// the catalog's own: under the race detector, and with the row canary
// built.
func skipAllocFence(t *testing.T) {
	t.Helper()
	if raceEnabled || rowCanary {
		t.Skip("allocation counts are not meaningful under the race detector or a canary")
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
	skipAllocFence(t)
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
	skipAllocFence(t)
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
	skipAllocFence(t)
	for _, p := range []string{"/", "/zone", "/zone/proj", "/zone/proj/run7/frame-000123.fits"} {
		if n := testing.AllocsPerRun(100, func() { shard.KeyOf(p) }); n != 0 {
			t.Errorf("KeyOf(%q) allocates %v times, want 0", p, n)
		}
	}
}

func TestEffectiveLevelDoesNotAllocate(t *testing.T) {
	skipAllocFence(t)
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
	skipAllocFence(t)
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
	skipAllocFence(t)
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

// TestGetResourceAllocatesNothing: a resource lookup hands out the
// stored row, whose Members the reader shares, so a put that reads a
// logical resource's policy or owner copies nothing onto the heap.
func TestGetResourceAllocatesNothing(t *testing.T) {
	skipAllocFence(t)
	c := mcat.New("admin", "local")
	for _, name := range []string{"d1", "d2"} {
		must(t, c.AddResource(types.Resource{Name: name, Kind: types.ResourcePhysical, Driver: "memfs"}))
	}
	must(t, c.AddResource(types.Resource{Name: "pair", Kind: types.ResourceLogical, Members: []string{"d1", "d2"}, ReplPolicy: "async:1"}))
	n := testing.AllocsPerRun(100, func() {
		if r, err := c.GetResource("pair"); err != nil || len(r.Members) != 2 {
			t.Fatalf("GetResource = %+v, %v", r, err)
		}
	})
	if n != 0 {
		t.Errorf("GetResource of a logical resource allocates %v times, want 0", n)
	}
}

// TestCheckMandatoryAllocatesNothing: a put checks its collection's
// structural attributes by walking up the collection's path, whose
// ancestors are its prefixes, so where none is defined the check makes
// no object.
func TestCheckMandatoryAllocatesNothing(t *testing.T) {
	skipAllocFence(t)
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
// metaEntry or annotation slice. The entry, its line and the triplet or
// annotation it points at are built in a pooled line buffer, the line
// is appended there by hand (times included) and the index keeps a
// value that one path holds inline, so nothing else is made.
func TestMutatorsKeepOnlyWhatTheyStore(t *testing.T) {
	skipAllocFence(t)
	const runs = 200
	c := mcat.New("admin", "local")
	c.SetJournal(durable.NewJournal(io.Discard))
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
	if addMeta != 1 {
		t.Errorf("AddMeta makes %v objects, want 1: the metaEntry slice", addMeta)
	}
	if annotate != 1 {
		t.Errorf("AddAnnotation makes %v objects, want 1: the annotation slice", annotate)
	}
}

// TestPostingSetMapsOnlyFromTheSecondPath: the index keeps a value that
// one path holds inline, so a triplet whose value is new makes only its
// path's metaEntry slice; the second path to hold a value turns the
// value's set into a map (what a map of two costs, more than nothing);
// a third path lands in that map and makes nothing more.
func TestPostingSetMapsOnlyFromTheSecondPath(t *testing.T) {
	skipAllocFence(t)
	const runs = 100
	c := mcat.New("admin", "local")
	must(t, c.MkCollAll("/zone/proj", "admin"))
	paths := make([][3]string, runs+1)
	for i := range paths {
		for k := range paths[i] {
			o := &types.DataObject{Collection: "/zone/proj", Name: fmt.Sprintf("o%05d.%d", i, k), Owner: "alice"}
			_, err := c.RegisterObject(o)
			must(t, err)
			paths[i][k] = o.Path()
		}
	}
	values := make([]string, len(paths))
	for i := range values {
		values[i] = fmt.Sprint("v", i)
	}
	holders := func(k int) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			must(t, c.AddMeta(paths[i][k], types.MetaUser, types.AVU{Name: "band", Value: values[i]}))
			i++
		})
	}
	first, second, third := holders(0), holders(1), holders(2)
	if first != 1 || third != 1 || second <= first {
		t.Errorf("a value's first, second and third path make %v, %v and %v objects; want 1, more than 1 (the set's map) and 1", first, second, third)
	}
	for i, v := range values {
		q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "band", Op: "=", Value: v}}}
		hits, err := c.RunQuery(q)
		must(t, err)
		if len(hits) != 3 || hits[0].Path != paths[i][0] || hits[2].Path != paths[i][2] {
			t.Fatalf("band = %s: %+v, want its three paths", v, hits)
		}
	}
}

// putRow is a one-replica put's row, as the broker hands it to Ingest.
func putRow(id types.ObjectID, name string) *types.DataObject {
	return &types.DataObject{
		ID: id, Collection: "/zone/proj", Name: name, Owner: "alice", DataType: "generic",
		Size: 4096, Checksum: "4f2a9c", Replicas: []types.Replica{{
			Resource: "disk1", PhysicalPath: fmt.Sprintf("/vault/%03d/oid%d.r0", id%512, id),
			Status: types.ReplicaClean, Size: 4096, Checksum: "4f2a9c",
		}},
	}
}

// TestEncodeIngestLineAllocatesNothing: a put's journal line, five times
// among its fields, is appended into a pooled buffer without one object.
func TestEncodeIngestLineAllocatesNothing(t *testing.T) {
	skipAllocFence(t)
	o := putRow(7, "frame.fits")
	o.CreatedAt = time.Date(2002, 7, 24, 9, 0, 0, 123456789, time.UTC)
	o.ModifiedAt, o.Replicas[0].CreatedAt, o.Replicas[0].ModifiedAt = o.CreatedAt, o.CreatedAt, o.CreatedAt
	e := &mcat.Entry{Op: "ingest", Object: o, Meta: []types.AVU{{Name: "note", Value: "n7"}}}
	if n := testing.AllocsPerRun(100, func() { must(t, mcat.EncodeLine(e)) }); n != 0 {
		t.Errorf("encoding an ingest line allocates %v times, want 0", n)
	}
}

// TestIngestKeepsOnlyWhatItStores pins a journaled put with one triplet
// at the one object the catalog makes for it: its triplet's metaEntry
// slice. The row and its path are the caller's, handed over; the line is
// appended in a pooled buffer, times included, and the triplet's value,
// new to the index, is kept inline. (The tables' maps grow now and then,
// which averages out under one object a put.)
func TestIngestKeepsOnlyWhatItStores(t *testing.T) {
	skipAllocFence(t)
	const runs = 200
	c := mcat.New("admin", "local")
	c.SetJournal(durable.NewJournal(io.Discard))
	must(t, c.MkCollAll("/zone/proj", "admin"))
	rows := make([]*types.DataObject, runs+1)
	paths := make([]string, len(rows))
	meta := make([][]types.AVU, len(rows))
	for i := range rows {
		name := fmt.Sprintf("o%05d", i)
		id, err := c.NewObjectID("/zone/proj/" + name)
		must(t, err)
		rows[i] = putRow(id, name)
		paths[i] = rows[i].Path()
		meta[i] = []types.AVU{{Name: "note", Value: fmt.Sprint("n", i)}}
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		must(t, c.Ingest(paths[i], rows[i], meta[i]))
		i++
	})
	if n != 1 {
		t.Errorf("a journaled put makes %v objects, want 1: its metaEntry slice", n)
	}
}

// TestLoadAllocates fences what a boot makes per snapshot line: a
// snapshot of 1 000 puts, each an ingest line (one replica, two user
// metadata values) and an addmeta line (one type value), the line shapes
// of the bench's catalog_heavy. Loading it makes the catalog's rows,
// their strings and its indexes, and reading a line makes only the
// entry's payload: each string, each list but Meta (which a replay
// reads into the last line's list) and each pointed-at struct once.
// History: 20.1 objects a line while lines were read by json.Unmarshal;
// 12.1 once read by hand (line.go's readEntry); 11.1 once Meta's list
// was reused.
func TestLoadAllocates(t *testing.T) {
	skipAllocFence(t)
	const puts = 1000
	src := mcat.New("admin", "local")
	must(t, src.MkCollAll("/zone/proj", "admin"))
	at := time.Date(2002, 7, 24, 9, 0, 0, 123456789, time.UTC)
	for i := 0; i < puts; i++ {
		name := fmt.Sprintf("o%05d", i)
		id, err := src.NewObjectID("/zone/proj/" + name)
		must(t, err)
		o := putRow(id, name)
		o.CreatedAt, o.ModifiedAt, o.Replicas[0].CreatedAt, o.Replicas[0].ModifiedAt = at, at, at, at
		must(t, src.Ingest(o.Path(), o, []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: fmt.Sprint(i % 1000)}}))
		must(t, src.AddMeta(o.Path(), types.MetaType, types.AVU{Name: "dc:title", Value: fmt.Sprint("survey field ", i)}))
	}
	var snap bytes.Buffer
	must(t, src.Save(&snap))
	lines := bytes.Count(snap.Bytes(), []byte("\n"))
	c := mcat.New("admin", "local")
	perLine := testing.AllocsPerRun(3, func() { must(t, c.Load(bytes.NewReader(snap.Bytes()))) }) / float64(lines)
	if budget := 12.0; perLine > budget {
		t.Errorf("loading a snapshot makes %.1f objects a line, budget %.0f", perLine, budget)
	}
}
