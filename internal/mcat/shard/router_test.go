package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

func newTestRouter(t *testing.T, n int) *Router {
	t.Helper()
	r := NewRouter(n, "admin", "local")
	r.EnableMemoryJournals()
	return r
}

// seedGrid applies one representative mutation script to any Catalog.
func seedGrid(t *testing.T, c Catalog) {
	t.Helper()
	steps := []error{
		c.AddUser(types.User{Name: "alice", Domain: "sdsc"}),
		c.AddUser(types.User{Name: "bob", Domain: "sdsc"}),
		c.AddGroup("staff"),
		c.AddToGroup("staff", "alice"),
		c.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"}),
		c.MkColl("/home", "admin"),
		c.MkCollAll("/home/alice/deep", "alice"),
		c.MkCollAll("/home/bob", "bob"),
		c.MkCollAll("/projects/p1", "admin"),
		c.SetACL("/home/alice", "alice", acl.Own),
		c.SetACL("/home", "bob", acl.Read),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("seed step %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		coll := "/home/alice/deep"
		if i%2 == 1 {
			coll = "/projects/p1"
		}
		o := &types.DataObject{Collection: coll, Name: fmt.Sprintf("f%d.dat", i), Owner: "alice", DataType: "generic"}
		if _, err := c.RegisterObject(o); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if err := c.AddMeta(o.Path(), types.MetaUser, types.AVU{Name: "experiment", Value: fmt.Sprintf("e%d", i%2)}); err != nil {
			t.Fatalf("meta %d: %v", i, err)
		}
	}
}

// A 1-shard router must be indistinguishable from the bare catalog:
// same results for every read after the same mutation script.
func TestSingleShardMatchesMonolithic(t *testing.T) {
	mono := mcat.New("admin", "local")
	r := newTestRouter(t, 1)
	seedGrid(t, mono)
	seedGrid(t, r)

	if got, want := r.SubColls("/"), mono.SubColls("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("SubColls: %v != %v", got, want)
	}
	if got, want := r.SubtreeObjects("/"), mono.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("SubtreeObjects: %v != %v", got, want)
	}
	gs, ms := r.Stats(), mono.Stats()
	if gs.Objects != ms.Objects || gs.Collections != ms.Collections || gs.MetaEntries != ms.MetaEntries {
		t.Errorf("Stats: %+v != %+v", gs, ms)
	}
	q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e1"}}}
	h1, err1 := r.RunQuery(q)
	h2, err2 := mono.RunQuery(q)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(h1, h2) {
		t.Errorf("RunQuery: %v (%v) != %v (%v)", h1, err1, h2, err2)
	}
	if got, want := r.EffectiveLevel("/home/alice/deep", "bob"), mono.EffectiveLevel("/home/alice/deep", "bob"); got != want {
		t.Errorf("EffectiveLevel: %v != %v", got, want)
	}
}

// The same script on 1 and 4 shards must produce the same logical
// namespace: every global read agrees.
func TestShardedMatchesMonolithicReads(t *testing.T) {
	mono := mcat.New("admin", "local")
	r := newTestRouter(t, 4)
	seedGrid(t, mono)
	seedGrid(t, r)

	if got, want := r.SubColls("/"), mono.SubColls("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("SubColls: %v != %v", got, want)
	}
	if got, want := r.SubtreeObjects("/"), mono.SubtreeObjects("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("SubtreeObjects: %v != %v", got, want)
	}
	for _, p := range mono.SubtreeObjects("/") {
		mo, _ := mono.GetObject(p)
		so, err := r.GetObject(p)
		if err != nil {
			t.Fatalf("GetObject(%s): %v", p, err)
		}
		if so.Name != mo.Name || so.Owner != mo.Owner {
			t.Errorf("object %s: %+v != %+v", p, so, mo)
		}
		// Objects are reachable by ID through the scatter lookup.
		byID, err := r.GetObjectByID(so.ID)
		if err != nil || byID.Path() != p {
			t.Errorf("GetObjectByID(%d) = %s (%v), want %s", so.ID, byID.Path(), err, p)
		}
	}
	// ACLs inherited through spine ancestors resolve on every shard.
	for _, p := range []string{"/home/alice/deep", "/projects/p1"} {
		if got, want := r.EffectiveLevel(p, "bob"), mono.EffectiveLevel(p, "bob"); got != want {
			t.Errorf("EffectiveLevel(%s, bob): %v != %v", p, got, want)
		}
	}
	// Scatter-gather query agrees with the monolithic answer.
	q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e0"}}}
	mh, _ := mono.RunQuery(q)
	sh, partial, err := r.QueryPartial(q)
	if err != nil || len(partial) != 0 {
		t.Fatalf("QueryPartial: partial=%v err=%v", partial, err)
	}
	var mp, sp []string
	for _, h := range mh {
		mp = append(mp, h.Path)
	}
	for _, h := range sh {
		sp = append(sp, h.Path)
	}
	sort.Strings(mp)
	sort.Strings(sp)
	if !reflect.DeepEqual(mp, sp) {
		t.Errorf("query hits: %v != %v", sp, mp)
	}
}

// Unique object IDs across shards: the per-shard allocators stride so
// two shards can never mint the same ID.
func TestObjectIDsUniqueAcrossShards(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	seen := map[types.ObjectID]string{}
	for _, p := range r.SubtreeObjects("/") {
		o, err := r.GetObject(p)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[o.ID]; dup {
			t.Errorf("ID %d on both %s and %s", o.ID, prev, p)
		}
		seen[o.ID] = p
	}
}

// Deep-scoped queries route to a single home shard; the single-shard
// counter must tick while the scatter counter stays put.
func TestDeepScopeQueriesSingleShard(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	q := mcat.Query{Scope: "/home/alice/deep", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e0"}}}
	hits, partial, err := r.QueryPartial(q)
	if err != nil || len(partial) != 0 {
		t.Fatalf("QueryPartial: partial=%v err=%v", partial, err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3", len(hits))
	}
}

// A move that crosses shards keeps identity: same ID, metadata, ACL
// and annotations on the destination shard, nothing left on the source.
func TestCrossShardMoveObject(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	// Find an object whose home differs from a destination collection's.
	src := "/home/alice/deep/f0.dat"
	var dstColl string
	for i := 0; i < 50; i++ {
		cand := fmt.Sprintf("/projects/m%d", i)
		if r.homeIdx(cand) != r.homeIdx(src) {
			dstColl = cand
			break
		}
	}
	if dstColl == "" {
		t.Skip("no cross-shard destination found")
	}
	if err := r.MkCollAll(dstColl, "admin"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"J", "H"} {
		if err := r.AddMeta(src, types.MetaUser, types.AVU{Name: "band", Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := r.GetObject(src)
	if err != nil {
		t.Fatal(err)
	}
	var dst bytes.Buffer
	r.AttachJournal(r.homeIdx(dstColl), durable.NewJournal(&dst))
	if err := r.MoveObject(src, dstColl, "moved.dat"); err != nil {
		t.Fatalf("MoveObject: %v", err)
	}
	// The object and its three triplets arrive as one entry.
	if lines := bytes.Split(bytes.TrimSpace(dst.Bytes()), []byte("\n")); len(lines) != 1 || !bytes.HasPrefix(lines[0], []byte(`{"Op":"ingest"`)) {
		t.Errorf("the destination shard journaled %d lines, want one ingest entry:\n%s", len(lines), dst.Bytes())
	}
	if _, err := r.GetObject(src); err == nil {
		t.Error("source path still resolves after cross-shard move")
	}
	after, err := r.GetObject(dstColl + "/moved.dat")
	if err != nil {
		t.Fatalf("moved object: %v", err)
	}
	if after.ID != before.ID {
		t.Errorf("move changed ID: %d -> %d", before.ID, after.ID)
	}
	meta, err := r.GetMeta(dstColl+"/moved.dat", types.MetaUser)
	if err != nil || len(meta) != 3 || meta[0].Name != "experiment" {
		t.Errorf("metadata did not follow the move: %v (%v)", meta, err)
	}
	if byID, err := r.GetObjectByID(before.ID); err != nil || byID.Path() != dstColl+"/moved.dat" {
		t.Errorf("GetObjectByID after move: %v (%v)", byID.Path(), err)
	}
}

// A cross-shard collection rename migrates the whole subtree.
func TestCrossShardMoveColl(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	src := "/home/alice/deep"
	var dst string
	for i := 0; i < 50; i++ {
		cand := fmt.Sprintf("/projects/sub%d", i)
		if r.homeIdx(cand) != r.homeIdx(src) {
			dst = cand
			break
		}
	}
	if dst == "" {
		t.Skip("no cross-shard destination found")
	}
	wantObjs := len(r.SubtreeObjects(src))
	if err := r.MoveColl(src, dst); err != nil {
		t.Fatalf("MoveColl: %v", err)
	}
	if r.CollExists(src) {
		t.Error("source collection still exists")
	}
	if got := len(r.SubtreeObjects(dst)); got != wantObjs {
		t.Errorf("migrated %d objects, want %d", got, wantObjs)
	}
	if _, err := r.GetColl(dst); err != nil {
		t.Errorf("destination collection: %v", err)
	}
}

// Spine renames would re-home every shard's broadcast state; the
// router refuses rather than silently corrupting.
func TestSpineMoveUnsupportedWhenSharded(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	if err := r.MoveColl("/home", "/casa"); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("spine MoveColl err = %v, want ErrUnsupported", err)
	}
}

// Mutating a follower shard fails with the read-only sentinel and the
// leader's name in the message; reads keep working.
func TestFollowerRejectsWrites(t *testing.T) {
	r := newTestRouter(t, 1)
	seedGrid(t, r)
	r.SetFollower(0, "srb-leader")
	err := r.MkColl("/stuff", "admin")
	if !errors.Is(err, types.ErrReadOnly) {
		t.Fatalf("follower MkColl err = %v, want ErrReadOnly", err)
	}
	if _, err := r.GetColl("/home"); err != nil {
		t.Errorf("follower read failed: %v", err)
	}
	r.Promote(0)
	if err := r.MkColl("/stuff", "admin"); err != nil {
		t.Errorf("promoted leader MkColl: %v", err)
	}
}

// A stale shard is reported by name in the partial list instead of
// silently returning short results.
func TestQueryReportsStaleShardPartial(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	r.SetFollower(2, "srb-leader")
	q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e0"}}}
	_, partial, err := r.QueryPartial(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial, []string{"shard-2"}) {
		t.Errorf("partial = %v, want [shard-2]", partial)
	}
	// The strict entry point refuses a partial answer outright.
	if _, err := r.RunQuery(q); !errors.Is(err, types.ErrTimeout) {
		t.Errorf("RunQuery on stale shard err = %v, want ErrTimeout", err)
	}
}

// gateWriter blocks every journal write until its gate closes,
// signalling once the first write has begun — a deterministic way to
// wedge one shard mid-mutation (journal appends hold the catalog
// write lock, so the shard's queries block behind it).
type gateWriter struct {
	started chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.gate
	return len(p), nil
}

// A shard that cannot answer within the per-shard deadline lands in
// the partial list by name; the answering shards' hits still return.
func TestQueryDeadlineProducesPartial(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	victim := r.homeIdx("/projects/p1")
	w := &gateWriter{started: make(chan struct{}), gate: make(chan struct{})}
	r.AttachJournal(victim, durable.NewJournal(w))
	done := make(chan error, 1)
	go func() { done <- r.MkColl("/projects/p1/held", "admin") }()
	<-w.started // the mutation now holds the victim shard's write lock

	r.SetQueryTimeout(100 * time.Millisecond)
	_, partial, err := r.QueryPartial(mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e1"}}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range partial {
		if name == fmt.Sprintf("shard-%d", victim) {
			found = true
		}
	}
	if !found {
		t.Errorf("partial = %v, want it to name shard-%d", partial, victim)
	}
	close(w.gate)
	if err := <-done; err != nil {
		t.Fatalf("held mutation: %v", err)
	}
}

// Spine state (ACLs on / and depth-1 collections, users, groups,
// resources) is visible on every shard so permission walks stay local.
func TestSpineBroadcast(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	for i := 0; i < r.N(); i++ {
		c := r.Shard(i)
		if _, err := c.GetUser("alice"); err != nil {
			t.Errorf("shard %d: user alice missing: %v", i, err)
		}
		if _, err := c.GetResource("r1"); err != nil {
			t.Errorf("shard %d: resource r1 missing: %v", i, err)
		}
		if !c.CollExists("/home") {
			t.Errorf("shard %d: spine collection /home missing", i)
		}
		if lvl := c.EffectiveLevel("/home", "bob"); lvl < acl.Read {
			t.Errorf("shard %d: spine ACL for bob = %v", i, lvl)
		}
	}
}

// A broadcast the home shard refuses reaches no other shard: an object
// /foo under the root holds the name, so neither MkColl("/foo") nor
// MkCollAll("/foo/bar") may leave a collection /foo on any shard, and
// listing the root still shows the object.
func TestRefusedBroadcastLeavesNoTrace(t *testing.T) {
	r := newTestRouter(t, 4)
	if _, err := r.RegisterObject(&types.DataObject{Collection: "/", Name: "foo", Owner: "admin"}); err != nil {
		t.Fatal(err)
	}
	if err := r.MkColl("/foo", "admin"); !errors.Is(err, types.ErrExists) {
		t.Errorf("MkColl over an object: %v, want ErrExists", err)
	}
	if err := r.MkCollAll("/foo/bar", "admin"); !errors.Is(err, types.ErrExists) {
		t.Errorf("MkCollAll under an object: %v, want ErrExists", err)
	}
	for i := 0; i < r.N(); i++ {
		if r.Shard(i).CollExists("/foo") {
			t.Errorf("shard %d holds a collection /foo", i)
		}
	}
	ls, err := r.ListColl("/")
	if err != nil || len(ls) != 1 || ls[0].Path != "/foo" || ls[0].IsCollect {
		t.Errorf("ListColl(/) = %+v (%v), want the object /foo alone", ls, err)
	}
}

// An object directly under the root is depth 1 like a spine collection,
// but it lives on its home shard alone: its ACL goes there, not to
// every shard.
func TestACLOnObjectUnderRoot(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	if _, err := r.RegisterObject(&types.DataObject{Collection: "/", Name: "top.dat", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetACL("/top.dat", "bob", acl.Read); err != nil {
		t.Fatalf("SetACL: %v", err)
	}
	if lvl := r.EffectiveLevel("/top.dat", "bob"); lvl != acl.Read {
		t.Errorf("EffectiveLevel(bob) = %v, want read", lvl)
	}
}

// Structural attributes on a spine collection broadcast so mandatory
// checks work wherever the object lands.
func TestStructuralBroadcastOnSpine(t *testing.T) {
	r := newTestRouter(t, 4)
	seedGrid(t, r)
	if err := r.SetStructural("/home", types.StructuralAttr{Name: "origin", Mandatory: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.N(); i++ {
		missing := r.Shard(i).CheckMandatory("/home", nil)
		if len(missing) != 1 || missing[0] != "origin" {
			t.Errorf("shard %d: CheckMandatory = %v", i, missing)
		}
	}
}

// TestScatterReuseAfterDeadline: a scatter is recycled only when every
// shard has answered it. One that timed out is left to the GC, for its
// held shard still sends on its channel once released; recycled, it
// would hand that late answer to a later query. Queries that time out on
// a held shard, then 1 000 more as the shard lets go, must each return
// what a monolithic catalog does.
func TestScatterReuseAfterDeadline(t *testing.T) {
	mono := mcat.New("admin", "local")
	r := newTestRouter(t, 4)
	for _, c := range []Catalog{mono, r} {
		for top := 0; top < 8; top++ {
			coll := fmt.Sprintf("/c%d", top)
			if err := c.MkColl(coll, "admin"); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 6; j++ {
				o := &types.DataObject{Collection: coll, Name: fmt.Sprintf("o%d", j), Owner: "alice"}
				if _, err := c.RegisterObject(o); err != nil {
					t.Fatal(err)
				}
				for _, avu := range []types.AVU{{Name: "k", Value: fmt.Sprintf("v%d", (top+j)%3)}, {Name: "n", Value: fmt.Sprint(top*6 + j)}} {
					if err := c.AddMeta(o.Path(), types.MetaUser, avu); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	queries := []mcat.Query{
		{Scope: "/", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v0"}}, Select: []string{"n"}},
		{Scope: "/", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v1"}}, Select: []string{"n", "k"}},
		{Scope: "/", Conds: []mcat.Condition{{Attr: "n", Op: ">=", Value: "30"}}, Select: []string{"k"}, Limit: 7},
		{Scope: "/", Conds: []mcat.Condition{{Attr: "sys:name", Op: "like", Value: "o1%"}}, Select: []string{"sys:collection"}},
		{Scope: "/", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v2"}, {Attr: "n", Op: "<", Value: "20"}}},
	}

	victim := r.homeIdx("/c0/held")
	w := &gateWriter{started: make(chan struct{}), gate: make(chan struct{})}
	r.AttachJournal(victim, durable.NewJournal(w))
	done := make(chan error, 1)
	go func() { done <- r.MkColl("/c0/held", "admin") }()
	<-w.started // the victim shard's write lock is held from here
	if err := mono.MkColl("/c0/held", "admin"); err != nil {
		t.Fatal(err)
	}

	r.SetQueryTimeout(20 * time.Millisecond)
	held := fmt.Sprintf("shard-%d", victim)
	for i := 0; i < 8; i++ {
		_, partial, err := r.QueryPartial(queries[i%len(queries)])
		if err != nil || !reflect.DeepEqual(partial, []string{held}) {
			t.Fatalf("query %d on a held shard: partial %v, err %v; want [%s]", i, partial, err, held)
		}
	}
	r.SetQueryTimeout(DefaultQueryTimeout)
	close(w.gate)
	for i := 0; i < 1000; i++ {
		q := queries[i%len(queries)]
		want, err := mono.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.RunQuery(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d %+v:\n router: %v\n   mono: %v", i, q, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("held mutation: %v", err)
	}
}

// TestAppendListKeepsPrefix: AppendList appends what ListColl lists
// after whatever dst holds, on the monolith and on routers of 1 and 4
// shards (whose spine listings merge every shard's), and on error hands
// dst back unchanged.
func TestAppendListKeepsPrefix(t *testing.T) {
	mono := mcat.New("admin", "local")
	cats := map[string]Catalog{"monolith": mono, "1 shard": newTestRouter(t, 1), "4 shards": newTestRouter(t, 4)}
	for _, c := range cats {
		c.SetClock(func() time.Time { return time.Unix(1e9, 0) })
		seedGrid(t, c)
		for _, o := range []types.DataObject{{Collection: "/", Name: "top.dat"}, {Collection: "/home", Name: "a.dat"}, {Collection: "/home", Name: "b.dat"}} {
			o.Owner = "admin"
			if _, err := c.RegisterObject(&o); err != nil {
				t.Fatal(err)
			}
		}
	}
	keep := types.Stat{Path: "/kept", Owner: "x"}
	for name, c := range cats {
		for _, path := range []string{"/", "/home", "/home/alice", "/home/alice/deep", "/projects", "/projects/p1"} {
			want, err := mono.ListColl(path)
			if err != nil || len(want) == 0 {
				t.Fatalf("monolith ListColl(%s) = %v, %v", path, want, err)
			}
			if got, err := c.ListColl(path); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ListColl(%s) = %+v, %v; want %+v", name, path, got, err, want)
			}
			got, err := c.AppendList([]types.Stat{keep}, path)
			if err != nil || len(got) != 1+len(want) || got[0] != keep || !reflect.DeepEqual(got[1:], want) {
				t.Errorf("%s: AppendList([kept], %s) = %+v, %v; want the prefix, then %+v", name, path, got, err, want)
			}
		}
		dst := make([]types.Stat, 1, 8)
		dst[0] = keep
		got, err := c.AppendList(dst, "/nowhere")
		if !errors.Is(err, types.ErrNotFound) || len(got) != 1 || &got[0] != &dst[0] || got[0] != keep || dst[:2][1] != (types.Stat{}) {
			t.Errorf("%s: AppendList onto a missing path = %+v, %v; want dst unchanged and ErrNotFound", name, got, err)
		}
	}
}
