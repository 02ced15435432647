package shard

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

func TestMergeHits(t *testing.T) {
	hits := func(paths ...string) []mcat.Hit {
		var out []mcat.Hit
		for _, p := range paths {
			out = append(out, mcat.Hit{Path: p})
		}
		return out
	}
	fromShard := func(i int, p string) mcat.Hit {
		return mcat.Hit{Path: p, Values: [][]string{{string(rune('0' + i))}}}
	}
	cases := []struct {
		name  string
		lists [][]mcat.Hit
		limit int
		want  []mcat.Hit
	}{
		{"nothing answered", [][]mcat.Hit{nil, nil}, 0, nil},
		{"interleaved", [][]mcat.Hit{hits("/a", "/d"), nil, hits("/b", "/c", "/e")}, 0, hits("/a", "/b", "/c", "/d", "/e")},
		{"cut at limit", [][]mcat.Hit{hits("/a", "/d"), hits("/b", "/c")}, 3, hits("/a", "/b", "/c")},
		{"limit above total", [][]mcat.Hit{hits("/b"), hits("/a")}, 10, hits("/a", "/b")},
		// An object mid-migration is on two shards: one hit, the lower shard's.
		{"duplicate path", [][]mcat.Hit{
			{fromShard(0, "/a"), fromShard(0, "/m")},
			{fromShard(1, "/m"), fromShard(1, "/z")},
		}, 0, []mcat.Hit{fromShard(0, "/a"), fromShard(0, "/m"), fromShard(1, "/z")}},
		{"duplicate does not use up the limit", [][]mcat.Hit{hits("/a", "/b"), hits("/a", "/c")}, 3, hits("/a", "/b", "/c")},
	}
	// A merge into an answer that held more hits, with more values, keeps
	// none of them: only the buffers.
	held := [][]mcat.Hit{{fromShard(0, "/x1"), fromShard(0, "/x2"), fromShard(0, "/x3"), fromShard(0, "/x4")}, {fromShard(1, "/x0")}}
	for _, c := range cases {
		var fresh, warm mcat.Answer
		mergeHits(&fresh, slices.Clone(c.lists), c.limit)
		if !reflect.DeepEqual(fresh.Hits, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, fresh.Hits, c.want)
		}
		mergeHits(&warm, slices.Clone(held), 0)
		mergeHits(&warm, slices.Clone(c.lists), c.limit)
		if len(warm.Hits) != len(c.want) || len(c.want) > 0 && !reflect.DeepEqual(warm.Hits, c.want) {
			t.Errorf("%s into a used answer: got %v, want %v", c.name, warm.Hits, c.want)
		}
	}
}

// scatterRouter is a 4-shard router holding 200 objects spread over
// sixteen top-level collections, so that every shard holds some of the
// ten with the highest mag: all have band=J, and mag runs 0..199.
func scatterRouter(t *testing.T) *Router {
	t.Helper()
	r := newTestRouter(t, 4)
	for i := 0; i < 200; i++ {
		coll := fmt.Sprintf("/c%d/p", i%16)
		if i < 16 {
			if err := r.MkCollAll(coll, "admin"); err != nil {
				t.Fatal(err)
			}
		}
		o := &types.DataObject{Collection: coll, Name: fmt.Sprintf("o%03d", i), Owner: "alice"}
		if _, err := r.RegisterObject(o); err != nil {
			t.Fatal(err)
		}
		for _, avu := range []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: fmt.Sprint(i)}} {
			if err := r.AddMeta(o.Path(), types.MetaUser, avu); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

func magQuery(minMag int) mcat.Query {
	return mcat.Query{
		Scope:  "/",
		Conds:  []mcat.Condition{{Attr: "band", Op: "=", Value: "J"}, {Attr: "mag", Op: ">=", Value: fmt.Sprint(minMag)}},
		Select: []string{"mag", "band"},
	}
}

// TestScatterQueryAllocs holds a warm root-scope query to the one answer
// that leaves the router: the shards answer on parked workers into the
// scatter's pooled buffers, and the merge makes the hits, their columns
// and their values, whether 10 hits or 100. (A goroutine per shard and
// three slabs per shard answer cost 17 objects.)
func TestScatterQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := scatterRouter(t)
	allocs := func(minMag, want int) float64 {
		q := magQuery(minMag)
		return testing.AllocsPerRun(100, func() {
			hits, partial, err := r.QueryPartial(q)
			if err != nil || len(partial) > 0 || len(hits) != want {
				t.Fatalf("mag >= %d: %d hits, partial %v, err %v; want %d", minMag, len(hits), partial, err, want)
			}
			if h := hits[len(hits)-1]; len(h.Values) != 2 || len(h.Values[0]) != 1 || h.Values[1][0] != "J" {
				t.Fatalf("mag >= %d: last hit %+v, want one value in each of two columns", minMag, h)
			}
		})
	}
	small, large := allocs(190, 10), allocs(100, 100)
	if small > 3 || large > 3 {
		t.Errorf("a warm 4-shard 2-column query allocates %v objects for 10 hits and %v for 100; want at most 3 (hits, columns, values)", small, large)
	}
	// Into an answer with room, as a server's connection slot keeps one,
	// the merge makes nothing.
	var a mcat.Answer
	q := magQuery(100)
	if _, err := r.QueryInto(&a, q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if partial, err := r.QueryInto(&a, q); err != nil || len(partial) > 0 || len(a.Hits) != 100 {
			t.Fatalf("QueryInto: %d hits, partial %v, err %v", len(a.Hits), partial, err)
		}
	}); n != 0 {
		t.Errorf("a warm 4-shard query into a warm answer allocates %v objects, want 0", n)
	}
}

// heldShard wedges the home shard of /c0/held behind a journal write
// that holds its write lock until release is called.
func heldShard(t *testing.T, r *Router) (victim int, release func()) {
	t.Helper()
	victim = r.homeIdx("/c0/held")
	w := &gateWriter{started: make(chan struct{}), gate: make(chan struct{})}
	r.AttachJournal(victim, durable.NewJournal(w))
	done := make(chan error, 1)
	go func() { done <- r.MkColl("/c0/held", "admin") }()
	<-w.started
	return victim, func() {
		close(w.gate)
		if err := <-done; err != nil {
			t.Errorf("held mutation: %v", err)
		}
	}
}

// TestLenderRunsSameShardConcurrently: a query's share for a held shard
// keeps its worker, so each further query's shares get workers of their
// own instead of queueing behind it. Eight concurrent queries all
// return while the shard is still held, each with the held shard, and
// only it, in Partial.
func TestLenderRunsSameShardConcurrently(t *testing.T) {
	r := scatterRouter(t)
	victim, release := heldShard(t, r)
	r.SetQueryTimeout(50 * time.Millisecond)
	held := []string{r.shardName(victim)}

	const queries = 8
	var wg sync.WaitGroup
	partials := make([][]string, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, partials[i], errs[i] = r.QueryPartial(magQuery(190))
		}(i)
	}
	wg.Wait()
	release()
	for i := 0; i < queries; i++ {
		if errs[i] != nil || !reflect.DeepEqual(partials[i], held) {
			t.Errorf("query %d on a held shard: partial %v, err %v; want %v", i, partials[i], errs[i], held)
		}
	}
}

// TestLenderWorkersExitWhenIdle: a parked worker that gets no task for
// the idle period exits, so a quiet process holds no workers.
func TestLenderWorkersExitWhenIdle(t *testing.T) {
	idleOverride.Store(int64(5 * time.Millisecond))
	t.Cleanup(func() { idleOverride.Store(0) })
	r := scatterRouter(t)
	if _, _, err := r.QueryPartial(magQuery(190)); err != nil {
		t.Fatal(err)
	}
	// Workers parked before the override still wait out workerIdle.
	deadline := time.Now().Add(workerIdle + 10*time.Second)
	for workers.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive after the idle period", workers.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
