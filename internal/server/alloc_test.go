package server

import (
	"fmt"
	"strconv"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// TestRoundTripAllocBudget holds what one small request costs in heap
// objects, client and server together, over loopback: a Stat, a 5-byte
// Get, a 5-byte Put of a new object, and what a query's cost may grow by
// with its hits. The budgets are absolute and measured — what this test
// read once a put made each of its objects below the server once (the
// catalog keeping the put's row, the fan-out holding its destinations
// and checksum) and a get's handle lived in its slot; before that it
// read 6, 8 and 41 (11, 13 and 47 before a request's session, dispatch
// goroutine and trace-ring record were its connection slot's, reused,
// and a client call's result lived in its pooled waiter; 16, 18
// and 52 before trace and span IDs were integers until printed and a
// frame was read into a pooled buffer, 19 and 19 before the catalog
// handed out its stored rows uncopied and a request's header and args
// strings each came from one copy, 22 and 25 before a Get looked its
// object up once, and 32 and 38 before the per-RPC envelope came to one
// allocation per request). One more object per request on the path every
// RPC takes fails here by name.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, _, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	cl := dialT(t, addr)
	if _, err := cl.Put("/home/x", []byte("hello"), client.PutOpts{Resource: "d1"}); err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := cl.Stat("/home/x"); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if data, err := cl.Get("/home/x"); err != nil || string(data) != "hello" {
			t.Fatalf("get = %q, %v", data, err)
		}
	}
	// A put ingests a new object each time; the paths are made up front,
	// so the test's own formatting is not counted.
	const puts = 2000 + 200 + 1
	paths := make([]string, puts)
	for i := range paths {
		paths[i] = fmt.Sprintf("/home/p%04d", i)
	}
	next := 0
	put := func() {
		if _, err := cl.Put(paths[next], []byte("hello"), client.PutOpts{Resource: "d1"}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// A query pays per answer, not per hit: its hits' two Select columns
	// come in slabs, so 64 hits cost at most perAnswer objects more than
	// 4 (a map per hit on both sides cost about 8 per hit).
	const perAnswer = 2
	for i := 0; i < 64; i++ {
		meta := []types.AVU{{Name: "grp", Value: "g"}, {Name: "n", Value: strconv.Itoa(i)}}
		if _, err := cl.Put(fmt.Sprintf("/home/q%02d", i), []byte("q"), client.PutOpts{Resource: "d1", Meta: meta}); err != nil {
			t.Fatal(err)
		}
	}
	query := func(hits int) func() {
		q := mcat.Query{
			Scope:  "/home",
			Conds:  []mcat.Condition{{Attr: "grp", Op: "=", Value: "g"}, {Attr: "n", Op: "<", Value: strconv.Itoa(hits)}},
			Select: []string{"n", "grp"},
		}
		return func() {
			got, err := cl.Query(q)
			if err != nil || len(got) != hits || len(got[0].Values) != 2 || got[0].Values[1][0] != "g" {
				t.Fatalf("query for %d hits = %d hits, %v", hits, len(got), err)
			}
		}
	}
	// Warm-up: the pools, the registry's op and phase rows, the usage row.
	for i := 0; i < 200; i++ {
		stat()
		get()
		put()
		query(64)()
	}
	for _, c := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"stat", stat, 6},
		{"get", get, 7},
		{"put", put, 29},
	} {
		if got := testing.AllocsPerRun(2000, c.op); got > c.budget {
			t.Errorf("%s round trip: %.0f heap objects, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s round trip: %.0f heap objects (budget %.0f)", c.name, got, c.budget)
		}
	}
	few, many := testing.AllocsPerRun(500, query(4)), testing.AllocsPerRun(500, query(64))
	if many > few+perAnswer {
		t.Errorf("query round trip: %.0f heap objects for 4 hits, %.0f for 64; at most %d more", few, many, perAnswer)
	} else {
		t.Logf("query round trip: %.0f heap objects for 4 hits, %.0f for 64 (at most %d more)", few, many, perAnswer)
	}
}
