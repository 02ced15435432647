package server

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

// TestRoundTripAllocBudget holds what one small request costs in heap
// objects, client and server together, over loopback: a Stat, a 5-byte
// Get and a 5-byte Put of a new object on memfs and on posixfs, and what
// a query's cost may grow by with its hits. The budgets are absolute and
// measured. posixfs's read 7 and 26 once it reached a replica file by
// its descriptor (10 and 36 over *os.File). memfs's read 6, 7 and 29
// once a put made each of its objects below the server once (the
// catalog keeping the put's row, the fan-out holding its destinations
// and checksum) and a get's handle lived in its slot; before that they
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
	vault, err := posixfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The first put into each of the vault's 512 bucket directories makes
	// it (replica.PhysPathFor); they are made up front, so that is not
	// counted.
	for b := 0; b < 512; b++ {
		if err := vault.Mkdir(fmt.Sprintf("/vault/%03d", b)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New(), "p1": vault}, nil, "")
	cl := dialT(t, addr)
	for _, c := range []struct{ path, resource string }{{"/home/x", "d1"}, {"/home/xp", "p1"}} {
		if _, err := cl.Put(c.path, []byte("hello"), client.PutOpts{Resource: c.resource}); err != nil {
			t.Fatal(err)
		}
	}
	stat := func() {
		if _, err := cl.Stat("/home/x"); err != nil {
			t.Fatal(err)
		}
	}
	getFrom := func(path string) func() {
		return func() {
			if data, err := cl.Get(path); err != nil || string(data) != "hello" {
				t.Fatalf("get = %q, %v", data, err)
			}
		}
	}
	get, getPosix := getFrom("/home/x"), getFrom("/home/xp")
	// A put ingests a new object each time; the paths are made up front,
	// so the test's own formatting is not counted.
	const puts = 2000 + 200 + 1
	putTo := func(resource, prefix string) func() {
		paths := make([]string, puts)
		for i := range paths {
			paths[i] = fmt.Sprintf("/home/%s%04d", prefix, i)
		}
		next := 0
		return func() {
			if _, err := cl.Put(paths[next], []byte("hello"), client.PutOpts{Resource: resource}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	put, putPosix := putTo("d1", "p"), putTo("p1", "r")
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
		getPosix()
		putPosix()
		query(64)()
	}
	type row struct {
		name   string
		op     func()
		budget float64
	}
	rows := []row{{"stat", stat, 6}, {"get", get, 7}, {"put", put, 29}}
	// Elsewhere durable reaches a file through *os.File, which costs more.
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") {
		rows = append(rows, row{"get posixfs", getPosix, 7}, row{"put posixfs", putPosix, 26})
	}
	for _, c := range rows {
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
