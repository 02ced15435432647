package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// skipAllocFence stands an allocation fence down where the counts are
// not the request path's own: under the race detector, with the
// catalog's row canary, whose fingerprints allocate, and with the frame
// canary, under which lent objects are dropped rather than recycled
// (lend.Canary).
func skipAllocFence(t *testing.T) {
	t.Helper()
	if raceEnabled || rowCanary || lend.Canary {
		t.Skip("allocation counts are not meaningful under the race detector or a canary")
	}
}

// TestRoundTripAllocBudget holds what one small request costs in heap
// objects, client and server together, over loopback: a Stat, a 5-byte
// Get and a 5-byte Put of a new object on memfs and on posixfs, a
// triplet, an annotation, a delete, a 4-hit query and a 200-entry
// listing, what a query's cost may grow by with its hits, and what a
// listing's costs in bytes beside the client's own decode of it. The
// budgets are absolute and measured. The query's read 8 and the
// listing's 3 once the server built both in its connection slot, where
// it had made a fresh answer or []types.Stat per request and dropped it
// once encoded. They read 2, 2, 19, 3, 1, 1 and 11 (posixfs's get and put 2
// and 16) once a get's storage read handles were lent from their pools
// and its receive buffer lived in its pooled xfer; 2, 5, 19, 3, 1, 1
// and 11 (posixfs 5 and 16) once a call made only what it keeps: typed
// bodies encoded once per call and replies decoded and sent by pointer,
// a client call's xfer pooled, a catalog entry built in its pooled line,
// a put's path made once and its fan-out pooled with its digest; before that
// they read 6, 7, 29, 7, 5, 4 and 15 (posixfs 7 and 26). posixfs's get
// and put read 7 and 26 once it reached a replica file by its
// descriptor (10 and 36 over *os.File). memfs's stat, get and put read
// 6, 7 and 29 once a put made each of its objects below the server once
// (the catalog keeping the put's row, the fan-out holding its
// destinations and checksum) and a get's handle lived in its slot;
// before that they read 6, 8 and 41 (11, 13 and 47 before a request's
// session, dispatch goroutine and trace-ring record were its connection
// slot's, reused, and a client call's result lived in its pooled
// waiter; 16, 18 and 52 before trace and span IDs were integers until
// printed and a frame was read into a pooled buffer, 19 and 19 before
// the catalog handed out its stored rows uncopied and a request's
// header and args strings each came from one copy, 22 and 25 before a
// Get looked its object up once, and 32 and 38 before the per-RPC
// envelope came to one allocation per request). One more object per
// request on the path every RPC takes fails here by name.
func TestRoundTripAllocBudget(t *testing.T) {
	skipAllocFence(t)
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
	// A triplet or an annotation is added to one object, each triplet with
	// a value of its own; a delete removes an object put up front. The
	// values and paths are made up front, so their formatting is not
	// counted.
	const writes = 2000 + 1
	vals, gone := make([]string, writes+200), make([]string, writes+200)
	for i := range vals {
		vals[i], gone[i] = fmt.Sprint("v", i), fmt.Sprintf("/home/gone%04d", i)
		if _, err := cl.Put(gone[i], []byte("x"), client.PutOpts{Resource: "d1"}); err != nil {
			t.Fatal(err)
		}
	}
	nextMeta, nextGone := 0, 0
	addMeta := func() {
		if err := cl.AddMeta("/home/x", types.MetaUser, types.AVU{Name: "k", Value: vals[nextMeta]}); err != nil {
			t.Fatal(err)
		}
		nextMeta++
	}
	annotate := func() {
		if err := cl.Annotate("/home/x", types.Annotation{Text: "seen"}); err != nil {
			t.Fatal(err)
		}
	}
	del := func() {
		if err := cl.Delete(gone[nextGone]); err != nil {
			t.Fatal(err)
		}
		nextGone++
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
	// A listing of 200 entries: the server builds it in its connection
	// slot, and the client decodes it into the slice and the one string
	// slab it returns.
	if err := cl.Mkdir("/home/ls"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := cl.Put(fmt.Sprintf("/home/ls/o%03d", i), []byte("l"), client.PutOpts{Resource: "d1"}); err != nil {
			t.Fatal(err)
		}
	}
	ls := func() {
		if st, err := cl.List("/home/ls"); err != nil || len(st) != 200 {
			t.Fatalf("ls = %d entries, %v", len(st), err)
		}
	}
	// Warm-up: the pools, the registry's op and phase rows, the usage row.
	for i := 0; i < 200; i++ {
		ls()
		stat()
		get()
		put()
		getPosix()
		putPosix()
		query(64)()
		addMeta()
		annotate()
		del()
	}
	type row struct {
		name   string
		op     func()
		budget float64
	}
	rows := []row{{"stat", stat, 2}, {"get", get, 2}, {"put", put, 19},
		{"addmeta", addMeta, 3}, {"annotate", annotate, 1}, {"delete", del, 1}, {"query(4)", query(4), 8}, {"ls(200)", ls, 3}}
	// Elsewhere durable reaches a file through *os.File, which costs more.
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") {
		rows = append(rows, row{"get posixfs", getPosix, 2}, row{"put posixfs", putPosix, 16})
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
	// In bytes, a listing's round trip is about the client's own decode
	// of the body: a []types.Stat made on the server as well would double
	// it.
	listing, err := cl.List("/home/ls")
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.AppendBody(nil, &listing)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var st []types.Stat
		if err := wire.DecodeBody(body, &st); err != nil || len(st) != 200 {
			t.Fatalf("decode = %d entries, %v", len(st), err)
		}
	}
	const maxOverDecode = 1.25
	if rt, dec := bytesPerRun(500, ls), bytesPerRun(500, decode); rt > maxOverDecode*dec {
		t.Errorf("ls(200) round trip: %.0f B, %.2fx the client's %.0f B decode; at most %.2fx", rt, rt/dec, dec, maxOverDecode)
	} else {
		t.Logf("ls(200) round trip: %.0f B, %.2fx the client's %.0f B decode (at most %.2fx)", rt, rt/dec, dec, maxOverDecode)
	}
}

// TestRoundTripSurvivesGC holds that a GC costs a 1 MiB put and get on
// posixfs no heap objects: the pools they lend from (chunks, frames,
// fan-outs with their digest state, storage handles, call state) are
// lend.Pools, which keep their idle objects across a GC, so a round trip
// right after one allocates no more than a warm round trip does. With
// sync.Pools each GC dropped their per-P caches and the next round trip
// made them again.
func TestRoundTripSurvivesGC(t *testing.T) {
	skipAllocFence(t)
	vault, err := posixfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 512; b++ {
		if err := vault.Mkdir(fmt.Sprintf("/vault/%03d", b)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, addr := bootOne(t, map[string]stg.Driver{"p1": vault}, nil, "")
	cl := dialT(t, addr)
	data := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	const rounds = 40
	paths := make([]string, 3*rounds)
	for i := range paths {
		paths[i] = fmt.Sprintf("/home/gc%04d", i)
	}
	next := 0
	round := func() {
		if _, err := cl.Put(paths[next], data, client.PutOpts{Resource: "p1"}); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.Get(paths[next]); err != nil || len(got) != len(data) {
			t.Fatalf("get = %d bytes, %v", len(got), err)
		}
		next++
	}
	mallocs := func(gc bool) float64 {
		var total uint64
		for i := 0; i < rounds; i++ {
			if gc {
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			round()
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / rounds
	}
	mallocs(false) // warm-up
	warm, afterGC := mallocs(false), mallocs(true)
	if afterGC > warm {
		t.Errorf("1 MiB put+get after a GC: %.2f heap objects, warm %.2f", afterGC, warm)
	} else {
		t.Logf("1 MiB put+get after a GC: %.2f heap objects, warm %.2f", afterGC, warm)
	}
}

// bytesPerRun is the heap bytes the process allocates per call of fn,
// averaged over runs calls, after one call to warm it.
func bytesPerRun(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFederatedReadAllocBudget holds what a read through a peer costs in
// heap objects, both servers and the client together, over loopback: a
// 16 KiB get srb1 proxies from srb2, and a 16-path multiget of which srb2
// owns every other item. The budgets are absolute and measured: they
// read 4 and 13 once a read's storage handles were lent, the client's
// receive buffer was its xfer's own, a multiget's bookkeeping (its
// owners' spools and request frames among it) was one pooled value, a
// streamed reply's header was encoded in a pooled frame and a proxied
// get's relay lived in its connection slot; before that they read 11
// and 73. The multiget's fell to 10 once the client decoded its manifest
// straight into the results it returns, with no decode closure, reply
// or item slice of its own. What is left is what the caller keeps (the
// data, the results) and the strings decoded from each hop's args and
// manifests. One more object on the federated read path fails here by
// name.
func TestFederatedReadAllocBudget(t *testing.T) {
	skipAllocFence(t)
	z := newZone(t, Proxy)
	data := bytes.Repeat([]byte("federated"), 16<<10/9+1)[:16<<10]
	if _, err := z.b2.Ingest("alice", core.IngestOpts{Path: "/home/far", Data: data, Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 16)
	for i := range paths {
		b, res := z.b1, "disk1"
		if i%2 == 1 {
			b, res = z.b2, "disk2"
		}
		paths[i] = fmt.Sprintf("/home/batch%02d", i)
		if _, err := b.Ingest("alice", core.IngestOpts{Path: paths[i], Data: []byte(paths[i]), Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	cl := z.client(z.addr1, "alice", "alicepw")
	get := func() {
		if got, err := cl.Get("/home/far"); err != nil || len(got) != len(data) {
			t.Fatalf("proxied get = %d bytes, %v", len(got), err)
		}
	}
	multiGet := func() {
		res, err := cl.MultiGet(paths)
		if err != nil || len(res) != len(paths) {
			t.Fatalf("multiget = %d results, %v", len(res), err)
		}
		for i, r := range res {
			if r.Err != nil || string(r.Data) != paths[i] {
				t.Fatalf("multiget item %d = %q, %v", i, r.Data, r.Err)
			}
		}
	}
	// Warm-up: the pools on both servers, the peer conn, the registry's
	// rows.
	for i := 0; i < 200; i++ {
		get()
		multiGet()
	}
	for _, c := range []struct {
		name   string
		op     func()
		budget float64
	}{{"proxied get", get, 4}, {"multiget(8 local, 8 remote)", multiGet, 10}} {
		if got := testing.AllocsPerRun(1000, c.op); got > c.budget {
			t.Errorf("%s: %.0f heap objects, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.0f heap objects (budget %.0f)", c.name, got, c.budget)
		}
	}
}
