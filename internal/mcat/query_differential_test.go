package mcat_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// The query slice of the router-vs-monolith differential test: one
// seeded random mutation script is applied to a monolithic Catalog and
// to a 4-shard Router, and every seeded random query must return the
// same hits from the reference evaluator (query_oracle_test.go), from
// the Catalog and from the Router.

var (
	diffColls = []string{
		"/", "/z0", "/z1", "/z0/p0", "/z0/p1", "/z1/p0", "/z1/p2",
		"/z0/p0/d0", "/z1/p2/d0", "/z1/p2/d0/e0",
	}
	diffWords  = []string{"Andromeda", "galaxy", "M31", "spiral arm", "50% done", "under_score", "Café", "", "x"}
	diffNums   = []string{"3", "3.0", "7.25", " 12 ", "-1", "1e2", "abc", "10", "9"}
	diffBands  = []string{"J", "H", "K", "j"}
	diffAttrs  = []string{"band", "Band", "BAND", "mag", "Mag", "tag", "dc:title", "DC:Title", "absent", "filemeta"}
	diffSys    = append(mcat.SysAttrs(), "sys:bogus", "SYS:name")
	diffOps    = []string{"=", "<>", ">", ">=", "<", "<=", "like", "not like", "LIKE", "Not Like"}
	diffLikes  = []string{"%", "%a%", "_", "%galaxy", "and%", "%\\_%", "50%%", "%_score", "%a%a%", "j", "/z0/%", "obj-0__.dat", "%É"}
	diffScopes = []string{"/", "", "/z0", "z1/", "/z0/p0", "/z1/p2", "/z1/p2/d0", "/z1/p2/d0/e0", "/nowhere", "/z0/p", "/z0/p0/Obj-000.DAT"}
)

func pick(rng *rand.Rand, from []string) string { return from[rng.Intn(len(from))] }

// populate applies the same seeded script to any catalog.
func populate(t *testing.T, c shard.Catalog, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, p := range diffColls[1:] {
		must(t, c.MkColl(p, "admin"))
	}
	var objs []string
	for i := 0; i < 160; i++ {
		o := &types.DataObject{
			Collection: pick(rng, diffColls),
			Name:       fmt.Sprintf("Obj-%03d.DAT", i),
			Owner:      pick(rng, []string{"alice", "Bob", "admin"}),
			DataType:   pick(rng, []string{"generic", "FITS image", "text"}),
			Kind:       types.ObjectKind(rng.Intn(3)),
			Size:       int64(rng.Intn(5)) * 50,
		}
		if rng.Intn(4) == 0 {
			o.Container = "/z0/p0/cont"
		}
		for r := rng.Intn(4); r > 0; r-- {
			o.Replicas = append(o.Replicas, types.Replica{Number: types.ReplicaNumber(r), Resource: "r1"})
		}
		_, err := c.RegisterObject(o)
		must(t, err)
		p := o.Path()
		objs = append(objs, p)
		must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: pick(rng, diffAttrs[:3]), Value: pick(rng, diffBands)}))
		for n := rng.Intn(3); n > 0; n-- {
			must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: pick(rng, diffAttrs[3:5]), Value: pick(rng, diffNums)}))
		}
		for n := rng.Intn(3); n > 0; n-- {
			must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: "tag", Value: pick(rng, diffWords)}))
		}
		// The type class shares attribute names with the user class, so one
		// path can carry the same (name, value) once in each.
		if rng.Intn(2) == 0 {
			must(t, c.AddMeta(p, types.MetaType, types.AVU{Name: pick(rng, []string{"dc:title", "tag", "Tag"}), Value: pick(rng, diffWords)}))
		}
		if rng.Intn(5) == 0 { // file-based metadata is view-only: never queryable
			must(t, c.AddMeta(p, types.MetaFile, types.AVU{Name: "filemeta", Value: "J"}))
		}
		if rng.Intn(5) == 0 { // a user attribute cannot pose as system metadata
			must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: "sys:bogus", Value: "1"}))
		}
		for n := rng.Intn(3); n > 0; n-- {
			must(t, c.AddAnnotation(p, types.Annotation{Author: "alice", Text: pick(rng, diffWords)}))
		}
	}
	// Collections carry metadata too, so the index holds paths that are
	// not objects and must never become hits.
	for _, p := range diffColls[3:] {
		must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: "band", Value: pick(rng, diffBands)}))
		must(t, c.AddMeta(p, types.MetaUser, types.AVU{Name: "onlycolls", Value: "1"}))
	}
	// Metadata is edited as well as added: an entry that goes must not
	// take a (name, value) its path still carries off the index. Rare
	// values make a lost posting visible — the evaluator answers nil for a
	// value the index lacks where the reference scans.
	for n, i := range rng.Perm(len(objs))[:60] {
		rare := fmt.Sprintf("rare-%d", n%20)
		must(t, c.AddMeta(objs[i], types.MetaUser, types.AVU{Name: "tag", Value: rare}))
		must(t, c.AddMeta(objs[i], pick2(rng, types.MetaUser, types.MetaType), types.AVU{Name: "TAG", Value: rare}))
		var err error
		switch rng.Intn(3) {
		case 0:
			_, err = c.DeleteMeta(objs[i], types.MetaUser, "tag", rare)
		case 1:
			_, err = c.DeleteMeta(objs[i], types.MetaType, "tag", "")
		case 2:
			_, err = c.UpdateMeta(objs[i], types.MetaType, "tag", "", types.AVU{Name: "tag", Value: pick(rng, diffWords)})
		}
		must(t, err)
	}
	for _, i := range rng.Perm(len(objs))[:10] {
		must(t, c.DeleteObject(objs[i]))
	}
}

func pick2(rng *rand.Rand, a, b types.MetaClass) types.MetaClass {
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}

func randomQuery(rng *rand.Rand) mcat.Query {
	q := mcat.Query{Scope: pick(rng, diffScopes)}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		var cn mcat.Condition
		switch rng.Intn(10) {
		case 0, 1, 2:
			cn.Attr = pick(rng, diffSys)
			cn.Value = pick(rng, []string{"Obj-003.DAT", "/z0/p0", "alice", "bob", "100", "0", "2", "1", "file", "generic", "fits%", "/z0/p0/cont", "%", "obj-0%"})
		case 3:
			cn.Attr = pick(rng, []string{"annotation", "Annotation"})
			cn.Value = pick(rng, append(diffLikes, diffWords...))
		default:
			cn.Attr = pick(rng, append(diffAttrs, "onlycolls"))
			cn.Value = pick(rng, [][]string{diffBands, diffNums, diffWords, diffLikes, {"1", "nosuchvalue", "rare-3", "rare-7", "rare-11"}}[rng.Intn(5)])
		}
		cn.Op = pick(rng, diffOps)
		if rng.Intn(3) == 0 {
			cn.Op = "=" // keep the index path well exercised
		}
		q.Conds = append(q.Conds, cn)
	}
	if rng.Intn(8) == 0 {
		q.Conds = nil
	}
	for n := rng.Intn(4); n > 0; n-- {
		q.Select = append(q.Select, pick(rng, append(append([]string{"annotation"}, diffAttrs...), diffSys...)))
	}
	q.Limit = []int{0, 0, 1, 3, 7, 1000}[rng.Intn(6)]
	return q
}

func TestQueryDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mono := mcat.New("admin", "local")
		router := shard.NewRouter(4, "admin", "local")
		router.EnableMemoryJournals()
		populate(t, mono, seed)
		populate(t, router, seed)

		rng := rand.New(rand.NewSource(seed * 7919))
		nonEmpty, cut := 0, 0
		for i := 0; i < 500; i++ {
			q := randomQuery(rng)
			want, err := mono.OracleRunQuery(q)
			if err != nil {
				t.Fatalf("seed %d: oracle %+v: %v", seed, q, err)
			}
			got, err := mono.RunQuery(q)
			if err != nil {
				t.Fatalf("seed %d: catalog %+v: %v", seed, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %+v\ncatalog: %v\noracle:  %v", seed, q, got, want)
			}
			sharded, err := router.RunQuery(q)
			if err != nil {
				t.Fatalf("seed %d: router %+v: %v", seed, q, err)
			}
			if !reflect.DeepEqual(sharded, want) {
				t.Fatalf("seed %d: %+v\nrouter: %v\noracle: %v", seed, q, sharded, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
			if q.Limit > 0 && len(want) == q.Limit {
				cut++
			}
		}
		if nonEmpty < 100 || cut < 20 {
			t.Errorf("seed %d: only %d of 500 queries had hits and %d were cut by Limit; the generator has drifted", seed, nonEmpty, cut)
		}
	}
}

// TestQueryDifferentialConcurrent runs the differential's queries from
// four goroutines on one router at once: the shards' shares of
// concurrent scatters run on the same parked workers and answer into
// their own scatters' buffers, and every answer must still be the
// oracle's.
func TestQueryDifferentialConcurrent(t *testing.T) {
	const goroutines, perGoroutine = 4, 150
	mono := mcat.New("admin", "local")
	router := shard.NewRouter(4, "admin", "local")
	router.EnableMemoryJournals()
	populate(t, mono, 1)
	populate(t, router, 1)

	type probe struct {
		q    mcat.Query
		want []mcat.Hit
	}
	probes := make([][]probe, goroutines)
	for g := range probes {
		rng := rand.New(rand.NewSource(int64(g+1) * 104729))
		for i := 0; i < perGoroutine; i++ {
			q := randomQuery(rng)
			want, err := mono.OracleRunQuery(q)
			if err != nil {
				t.Fatalf("oracle %+v: %v", q, err)
			}
			probes[g] = append(probes[g], probe{q, want})
		}
	}
	var wg sync.WaitGroup
	for g := range probes {
		wg.Add(1)
		go func(ps []probe) {
			defer wg.Done()
			for _, p := range ps {
				got, err := router.RunQuery(p.q)
				if err != nil {
					t.Errorf("router %+v: %v", p.q, err)
					return
				}
				if !reflect.DeepEqual(got, p.want) {
					t.Errorf("%+v\nrouter: %v\noracle: %v", p.q, got, p.want)
					return
				}
			}
		}(probes[g])
	}
	wg.Wait()
}

func TestQueryRejectsUnknownOperator(t *testing.T) {
	mono := mcat.New("admin", "local")
	for _, op := range []string{"", "==", "!=", "likes", "not  like", "notlike"} {
		q := mcat.Query{Conds: []mcat.Condition{{Attr: "a", Op: op, Value: "1"}}}
		_, err := mono.RunQuery(q)
		_, oerr := mono.OracleRunQuery(q)
		if err == nil || oerr == nil {
			t.Errorf("op %q: catalog err %v, oracle err %v; want both to refuse", op, err, oerr)
		}
	}
}
