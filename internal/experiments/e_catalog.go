package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/metadata"
	"gosrb/internal/sqlengine"
	"gosrb/internal/tlang"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

// buildCatalog populates a catalog with n sky-survey objects plus their
// metadata and returns it with the spec list.
func buildCatalog(n int) (*mcat.Catalog, []workload.Spec, time.Duration) {
	cat := mcat.New("admin", "sdsc")
	gen := workload.NewGen(7)
	specs := gen.SkySurvey("/lib", n, 16)
	cat.MkCollAll("/lib", "admin")
	for i := 0; i < 16 && i < n; i++ {
		cat.MkCollAll(fmt.Sprintf("/lib/plate%03d", i), "admin")
	}
	start := time.Now()
	for _, s := range specs {
		if _, err := cat.RegisterObject(&types.DataObject{
			Name: s.Name, Collection: s.Collection, Owner: "admin",
			DataType: s.DataType, Size: int64(s.Size),
		}); err != nil {
			panic(err)
		}
		for _, m := range s.Meta {
			if err := cat.AddMeta(s.Path(), types.MetaUser, m); err != nil {
				panic(err)
			}
		}
	}
	return cat, specs, time.Since(start)
}

// E2CatalogScaling measures how catalog ingest and query latency evolve
// with collection size — the paper's requirement to be "scalable to
// handle millions of datasets" (§2). Equality queries ride the inverted
// index and should stay flat; LIKE queries scan one attribute.
func E2CatalogScaling(scale int) Table {
	t := Table{
		ID:      "E2",
		Title:   "catalog scaling: ingest rate and query latency vs size",
		Claim:   `"any solution for the data grid should be scalable to handle millions of datasets" (§2)`,
		Columns: []string{"objects", "ingest_per_s", "eq_query_ms", "like_query_ms", "eq_hits"},
		Notes:   "equality uses the attribute index; like scans the attribute's values",
	}
	sizes := []int{1000, 10000, 100000}
	if scale > 1 {
		sizes = append(sizes, 100000*scale)
	}
	for _, n := range sizes {
		cat, _, buildTime := buildCatalog(n)
		rate := float64(n) / buildTime.Seconds()

		eqQ := mcat.Query{Scope: "/lib", Conds: []mcat.Condition{{Attr: "survey", Op: "=", Value: "2mass"}, {Attr: "band", Op: "=", Value: "J"}}}
		start := time.Now()
		hits, err := cat.RunQuery(eqQ)
		if err != nil {
			panic(err)
		}
		eq := time.Since(start)

		likeQ := mcat.Query{Scope: "/lib", Conds: []mcat.Condition{{Attr: "mag", Op: ">", Value: "12"}}}
		start = time.Now()
		if _, err := cat.RunQuery(likeQ); err != nil {
			panic(err)
		}
		rangeScan := time.Since(start)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", rate),
			ms(eq), ms(rangeScan),
			fmt.Sprintf("%d", len(hits)),
		})
	}
	return t
}

// E8MetadataQuery sweeps the MySRB query interface: conjunctive
// condition counts and every comparison operator the paper lists
// ("=,>,<,<=,>=,<>,like, not like", §6).
func E8MetadataQuery(scale int) Table {
	t := Table{
		ID:      "E8",
		Title:   "conjunctive metadata queries: operators and condition counts",
		Claim:   `"each condition has four parts ... =,>,<,<=,>=,<>,like, not like ... the query is taken as a conjunctive query" (§6)`,
		Columns: []string{"query", "hits", "latency_ms"},
	}
	n := 50000
	if scale > 1 {
		n *= scale
	}
	cat, _, _ := buildCatalog(n)
	t.Notes = fmt.Sprintf("catalog of %d objects", n)

	run := func(desc string, conds ...mcat.Condition) {
		start := time.Now()
		hits, err := cat.RunQuery(mcat.Query{Scope: "/lib", Conds: conds})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{desc, fmt.Sprintf("%d", len(hits)), ms(time.Since(start))})
	}
	run("survey = 2mass", mcat.Condition{Attr: "survey", Op: "=", Value: "2mass"})
	run("survey = 2mass AND band = J",
		mcat.Condition{Attr: "survey", Op: "=", Value: "2mass"},
		mcat.Condition{Attr: "band", Op: "=", Value: "J"})
	run("survey = 2mass AND band = J AND mag > 10",
		mcat.Condition{Attr: "survey", Op: "=", Value: "2mass"},
		mcat.Condition{Attr: "band", Op: "=", Value: "J"},
		mcat.Condition{Attr: "mag", Op: ">", Value: "10"})
	run("4 conditions",
		mcat.Condition{Attr: "survey", Op: "=", Value: "2mass"},
		mcat.Condition{Attr: "band", Op: "=", Value: "J"},
		mcat.Condition{Attr: "mag", Op: ">", Value: "6"},
		mcat.Condition{Attr: "mag", Op: "<=", Value: "12"})
	run("mag >= 14", mcat.Condition{Attr: "mag", Op: ">=", Value: "14"})
	run("mag <> 7.00", mcat.Condition{Attr: "mag", Op: "<>", Value: "7.00"})
	run("sys:name like m%.fits", mcat.Condition{Attr: "sys:name", Op: "like", Value: "img%.fits"})
	run("telescope not like %palomar%", mcat.Condition{Attr: "telescope", Op: "not like", Value: "%palomar%"})
	return t
}

// E9TLang measures the T-language machinery: rule-based extraction
// throughput over FITS-like headers and the three built-in result
// templates (HTMLREL, HTMLNEST, XMLREL; §5).
func E9TLang(scale int) Table {
	t := Table{
		ID:      "E9",
		Title:   "T-language: extraction throughput and template rendering",
		Claim:   `"Metadata extraction methods can be written in T-language ... three built-in templates" (§5)`,
		Columns: []string{"task", "items", "total_ms", "per_item_us"},
	}
	gen := workload.NewGen(9)
	nHdr := 500 * scale
	specs := gen.SkySurvey("/lib", nHdr, 4)
	headers := make([][]byte, nHdr)
	for i, s := range specs {
		headers[i] = gen.FITSHeader(s)
	}
	reg := metadata.NewRegistry()
	start := time.Now()
	triplets := 0
	for _, h := range headers {
		avus, err := reg.Extract("fits image", "fits-cards", bytes.NewReader(h))
		if err != nil {
			panic(err)
		}
		triplets += len(avus)
	}
	exTime := time.Since(start)
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("extract fits headers (%d triplets)", triplets),
		fmt.Sprintf("%d", nHdr), ms(exTime), us(exTime / time.Duration(nHdr)),
	})

	// Template rendering over a 1000-row result.
	res := &sqlengine.Result{Columns: []string{"survey", "name", "mag"}}
	for i := 0; i < 1000*scale; i++ {
		res.Rows = append(res.Rows, sqlengine.Row{
			sqlengine.String(fmt.Sprintf("survey%d", i%4)),
			sqlengine.String(fmt.Sprintf("obj%06d", i)),
			sqlengine.Number(float64(i % 17)),
		})
	}
	for _, tpl := range []string{"HTMLREL", "HTMLNEST", "XMLREL"} {
		var sb strings.Builder
		start = time.Now()
		if err := tlang.RenderBuiltin(tpl, &sb, res); err != nil {
			panic(err)
		}
		dur := time.Since(start)
		t.Rows = append(t.Rows, []string{
			"render " + tpl, fmt.Sprintf("%d", len(res.Rows)), ms(dur), us(dur / time.Duration(len(res.Rows))),
		})
	}
	return t
}

// The E12 corpus: deep collections /proj/cNN, each seeded with objects
// carrying an "experiment" attribute whose values are spread across
// every collection.
const (
	shardColls       = 64 // deep collections /proj/cNN
	shardObjsPerColl = 25 // seeded objects per collection
	shardWorkers     = 4  // concurrent clients
)

// newShardRig builds an n-shard catalog seeded with the E12 corpus.
func newShardRig(n int) *shard.Router {
	r := shard.NewRouter(n, "admin", "local")
	r.EnableMemoryJournals()
	if err := r.MkColl("/proj", "admin"); err != nil {
		panic(err)
	}
	for c := 0; c < shardColls; c++ {
		coll := fmt.Sprintf("/proj/c%02d", c)
		if err := r.MkColl(coll, "admin"); err != nil {
			panic(err)
		}
		for o := 0; o < shardObjsPerColl; o++ {
			name := fmt.Sprintf("f%03d.dat", o)
			if _, err := r.RegisterObject(&types.DataObject{
				Collection: coll, Name: name,
				Owner: "admin", Size: int64(o), DataType: "generic",
			}); err != nil {
				panic(err)
			}
			if err := r.AddMeta(coll+"/"+name, types.MetaUser,
				types.AVU{Name: "experiment", Value: fmt.Sprintf("e%d", o%8)}); err != nil {
				panic(err)
			}
		}
	}
	return r
}

// shardRound drives one measured round of nOps mixed ops from
// shardWorkers concurrent clients: i%10 < 3 registers an object (the
// ~30% write mix), the rest run a deep-scoped non-equality query. Every
// op is deterministic in (round, worker, index): registers mint
// round-unique paths so rounds never collide, queries scope to one deep
// collection — the shape the router sends to a single home shard.
func shardRound(r *shard.Router, round, nOps int) time.Duration {
	perWorker := nOps / shardWorkers
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < shardWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				coll := fmt.Sprintf("/proj/c%02d", (w*perWorker+i)%shardColls)
				if i%10 < 3 {
					name := fmt.Sprintf("r%03d-w%d-i%03d.dat", round, w, i)
					if _, err := r.RegisterObject(&types.DataObject{
						Collection: coll, Name: name,
						Owner: "admin", Size: int64(i), DataType: "generic",
					}); err != nil {
						panic(err)
					}
					if err := r.AddMeta(coll+"/"+name, types.MetaUser,
						types.AVU{Name: "experiment", Value: fmt.Sprintf("e%d", i%8)}); err != nil {
						panic(err)
					}
					continue
				}
				hits, err := r.RunQuery(mcat.Query{
					Scope: coll,
					Conds: []mcat.Condition{{Attr: "experiment", Op: "like", Value: "e%"}},
				})
				if err != nil {
					panic(err)
				}
				if len(hits) < shardObjsPerColl {
					panic(fmt.Sprintf("query %s: %d hits, want >= %d", coll, len(hits), shardObjsPerColl))
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// scanCandidates is the mean number of objects a deep-scoped query of
// the E12 workload scans on r: every object on the scope's home shard,
// since a like condition cannot narrow through the inverted index. It
// counts the seeded corpus as the ring places it, so it does not depend
// on the host.
func scanCandidates(r *shard.Router) float64 {
	total := 0
	for c := 0; c < shardColls; c++ {
		total += r.Shard(r.Map().ShardOfPath(fmt.Sprintf("/proj/c%02d", c))).Stats().Objects
	}
	return float64(total) / shardColls
}

// E12ShardedCatalog measures mixed register/query throughput on a
// monolithic catalog against the 4-shard router. The query is the worst
// case for a monolithic scan (the non-equality condition defeats the
// inverted index) and the best case for routing: a deep scope pins the
// query to one home shard, which holds ~1/N of the objects, so the
// candidate scan shrinks by the shard count even on a single core —
// the payoff is partitioning, not parallelism. The scan_reduction
// column is that shrink, counted; the timed columns are what it buys.
func E12ShardedCatalog(scale int) Table {
	nOps := 600 * scale
	t := Table{
		ID:      "E12",
		Title:   "sharded catalog: 4-shard router vs monolithic on a mixed workload",
		Claim:   `"any solution for the data grid should be scalable to handle millions of datasets" (§2): partition the catalog rather than grow one scan`,
		Columns: []string{"catalog", "ops", "elapsed_ms", "ops_per_s", "speedup_vs_monolithic", "candidates_per_query", "scan_reduction"},
		Notes: fmt.Sprintf("%d collections x %d seeded objects; 30%% register / 70%% deep-scoped like-query, %d workers; best of 3 paired rounds; wall clock, except candidates (seeded corpus, counted)",
			shardColls, shardObjsPerColl, shardWorkers),
	}
	cells := []struct {
		name string
		r    *shard.Router
	}{{"monolithic (1 shard)", newShardRig(1)}, {"4-shard router", newShardRig(4)}}
	cand := make([]float64, len(cells))
	for i, c := range cells {
		cand[i] = scanCandidates(c.r)
	}
	// Warm-up round per cell, off the clock; then both cells back to
	// back each round so background load distorts them equally.
	for _, c := range cells {
		shardRound(c.r, 0, nOps)
	}
	best := make([]time.Duration, len(cells))
	for round := 1; round <= 3; round++ {
		for i, c := range cells {
			if d := shardRound(c.r, round, nOps); round == 1 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i, c := range cells {
		t.Rows = append(t.Rows, append(throughputRow(c.name, nOps, best[i], best[0]),
			fmt.Sprintf("%.0f", cand[i]), fmt.Sprintf("%.2fx", cand[0]/cand[i])))
	}
	return t
}
