package shard

import (
	"fmt"
	"sort"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Query routing. A scope of depth >= 2 pins the whole answer to one
// shard — every path under the scope shares its routing key — so such
// queries run 1/N of the work of a monolithic scan. Wider scopes
// scatter to every shard under a per-shard deadline and gather; shards
// that miss the deadline (or are known-stale followers) are reported
// in the partial list by name rather than stalling the query.

// RunQuery satisfies the strict half of the query contract: a shard
// that cannot answer turns the whole query into an error. Callers that
// can use incomplete answers call QueryPartial.
func (r *Router) RunQuery(q mcat.Query) ([]mcat.Hit, error) {
	hits, partial, err := r.QueryPartial(q)
	if err != nil {
		return nil, err
	}
	if len(partial) > 0 {
		return nil, types.E("query", fmt.Sprintf("shards %v", partial), types.ErrTimeout)
	}
	return hits, nil
}

// QueryPartial runs the query and reports the shards, if any, whose
// answers are missing or suspect.
func (r *Router) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	if r.n == 1 {
		return r.shards[0].cat.QueryPartial(q)
	}
	scope := types.CleanPath(q.Scope)
	if types.Depth(scope) >= 2 {
		if r.singleQ != nil {
			r.singleQ.Inc()
		}
		i := r.homeIdx(scope)
		hits, err := r.shards[i].cat.RunQuery(q)
		if err != nil {
			return nil, nil, err
		}
		var partial []string
		if r.isStale(i) {
			partial = []string{r.shardName(i)}
			r.notePartial()
		}
		return hits, partial, nil
	}

	if r.scatterQ != nil {
		r.scatterQ.Inc()
	}
	type result struct {
		idx  int
		hits []mcat.Hit
		err  error
	}
	fanStart := time.Now()
	ch := make(chan result, r.n)
	for i := range r.shards {
		go func(i int, c *mcat.Catalog) {
			hits, err := c.RunQuery(q)
			ch <- result{idx: i, hits: hits, err: err}
		}(i, r.shards[i].cat)
	}

	answers := make([][]mcat.Hit, r.n)
	answered := make([]bool, r.n)
	var firstErr error
	deadline := time.NewTimer(r.qTimeout)
	defer deadline.Stop()
	pending := r.n
collect:
	for pending > 0 {
		select {
		case res := <-ch:
			pending--
			if res.err != nil {
				if firstErr == nil {
					firstErr = res.err
				}
				continue
			}
			answers[res.idx], answered[res.idx] = res.hits, true
		case <-deadline.C:
			break collect
		}
	}
	if r.fanoutOp != nil {
		r.fanoutOp.Observe(time.Since(fanStart), nil)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	var partial []string
	for i := range r.shards {
		if !answered[i] || r.isStale(i) {
			partial = append(partial, r.shardName(i))
		}
	}
	if len(partial) > 0 {
		r.notePartial()
	}

	mergeStart := time.Now()
	out := mergeHits(answers, q.Limit)
	if r.mergeOp != nil {
		r.mergeOp.Observe(time.Since(mergeStart), nil)
	}
	return out, partial, nil
}

// mergeHits merges the shards' answers, each already sorted by path,
// into one sorted list of at most limit hits (0 = all). A path two
// shards both report (an object mid-migration) is kept once, from the
// lower-numbered shard. It consumes lists.
func mergeHits(lists [][]mcat.Hit, limit int) []mcat.Hit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]mcat.Hit, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0].Path < lists[best][0].Path) {
				best = i
			}
		}
		if best < 0 {
			break // duplicates made total an overestimate
		}
		h := lists[best][0]
		lists[best] = lists[best][1:]
		if len(out) == 0 || out[len(out)-1].Path != h.Path {
			out = append(out, h)
		}
	}
	return out
}

// QueryAttrNames unions the queryable attribute names across the
// shards covering the scope.
func (r *Router) QueryAttrNames(scope string) []string {
	scope = types.CleanPath(scope)
	if r.n == 1 || types.Depth(scope) >= 2 {
		return r.shards[r.homeIdx(scope)].cat.QueryAttrNames(scope)
	}
	seen := make(map[string]bool)
	for _, st := range r.shards {
		for _, n := range st.cat.QueryAttrNames(scope) {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (r *Router) isStale(i int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[i].stale
}

func (r *Router) shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

func (r *Router) notePartial() {
	if r.partialQ != nil {
		r.partialQ.Inc()
	}
}
