package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
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
		return nil, PartialError(partial)
	}
	return hits, nil
}

// PartialError is the strict query contract's refusal of an answer the
// partial shards are missing from: an ErrTimeout naming them.
func PartialError(partial []string) error {
	return types.E("query", fmt.Sprintf("shards %v", partial), types.ErrTimeout)
}

// QueryPartial runs the query and reports the shards, if any, whose
// answers are missing or suspect. It is QueryInto on a fresh answer:
// hits are nil when none match.
func (r *Router) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	var a mcat.Answer
	partial, err := r.QueryInto(&a, q)
	if err != nil {
		return nil, nil, err
	}
	return a.Hits, partial, nil
}

// QueryInto runs the query into a, replacing what it held, and reports
// the shards, if any, whose answers are missing or suspect. A scope one
// shard holds is that shard's RunQueryInto; a scattered query merges the
// shards' answers into a.
func (r *Router) QueryInto(a *mcat.Answer, q mcat.Query) ([]string, error) {
	if r.n == 1 {
		return r.shards[0].cat.QueryInto(a, q)
	}
	scope := types.CleanPath(q.Scope)
	if types.Depth(scope) >= 2 {
		r.singleQ.Inc()
		i := r.homeIdx(scope)
		if err := r.shards[i].cat.RunQueryInto(a, q); err != nil {
			return nil, err
		}
		var partial []string
		if r.isStale(i) {
			partial = []string{r.shardName(i)}
			r.notePartial()
		}
		return partial, nil
	}

	r.scatterQ.Inc()
	fanStart := time.Now()
	s := r.getScatter(q)
	for i := range r.shards {
		lend(task{s: s, i: i, c: r.shards[i].cat})
	}
	var firstErr error
	pending := r.n
collect:
	for pending > 0 {
		select {
		case ans := <-s.ch:
			pending--
			if ans.err != nil {
				if firstErr == nil {
					firstErr = ans.err
				}
				continue
			}
			s.answered[ans.idx] = true
		case <-s.deadline.C:
			break collect
		}
	}
	// A timer that fired as the last answer came in counts as a deadline:
	// its tick may still be on its way.
	if pending == 0 && s.deadline.Stop() {
		defer r.putScatter(s)
	}
	r.fanoutOp.Observe(time.Since(fanStart), nil)
	if firstErr != nil {
		return nil, firstErr
	}

	var partial []string
	for i := range r.shards {
		if !s.answered[i] || r.isStale(i) {
			partial = append(partial, r.shardName(i))
		}
	}
	if len(partial) > 0 {
		r.notePartial()
	}

	mergeStart := time.Now()
	// Only an answered shard's buffers are whole: a shard past the
	// deadline may still be writing its own.
	for i, ok := range s.answered {
		if ok {
			s.lists[i] = s.answers[i].Hits
		}
	}
	mergeHits(a, s.lists, q.Limit)
	r.mergeOp.Observe(time.Since(mergeStart), nil)
	return partial, nil
}

// scatter is the rendezvous of one scatter-gather query: the query, the
// channel the shards answer on, the buffers each shard answers into,
// which shards have answered and the deadline. The router recycles it
// only when every shard has answered, for then nothing else holds it,
// and its buffers have stayed within maxPooledAnswer. After a deadline a
// shard still running may yet write its buffers and send on the
// channel, so the query drops the scatter to the GC instead, as the wire
// mux does with a waiter whose call timed out.
type scatter struct {
	q        mcat.Query
	ch       chan answer
	answers  []mcat.Answer // shard i answers into answers[i]
	lists    [][]mcat.Hit  // the answered shards' hits, which the merge consumes
	answered []bool
	deadline *time.Timer
}

// answer is one shard's word that answers[idx] is complete, or its error.
type answer struct {
	idx int
	err error
}

// maxPooledAnswer caps each buffer of a pooled scatter's shard answers,
// in elements: a scatter one large answer grew past it goes to the GC.
const maxPooledAnswer = 4096

// getScatter takes a recycled scatter, or makes one, for q and starts
// its deadline.
func (r *Router) getScatter(q mcat.Query) *scatter {
	s, _ := r.scatters.Get().(*scatter)
	if s == nil {
		s = &scatter{
			ch:       make(chan answer, r.n),
			answers:  make([]mcat.Answer, r.n),
			lists:    make([][]mcat.Hit, r.n),
			answered: make([]bool, r.n),
			deadline: time.NewTimer(r.qTimeout),
		}
	} else {
		s.deadline.Reset(r.qTimeout)
	}
	s.q = q
	return s
}

// putScatter recycles s, which every shard has answered and whose
// deadline is stopped, unless an answer grew one of its buffers past
// maxPooledAnswer.
func (r *Router) putScatter(s *scatter) {
	for i := range s.answers {
		if a := &s.answers[i]; cap(a.Hits) > maxPooledAnswer || cap(a.Cols) > maxPooledAnswer || cap(a.Vals) > maxPooledAnswer {
			return
		}
	}
	s.q = mcat.Query{}
	clear(s.lists)
	clear(s.answered)
	r.scatters.Put(s)
}

// task is one shard's share of a scattered query: shard i answers s.q
// from catalog c into s.answers[i].
type task struct {
	s *scatter
	i int
	c *mcat.Catalog
}

// run answers the task and tells the scatter.
func (t task) run() {
	err := t.c.RunQueryInto(&t.s.answers[t.i], t.s.q)
	t.s.ch <- answer{idx: t.i, err: err}
}

// The lender runs the shards' shares of scattered queries, for every
// router in the process, on parked workers. lend hands a task to a
// worker waiting on tasks and starts one only when none is, so a query
// whose shard is held (a long write, a wedged journal) takes a fresh
// worker rather than queueing behind it, and shares of queries to the
// same shard run concurrently. A worker parks for workerIdle after each
// task and exits if none comes.
var (
	tasks   = make(chan task)
	workers atomic.Int32 // workers alive, running a task or parked
	// idleOverride, when set, replaces workerIdle (tests shorten it).
	idleOverride atomic.Int64
)

// workerIdle is how long a parked worker waits for a task before it
// exits.
const workerIdle = time.Second

func lend(t task) {
	select {
	case tasks <- t:
	default:
		workers.Add(1)
		go work(t)
	}
}

// work runs t, then each task it is handed while parked, until it has
// waited the idle period for one. A tick left over from a task that
// outlasted the period only makes the worker exit early.
func work(t task) {
	defer workers.Add(-1)
	t.run()
	idle := time.NewTimer(idlePeriod())
	for {
		select {
		case t = <-tasks:
			t.run()
			idle.Reset(idlePeriod())
		case <-idle.C:
			return
		}
	}
}

func idlePeriod() time.Duration {
	if d := idleOverride.Load(); d > 0 {
		return time.Duration(d)
	}
	return workerIdle
}

// mergeHits merges the shards' answers, each already sorted by path,
// into a, replacing what it held: one sorted list of at most limit hits
// (0 = all). A path two shards both report (an object mid-migration) is
// kept once, from the lower-numbered shard. The merged hits share
// nothing with lists but strings: a first pass over copies of the
// cursors counts the winners, their columns and their values, and the
// second copies them into a's three buffers, which grow only past the
// capacity they have, as RunQueryInto's do. It consumes lists.
func mergeHits(a *mcat.Answer, lists [][]mcat.Hit, limit int) {
	var buf [8][]mcat.Hit
	cur := append(buf[:0], lists...)
	n, ncols, nvals := 0, 0, 0
	last := ""
	for limit <= 0 || n < limit {
		h, ok := popMin(cur)
		if !ok {
			break
		}
		if n > 0 && h.Path == last {
			continue
		}
		last = h.Path
		n++
		ncols += len(h.Values)
		for _, v := range h.Values {
			nvals += len(v)
		}
	}

	out := slices.Grow(a.Hits[:0], n)[:n]
	slab := slices.Grow(a.Cols[:0], ncols)[:ncols]
	clear(slab)
	cols, vals := slab, slices.Grow(a.Vals[:0], nvals)
	for i := 0; i < n; {
		h, _ := popMin(lists)
		if i > 0 && h.Path == out[i-1].Path {
			continue
		}
		out[i] = mcat.Hit{Path: h.Path}
		if h.Values != nil {
			w := len(h.Values)
			out[i].Values, cols = cols[:w:w], cols[w:]
			for k, v := range h.Values {
				if v != nil {
					start := len(vals)
					vals = append(vals, v...)
					out[i].Values[k] = vals[start:len(vals):len(vals)]
				}
			}
		}
		i++
	}
	a.Hits, a.Cols, a.Vals = out, slab, vals
}

// popMin takes the smallest head of lists, the lowest-numbered list's
// on a tie, reporting false when every list is empty.
func popMin(lists [][]mcat.Hit) (mcat.Hit, bool) {
	best := -1
	for i, l := range lists {
		if len(l) > 0 && (best < 0 || l[0].Path < lists[best][0].Path) {
			best = i
		}
	}
	if best < 0 {
		return mcat.Hit{}, false
	}
	h := lists[best][0]
	lists[best] = lists[best][1:]
	return h, true
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
	r.partialQ.Inc()
}
