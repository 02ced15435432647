package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/types"
)

// segResult is one fixed-count slice of the measured phase. Every
// timing metric is the median over segments, so a burst of host noise
// inside one segment does not move the reported value.
type segResult struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
	lat  [nKinds][]float64 // microseconds
}

// phaseResult accumulates a phase. Counters are atomic because the
// clients of a segment run concurrently.
type phaseResult struct {
	segs  []segResult
	tried [nKinds]atomic.Int64
	fails [nKinds]atomic.Int64 // errors, refusals and oracle mismatches
	wrong [nKinds]atomic.Int64 // the subset that returned wrong content
	// Allocation totals over the whole phase: counts repeat exactly, so
	// they are not taken per segment.
	mallocs, allocBytes uint64
	errLogged           atomic.Int64
}

func sum(counts *[nKinds]atomic.Int64) (n int64) {
	for i := range counts {
		n += counts[i].Load()
	}
	return n
}

func (r *phaseResult) attempted() int64    { return sum(&r.tried) }
func (r *phaseResult) failed() int64       { return sum(&r.fails) }
func (r *phaseResult) wrongContent() int64 { return sum(&r.wrong) }

// fail records one failed op and returns false; the first few are
// printed.
func (r *phaseResult) fail(o *op, wrong bool, format string, args ...any) bool {
	r.fails[o.kind].Add(1)
	if wrong {
		r.wrong[o.kind].Add(1)
	}
	if r.errLogged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %s\n", o.kind, o.path, fmt.Sprintf(format, args...))
	}
	return false
}

// checkData compares a reply with the generator's bytes: length and
// eight sampled 64-byte windows on every reply, every byte on 1 in 64,
// so the harness spends little CPU next to the program it measures.
func checkData(got, want []byte, full bool) bool {
	if len(got) != len(want) {
		return false
	}
	if full || len(want) <= 512 {
		return bytes.Equal(got, want)
	}
	const win = 64
	step := (len(want) - win) / 7
	for i := 0; i < 8; i++ {
		off := i * step
		if !bytes.Equal(got[off:off+win], want[off:off+win]) {
			return false
		}
	}
	return true
}

// do issues one op through the client library and checks the reply
// against the oracle. seq picks the replies that get the full check.
func (r *rig) do(cl *client.Client, o *op, seq int, res *phaseResult) bool {
	res.tried[o.kind].Add(1)
	full := seq%64 == 0
	switch o.kind {
	case opGet, opGetLocal:
		data, err := cl.Get(o.path)
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if !checkData(data, r.p.payload(o.key, o.size), full) {
			return res.fail(o, true, "wrong content (%d bytes)", len(data))
		}
	case opGetRange:
		data, err := cl.GetRange(o.path, o.off, int64(o.size))
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if whole := r.p.payload(o.key, r.p.ladder.objSize); !checkData(data, whole[o.off:o.off+int64(o.size)], full) {
			return res.fail(o, true, "wrong range content (%d bytes)", len(data))
		}
	case opMultiGet:
		items, err := cl.MultiGet(o.paths)
		if err != nil {
			return res.fail(o, false, "%v", err)
		}
		for i, it := range items {
			if it.Err != nil {
				return res.fail(o, false, "item %s: %v", it.Path, it.Err)
			}
			if !checkData(it.Data, r.p.payload(o.keys[i], o.size), full) {
				return res.fail(o, true, "item %s: wrong content", it.Path)
			}
		}
	case opStat:
		st, err := cl.Stat(o.path)
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if st.Size != int64(o.size) || st.IsCollect || st.Path != o.path {
			return res.fail(o, true, "stat says %+v", st)
		}
	case opList:
		ents, err := cl.List(o.path)
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if len(ents) != o.wantN {
			return res.fail(o, true, "%d entries, want %d", len(ents), o.wantN)
		}
	case opGetMeta:
		avus, err := cl.GetMeta(o.path, types.MetaUser)
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if len(avus) != o.wantN {
			return res.fail(o, true, "%d AVUs, want %d", len(avus), o.wantN)
		}
	case opQueryIndexed, opQueryScan:
		hits, partial, err := cl.QueryPartial(o.query)
		switch {
		case err != nil:
			return res.fail(o, false, "%v", err)
		case len(partial) > 0:
			return res.fail(o, false, "partial result: %v", partial)
		case len(hits) != o.wantN:
			return res.fail(o, true, "%d hits, want %d", len(hits), o.wantN)
		case o.wantN > 0 && (hits[0].Path != o.wantFirst || hits[len(hits)-1].Path != o.wantLast):
			return res.fail(o, true, "hits span %s..%s, want %s..%s", hits[0].Path, hits[len(hits)-1].Path, o.wantFirst, o.wantLast)
		}
	case opPut:
		obj, err := cl.Put(o.path, r.p.payload(o.key, o.size), client.PutOpts{Resource: o.resource, Meta: o.meta})
		if err != nil {
			return res.fail(o, false, "%v", err)
		} else if obj.Size != int64(o.size) {
			return res.fail(o, true, "stored %d bytes, want %d", obj.Size, o.size)
		}
	case opAddMeta:
		if err := cl.AddMeta(o.path, types.MetaUser, o.meta[0]); err != nil {
			return res.fail(o, false, "%v", err)
		}
	case opAnnotate:
		if err := cl.Annotate(o.path, types.Annotation{Kind: "comment", Text: o.text}); err != nil {
			return res.fail(o, false, "%v", err)
		}
	case opDelete:
		if err := cl.Delete(o.path); err != nil {
			return res.fail(o, false, "%v", err)
		}
	}
	return true
}

// runClient is one closed-loop client: one request in flight, the next
// sent when the reply has been checked. gate and feed implement the
// fixed ratio between a client and the next (see clientPlan.feed). It
// returns the latency of every op that succeeded, by class.
func (r *rig) runClient(cl *client.Client, ops []op, gate <-chan struct{}, feed chan<- struct{}, feedN int, res *phaseResult) (lat [nKinds][]float64) {
	for i := range ops {
		o := &ops[i]
		if gate != nil {
			<-gate
		}
		for k := 0; k < feedN; k++ {
			feed <- struct{}{}
		}
		start := time.Now()
		ok := r.do(cl, o, i, res)
		d := time.Since(start)
		// A failed op is missing every latency.
		if ok {
			lat[o.kind] = append(lat[o.kind], float64(d.Nanoseconds())/1e3)
		}
	}
	return lat
}

// runSegment runs every client's slice concurrently and returns when
// all have finished: a barrier, so each segment is the same fixed work.
func (r *rig) runSegment(slice func(client int) []op, res *phaseResult) segResult {
	var seg segResult
	var wg sync.WaitGroup
	lats := make([][nKinds][]float64, len(r.clients))
	cpu0, start := cpuTime(), time.Now()
	var gate chan struct{}
	for c, cl := range r.clients {
		ops := slice(c)
		seg.ops += len(ops)
		var feed chan struct{}
		feedN := r.p.clients[c].feed
		if feedN > 0 {
			// Sized to the number of sends: the feeder never blocks on
			// a slower follower.
			feed = make(chan struct{}, feedN*len(ops))
		}
		wg.Add(1)
		go func(c int, cl *client.Client, gate <-chan struct{}) {
			defer wg.Done()
			lats[c] = r.runClient(cl, ops, gate, feed, feedN, res)
		}(c, cl, gate)
		gate = feed
	}
	wg.Wait()
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	for _, l := range lats {
		for k := range l {
			seg.lat[k] = append(seg.lat[k], l[k]...)
		}
	}
	return seg
}

// measure runs the measured phase: `segments` equal slices of every
// client's fixed op list. The counts are frozen, so a slow host makes
// the phase longer, never shorter.
func (r *rig) measure() *phaseResult {
	res := &phaseResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for s := 0; s < segments; s++ {
		seg := r.runSegment(func(c int) []op {
			ops := r.p.clients[c].ops
			per := len(ops) / segments
			return ops[s*per : (s+1)*per]
		}, res)
		res.segs = append(res.segs, seg)
	}
	runtime.ReadMemStats(&m1)
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return res
}

// segMetric is f(segment) averaged over the segments that are left
// when the lowest and the highest are set aside: as deaf to one burst
// of host noise as a median, and smoother when a value is quantised
// (a segment holds a whole number of GC cycles). Segments where f has
// no samples are skipped.
func (r *phaseResult) segMetric(f func(*segResult) (float64, bool)) float64 {
	var vals []float64
	for i := range r.segs {
		if v, ok := f(&r.segs[i]); ok {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if len(vals) >= 4 {
		vals = vals[1 : len(vals)-1]
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if len(vals) == 0 {
		return 0
	}
	return sum / float64(len(vals))
}

func (r *phaseResult) latPct(kind opKind, pct float64) float64 {
	return r.segMetric(func(s *segResult) (float64, bool) {
		if len(s.lat[kind]) == 0 {
			return 0, false
		}
		return percentile(s.lat[kind], pct), true
	})
}

func (r *phaseResult) samples(kind opKind) (n int) {
	for i := range r.segs {
		n += len(r.segs[i].lat[kind])
	}
	return n
}

func (r *phaseResult) totalOps() (n int) {
	for i := range r.segs {
		n += r.segs[i].ops
	}
	return n
}

func (r *phaseResult) totalWall() (d time.Duration) {
	for i := range r.segs {
		d += r.segs[i].wall
	}
	return d
}
