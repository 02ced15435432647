package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mysrb"
	"gosrb/internal/storage"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// perLayer are the metrics a traced run (-trace 1) reports. A metric
// that does not apply to a workload (a query rung where nothing is
// queryable, peer counters with one server) reads 0 there.
var perLayer = func() []metricDef {
	var d []metricDef
	for k := opKind(0); k < nKinds; k++ {
		d = append(d, metricDef{"client." + k.String() + ".p50_us", "us"}, metricDef{"client." + k.String() + ".p95_us", "us"},
			metricDef{"client." + k.String() + ".n", "count"})
	}
	d = append(d, metricDef{"client.ops_per_s", "ops/s"}, metricDef{"client.cpu_us_per_op", "us/op"})
	for _, op := range []string{"get", "stat", "ls", "put", "query"} {
		d = append(d, metricDef{"server.rpc_overhead_us." + op, "us"})
	}
	d = append(d,
		metricDef{"wire.bytes_out_per_op", "B/op"}, metricDef{"wire.bytes_in_per_op", "B/op"},
		metricDef{"wire.writes_per_op", "1/op"}, metricDef{"wire.reads_per_op", "1/op"},
		metricDef{"wire.conn_busy_us_per_op", "us/op"},
		metricDef{"wire.codec.stat_us", "us"}, metricDef{"wire.senddata_1m_us", "us"},
		metricDef{"wire.peer.round_trips_per_op", "1/op"}, metricDef{"wire.peer.bytes_per_op", "B/op"},
		metricDef{"wire.peer.wait_us_per_op", "us/op"},
	)
	for _, op := range []string{"get", "ingest", "stat", "list", "query", "delete"} {
		d = append(d, metricDef{"core." + op + ".p50_us", "us"})
	}
	d = append(d,
		metricDef{"core.self_us.get", "us"}, metricDef{"core.self_us.ingest", "us"},
		metricDef{"replica.readall.p50_us", "us"}, metricDef{"replica.writeall.p50_us", "us"}, metricDef{"replica.self_us.read", "us"},
		metricDef{"mcat.calls_per_op", "1/op"}, metricDef{"mcat.busy_us_per_op", "us/op"},
	)
	for _, op := range []string{"resolve", "register", "list200", "addmeta", "effective_level", "query_indexed", "query_scan", "shard.query_root", "shard.query_deep"} {
		d = append(d, metricDef{"mcat." + op + ".p50_us", "us"})
	}
	d = append(d,
		metricDef{"mcat.journal.bytes_per_mutation", "B"}, metricDef{"mcat.snapshot_bytes_per_object", "B"},
		metricDef{"setup.preload_s", "s"}, metricDef{"setup.snapshot_s", "s"}, metricDef{"setup.boot_s", "s"}, metricDef{"setup.warmup_s", "s"},
		metricDef{"storage.calls_per_op", "1/op"}, metricDef{"storage.busy_us_per_op", "us/op"},
		metricDef{"storage.bytes_read_per_op", "B/op"}, metricDef{"storage.bytes_written_per_op", "B/op"},
		metricDef{"storage.stored_bytes_per_user_byte", "B/B"},
		metricDef{"storage.read_4k.p50_us", "us"}, metricDef{"storage.write_4k.p50_us", "us"},
		metricDef{"storage.read_1m.p50_us", "us"}, metricDef{"storage.write_1m.p50_us", "us"},
		metricDef{"mysrb.browse200.p50_us", "us"}, metricDef{"mysrb.query.p50_us", "us"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_total_ms", "ms"}, metricDef{"runtime.heap_inuse_peak_mb", "MiB"},
		metricDef{"harness.trace_overhead_pct", "%"}, metricDef{"harness.calib_ms", "ms"}, metricDef{"harness.calib_drift_pct", "%"},
	)
	for _, l := range layers {
		d = append(d, metricDef{"share." + l + "_pct", "%"})
	}
	return d
}()

// rung is one step of the direct-call ladder, a call made n times with
// the decorators on: its median latency, and the median of what is
// left of each call when the catalog and storage time under it is
// taken away.
type rung struct {
	p50, self float64
}

func (t *tracer) rung(n int, f func(i int) error) (rung, error) {
	lat, self := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		before := t.snap()
		start := time.Now()
		if err := f(i); err != nil {
			return rung{}, err
		}
		d := us(time.Since(start))
		below := t.snap().add(before, -1)
		lat, self = append(lat, d), append(self, d-float64(below.mcatBusy+below.stBusy)/1e3)
	}
	return rung{percentile(lat, 50), percentile(self, 50)}, nil
}

// runTraced is the -trace 1 pass: one set-up with decorators wired in,
// the workload's ops folded into one closed-loop client in alternating
// untraced and traced segments, then the ladder and the direct calls.
func runTraced(cfg config, p *plan, runDir string, out io.Writer) (*result, error) {
	tr := newTracer()
	r, err := setup(p, filepath.Join(runDir, "t"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	m := make(map[string]float64)
	m["setup.preload_s"], m["setup.snapshot_s"] = r.times.preload.Seconds(), r.times.snapshot.Seconds()
	m["setup.boot_s"], m["setup.warmup_s"] = r.times.boot.Seconds(), r.times.warmup.Seconds()
	m["mcat.snapshot_bytes_per_object"] = float64(r.snapshotBytes) / float64(len(p.preload))

	// In situ. Six slices, decorators off, on, off, on...: the off
	// slices give client.<op> latencies and the reference for trace
	// overhead, the on slices the per-op counters. A slice is an eighth
	// of one client's ops, so that folding two clients into one does not
	// double the length of the run.
	ops := p.sequential()
	per := len(ops) / (8 * len(p.clients))
	res := &phaseResult{}
	cl := r.clients[0]
	var offLat [nKinds][]float64
	var offPerOp, onPerOp, offCPUPerOp []float64
	var in counters
	onOps, mutations := 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calib0 := calibrate()
	for s := 0; s < 6; s++ {
		on := s%2 == 1
		slice := ops[s*per : (s+1)*per]
		tr.on.Store(on)
		before := tr.snap()
		cpu0, start := cpuTime(), time.Now()
		for i := range slice {
			o := &slice[i]
			if on {
				tr.opID.Store(int64(onOps + i))
			}
			t0 := time.Now()
			ok := r.do(cl, o, i, res)
			t1 := time.Now()
			if on {
				tr.record("client."+o.kind.String(), t0, t1)
			} else if ok {
				offLat[o.kind] = append(offLat[o.kind], us(t1.Sub(t0)))
			}
			if o.kind.mutates() {
				mutations++
			}
		}
		tr.opID.Store(-1)
		perOp := us(time.Since(start)) / float64(len(slice))
		if on {
			in = in.add(tr.snap().add(before, -1), 1)
			onOps += len(slice)
			onPerOp = append(onPerOp, perOp)
		} else {
			offPerOp = append(offPerOp, perOp)
			offCPUPerOp = append(offCPUPerOp, us(cpuTime()-cpu0)/float64(len(slice)))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if v := float64(ms.HeapInuse) / (1 << 20); v > m["runtime.heap_inuse_peak_mb"] {
			m["runtime.heap_inuse_peak_mb"] = v
		}
	}
	calib1 := calibrate()
	runtime.ReadMemStats(&m1)
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["harness.trace_overhead_pct"] = 100 * (median(onPerOp)/median(offPerOp) - 1)
	m["client.ops_per_s"], m["client.cpu_us_per_op"] = 1e6/median(offPerOp), median(offCPUPerOp)
	m["harness.calib_ms"] = (calib0 + calib1).Seconds() * 500
	m["harness.calib_drift_pct"] = 100 * (calib1 - calib0).Abs().Seconds() / calib0.Seconds()
	for k := opKind(0); k < nKinds; k++ {
		m["client."+k.String()+".p50_us"] = percentile(offLat[k], 50)
		m["client."+k.String()+".p95_us"] = percentile(offLat[k], 95)
		m["client."+k.String()+".n"] = float64(len(offLat[k]))
	}
	n := float64(onOps)
	m["wire.bytes_out_per_op"], m["wire.bytes_in_per_op"] = float64(in.cOut)/n, float64(in.cIn)/n
	m["wire.writes_per_op"], m["wire.reads_per_op"] = float64(in.cWrites)/n, float64(in.cReads)/n
	m["wire.conn_busy_us_per_op"] = float64(in.cBusy) / 1e3 / n
	m["wire.peer.round_trips_per_op"] = float64(in.pTrips) / n
	m["wire.peer.bytes_per_op"] = float64(in.pOut+in.pIn) / n
	m["wire.peer.wait_us_per_op"] = float64(in.pWait) / 1e3 / n
	m["mcat.calls_per_op"], m["mcat.busy_us_per_op"] = float64(in.mcatCalls)/n, float64(in.mcatBusy)/1e3/n
	m["storage.calls_per_op"], m["storage.busy_us_per_op"] = float64(in.stCalls)/n, float64(in.stBusy)/1e3/n
	m["storage.bytes_read_per_op"], m["storage.bytes_written_per_op"] = float64(in.stRead)/n, float64(in.stWrit)/n
	if mutations > 0 {
		m["mcat.journal.bytes_per_mutation"] = float64(r.catalogFileBytes("mcat.journal")-r.journalBase) / float64(mutations)
	}
	m["storage.stored_bytes_per_user_byte"] = float64(r.vaultBytes()) / float64(liveBytes(p, ops[:6*per]))

	self := tr.resolveSpans()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range layers {
		if total > 0 {
			m["share."+l+"_pct"] = 100 * self[l] / total
		}
	}
	spansPath := filepath.Join(cfg.dir, p.w.name+".spans.jsonl")
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, err
	}

	// Ladder and direct calls, decorators on, no spans.
	tr.on.Store(true)
	if err := r.ladder(tr, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := direct(runDir, p.scale, m); err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}
	tr.on.Store(false)

	out2 := &result{Correct: res.failed() == 0, Attempted: res.attempted(), Failed: res.failed(), Metrics: make(map[string]metricValue)}
	for _, d := range perLayer {
		out2.Metrics[d.name] = metricValue{m[d.name], d.unit}
		fmt.Fprintf(out, "%-36s %14.3f %s\n", d.name, m[d.name], d.unit)
	}
	printFailures(out, res)
	fmt.Fprintf(out, "self time by layer over the first %d traced ops (%s):", spanOps, spansPath)
	for _, l := range layers {
		fmt.Fprintf(out, " %s=%.1f%%", l, m["share."+l+"_pct"])
	}
	fmt.Fprintf(out, "\nnoisy_host=%v\n", m["harness.calib_drift_pct"] > 15)
	return out2, nil
}

// liveBytes is the user data stored after the preload, the warm-up and
// the executed ops, by the generator's own bookkeeping.
func liveBytes(p *plan, executed []op) int64 {
	var total int64
	for i := range p.preload {
		total += int64(p.preload[i].size)
	}
	sizes := make(map[string]int)
	apply := func(ops []op) {
		for i := range ops {
			switch o := &ops[i]; o.kind {
			case opPut:
				sizes[o.path] = o.size
				total += int64(o.size)
			case opDelete:
				// Deleting a preloaded extra: every object of a
				// workload has one size.
				sz, ok := sizes[o.path]
				if !ok {
					sz = p.ladder.objSize
				}
				total -= int64(sz)
			}
		}
	}
	for _, cp := range p.clients {
		apply(cp.warm)
	}
	apply(executed)
	return total
}

// ladder calls each layer's public functions directly with the
// workload's sampled inputs: client.X -> core.Broker.X ->
// replica.Manager -> shard.Catalog. A rung minus the rung below it is
// what the code between them costs.
func (r *rig) ladder(tr *tracer, m map[string]float64) error {
	L := &r.p.ladder
	b, cl := r.brokers[0], r.clients[0]
	nRead, nWrite := len(L.objPaths), scaled(1000, r.p.scale, 20)
	if L.objSize >= 1<<20 {
		nWrite = scaled(100, r.p.scale, 4)
	}
	path := func(i int) string { return L.objPaths[i%nRead] }
	sess, err := r.authn.NewSession(benchUser) // for the MySRB rungs
	if err != nil {
		return err
	}
	// run is tr.rung with the first error kept: once a rung has failed
	// the rest are skipped and the ladder returns that error, so what
	// it wrote into m meanwhile is never reported.
	run := func(n int, f func(i int) error) rung {
		if err != nil {
			return rung{}
		}
		var g rung
		g, err = tr.rung(n, f)
		return g
	}

	// get
	cGet := run(nRead, func(i int) error { _, err := cl.Get(path(i)); return err })
	bGet := run(nRead, func(i int) error { _, err := b.Get(benchUser, path(i)); return err })
	rRead := run(nRead, func(i int) error { _, _, err := b.Replicas().ReadAll(path(i), ""); return err })
	mResolve := run(nRead, func(i int) error { _, err := r.cat.GetObject(path(i)); return err })
	m["server.rpc_overhead_us.get"] = cGet.p50 - bGet.p50
	m["core.get.p50_us"] = bGet.p50
	m["core.self_us.get"] = bGet.self - rRead.self
	m["replica.readall.p50_us"] = rRead.p50
	m["replica.self_us.read"] = rRead.self
	m["mcat.resolve.p50_us"] = mResolve.p50

	// stat, ls
	cStat := run(nRead, func(i int) error { _, err := cl.Stat(path(i)); return err })
	bStat := run(nRead, func(i int) error { _, err := b.StatPath(benchUser, path(i)); return err })
	m["server.rpc_overhead_us.stat"], m["core.stat.p50_us"] = cStat.p50-bStat.p50, bStat.p50
	nList := nRead / 4
	cList := run(nList, func(int) error { _, err := cl.List(L.listColl); return err })
	bList := run(nList, func(int) error { _, err := b.List(benchUser, L.listColl); return err })
	mList := run(nList, func(int) error { _, err := r.cat.ListColl(L.listColl); return err })
	m["server.rpc_overhead_us.ls"], m["core.list.p50_us"], m["mcat.list200.p50_us"] = cList.p50-bList.p50, bList.p50, mList.p50
	mLevel := run(nRead, func(i int) error { r.cat.EffectiveLevel(path(i), benchUser); return nil })
	m["mcat.effective_level.p50_us"] = mLevel.p50

	// put, addmeta, delete: the ladder writes its own objects.
	data := r.p.payload(7, L.objSize)
	meta := []types.AVU{{Name: "band", Value: "ladder"}, {Name: "mag", Value: "1"}}
	name := func(tag string, i int) string { return fmt.Sprintf("%s/%s%05d", L.coll, tag, i) }
	cPut := run(nWrite, func(i int) error {
		_, err := cl.Put(name("c", i), data, client.PutOpts{Resource: L.resource, Meta: meta})
		return err
	})
	bPut := run(nWrite, func(i int) error {
		_, err := b.Ingest(benchUser, core.IngestOpts{Path: name("b", i), Data: data, Resource: L.resource, Meta: meta})
		return err
	})
	rWrite := run(nWrite, func(i int) error { return b.Replicas().WriteAll(name("b", i), data) })
	mAddMeta := run(nWrite, func(i int) error {
		return r.cat.AddMeta(name("b", i), types.MetaUser, types.AVU{Name: "note", Value: "ladder"})
	})
	mRegister := run(nWrite, func(i int) error {
		_, err := r.cat.RegisterObject(&types.DataObject{Name: fmt.Sprintf("m%05d", i), Collection: L.coll, Owner: benchUser, Kind: types.KindFile, DataType: "generic"})
		return err
	})
	bDelete := run(2*nWrite, func(i int) error {
		if i < nWrite {
			return b.Delete(benchUser, name("b", i))
		}
		return b.Delete(benchUser, name("c", i-nWrite))
	})
	m["server.rpc_overhead_us.put"] = cPut.p50 - bPut.p50
	m["core.ingest.p50_us"] = bPut.p50
	m["core.self_us.ingest"] = bPut.self
	m["replica.writeall.p50_us"] = rWrite.p50
	m["mcat.addmeta.p50_us"], m["mcat.register.p50_us"] = mAddMeta.p50, mRegister.p50
	m["core.delete.p50_us"] = bDelete.p50

	// queries, and the web front end over the same broker.
	app := mysrb.New(b, r.authn)
	web := func(method, target string, form url.Values) error {
		req := httptest.NewRequest(method, target, strings.NewReader(form.Encode()))
		if form != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		req.AddCookie(&http.Cookie{Name: mysrb.SessionCookie, Value: sess.Key})
		rec := httptest.NewRecorder()
		app.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("mysrb %s: status %d", target, rec.Code)
		}
		return nil
	}
	wBrowse := run(scaled(200, r.p.scale, 10), func(int) error { return web(http.MethodGet, "/browse?path="+url.QueryEscape(L.listColl), nil) })
	m["mysrb.browse200.p50_us"] = wBrowse.p50
	if len(L.indexed) == 0 {
		return err
	}
	nQ := len(L.indexed)
	cQ := run(nQ, func(i int) error { _, _, err := cl.QueryPartial(L.indexed[i]); return err })
	bQ := run(nQ, func(i int) error { _, _, err := b.QueryPartial(benchUser, L.indexed[i]); return err })
	sRoot := run(nQ, func(i int) error { _, _, err := r.cat.QueryPartial(L.indexed[i]); return err })
	sDeep := run(nQ, func(i int) error { _, _, err := r.cat.QueryPartial(L.scan[i]); return err })
	// One shard's monolithic catalog, below the router.
	mIdx := run(nQ, func(i int) error { _, err := r.router.Shard(0).RunQuery(L.indexed[i]); return err })
	mScan := run(nQ, func(i int) error {
		q := L.scan[i]
		_, err := r.router.Shard(r.router.Map().ShardOfPath(q.Scope)).RunQuery(q)
		return err
	})
	wQuery := run(nQ, func(i int) error {
		q := L.indexed[i]
		form := url.Values{}
		for j, c := range q.Conds {
			form.Set(fmt.Sprint("attr-", j), c.Attr)
			form.Set(fmt.Sprint("op-", j), c.Op)
			form.Set(fmt.Sprint("val-", j), c.Value)
			form.Set(fmt.Sprint("show-", j), "on")
		}
		return web(http.MethodPost, "/query?path=/", form)
	})
	m["server.rpc_overhead_us.query"], m["core.query.p50_us"] = cQ.p50-bQ.p50, bQ.p50
	m["mcat.shard.query_root.p50_us"], m["mcat.shard.query_deep.p50_us"] = sRoot.p50, sDeep.p50
	m["mcat.query_indexed.p50_us"], m["mcat.query_scan.p50_us"] = mIdx.p50, mScan.p50
	m["mysrb.query.p50_us"] = wQuery.p50
	return err
}

// direct times calls that do not depend on the workload: the storage
// driver at both object sizes on a posixfs vault in the run directory,
// and the wire codec over an in-memory pipe.
func direct(runDir string, scale float64, m map[string]float64) error {
	d, err := posixfs.New(filepath.Join(runDir, "direct-vault"))
	if err != nil {
		return err
	}
	for _, c := range []struct {
		tag  string
		size int
		n    int
	}{{"4k", 4 << 10, scaled(1000, scale, 20)}, {"1m", 1 << 20, scaled(100, scale, 4)}} {
		buf := bytes.Repeat([]byte{0xA5}, c.size)
		var wl, rl []float64
		for i := 0; i < c.n; i++ {
			p := fmt.Sprintf("/direct/%s/f%02d", c.tag, i%16)
			start := time.Now()
			if err := storage.WriteAll(d, p, buf); err != nil {
				return err
			}
			mid := time.Now()
			if _, err := storage.ReadAll(d, p); err != nil {
				return err
			}
			wl, rl = append(wl, us(mid.Sub(start))), append(rl, us(time.Since(mid)))
		}
		m["storage.write_"+c.tag+".p50_us"], m["storage.read_"+c.tag+".p50_us"] = percentile(wl, 50), percentile(rl, 50)
	}

	// Codec: one stat request and reply, JSON in frames, both ends.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := wire.NewConn(a), wire.NewConn(b)
	nCodec, nData := scaled(2000, scale, 20), scaled(100, scale, 4)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < nCodec; i++ {
			var req wire.Request
			if err := cb.ReadJSON(wire.MsgRequest, &req); err != nil {
				errc <- err
				return
			}
			resp, err := wire.OkResponse(types.Stat{Path: "/small/c000/o00000", Owner: benchUser, Size: 4096, Replicas: 1, DataType: "generic"}, false)
			if err == nil {
				err = cb.WriteJSON(wire.MsgResponse, resp)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		for i := 0; i < nData; i++ {
			if _, err := cb.RecvData(io.Discard); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var cl, dl []float64
	for i := 0; i < nCodec; i++ {
		start := time.Now()
		args, err := json.Marshal(wire.PathArgs{Path: "/small/c000/o00000"})
		if err == nil {
			err = ca.WriteJSON(wire.MsgRequest, wire.Request{ID: uint64(i + 1), Op: wire.OpStat, Args: args})
		}
		var resp wire.Response
		if err == nil {
			err = ca.ReadJSON(wire.MsgResponse, &resp)
		}
		if err != nil {
			return err
		}
		cl = append(cl, us(time.Since(start)))
	}
	mib := bytes.Repeat([]byte{0x5A}, 1<<20)
	for i := 0; i < nData; i++ {
		start := time.Now()
		if err := ca.SendData(bytes.NewReader(mib)); err != nil {
			return err
		}
		dl = append(dl, us(time.Since(start)))
	}
	if err := <-errc; err != nil {
		return err
	}
	m["wire.codec.stat_us"], m["wire.senddata_1m_us"] = percentile(cl, 50), percentile(dl, 50)
	return nil
}
