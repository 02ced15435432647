package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// The tracer observes the program from outside, at boundaries that are
// already interfaces: net.Conn (client.DialWith, Server.SetPeerDialer),
// storage.Driver and shard.Catalog. Nothing inside internal/ is
// touched. Decorators count always-on while tr.on is set; spans are
// kept in memory for the first spanOps ops and written at exit.

// spanOps bounds the spans kept (and the size of spans.jsonl).
const spanOps = 2000

type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

type layerStats struct {
	calls, busyNs atomic.Int64
}

type connStats struct {
	writes, reads, bytesOut, bytesIn atomic.Int64
	// busyNs is time inside Write plus time inside Reads that were not
	// waiting for a reply; waitNs is time from the end of a request's
	// last Write to the arrival of the first reply byte; roundTrips
	// counts request bursts (a Write with no reply outstanding).
	busyNs, waitNs, roundTrips atomic.Int64
}

type tracer struct {
	on   atomic.Bool
	t0   time.Time
	opID atomic.Int64 // op being issued; -1 outside the traced client loop

	mu    sync.Mutex
	spans []span

	client, peer         connStats
	mcat, storage        layerStats
	bytesRead, bytesWrit atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.opID.Store(-1)
	return t
}

func (t *tracer) record(name string, start, end time.Time) {
	id := t.opID.Load()
	if id < 0 || id >= spanOps {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), OpID: id})
	t.mu.Unlock()
}

// counters is a point-in-time copy of every in-situ counter.
type counters struct {
	cWrites, cReads, cOut, cIn, cBusy    int64
	pOut, pIn, pWait, pTrips             int64
	mcatCalls, mcatBusy, stCalls, stBusy int64
	stRead, stWrit                       int64
}

func (t *tracer) snap() counters {
	return counters{
		t.client.writes.Load(), t.client.reads.Load(), t.client.bytesOut.Load(), t.client.bytesIn.Load(),
		t.client.busyNs.Load(),
		t.peer.bytesOut.Load(), t.peer.bytesIn.Load(), t.peer.waitNs.Load(), t.peer.roundTrips.Load(),
		t.mcat.calls.Load(), t.mcat.busyNs.Load(), t.storage.calls.Load(), t.storage.busyNs.Load(),
		t.bytesRead.Load(), t.bytesWrit.Load(),
	}
}

func (a counters) add(b counters, sign int64) counters {
	return counters{
		a.cWrites + sign*b.cWrites, a.cReads + sign*b.cReads, a.cOut + sign*b.cOut, a.cIn + sign*b.cIn,
		a.cBusy + sign*b.cBusy,
		a.pOut + sign*b.pOut, a.pIn + sign*b.pIn, a.pWait + sign*b.pWait, a.pTrips + sign*b.pTrips,
		a.mcatCalls + sign*b.mcatCalls, a.mcatBusy + sign*b.mcatBusy, a.stCalls + sign*b.stCalls, a.stBusy + sign*b.stBusy,
		a.stRead + sign*b.stRead, a.stWrit + sign*b.stWrit,
	}
}

// ---- net.Conn ----

type tracedConn struct {
	net.Conn
	t    *tracer
	st   *connStats
	name string // span prefix: "wire" (client side) or "peer"

	mu           sync.Mutex // Write and Read run on different goroutines
	outstanding  bool
	lastWriteEnd time.Time
}

func (t *tracer) wrapConn(c net.Conn, st *connStats, name string) net.Conn {
	return &tracedConn{Conn: c, t: t, st: st, name: name}
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(b)
	}
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := time.Now()
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	c.st.busyNs.Add(end.Sub(start).Nanoseconds())
	c.mu.Lock()
	if !c.outstanding {
		c.outstanding = true
		c.st.roundTrips.Add(1)
	}
	c.lastWriteEnd = end
	c.mu.Unlock()
	c.t.record(c.name+".write", start, end)
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Read(b)
	}
	start := time.Now()
	n, err := c.Conn.Read(b)
	end := time.Now()
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	c.mu.Lock()
	waited := c.outstanding
	from := c.lastWriteEnd
	c.outstanding = false
	c.mu.Unlock()
	if waited {
		// The reader usually blocks in this Read since before the
		// request was written; the wait is charged from the request.
		if from.Before(start) {
			from = start
		}
		c.st.waitNs.Add(end.Sub(from).Nanoseconds())
		c.t.record(c.name+".wait", from, end)
	} else {
		c.st.busyNs.Add(end.Sub(start).Nanoseconds())
		c.t.record(c.name+".read", start, end)
	}
	return n, err
}

// ---- storage.Driver ----

type tracedDriver struct {
	d storage.Driver
	t *tracer
}

func (t *tracer) wrapDriver(d storage.Driver) storage.Driver { return &tracedDriver{d: d, t: t} }

// call times one driver or handle call; the returned func ends it.
func (t *tracer) call(st *layerStats, name string, counted bool) func() {
	if !t.on.Load() {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		if counted {
			st.calls.Add(1)
		}
		st.busyNs.Add(end.Sub(start).Nanoseconds())
		t.record(name, start, end)
	}
}

func (d *tracedDriver) Create(path string) (storage.WriteFile, error) {
	defer d.t.call(&d.t.storage, "storage.create", true)()
	w, err := d.d.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w, d.t}, nil
}

func (d *tracedDriver) OpenAppend(path string) (storage.WriteFile, error) {
	defer d.t.call(&d.t.storage, "storage.append", true)()
	w, err := d.d.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w, d.t}, nil
}

func (d *tracedDriver) Open(path string) (storage.ReadFile, error) {
	defer d.t.call(&d.t.storage, "storage.open", true)()
	r, err := d.d.Open(path)
	if err != nil {
		return nil, err
	}
	return &tracedReader{r, d.t}, nil
}

func (d *tracedDriver) Stat(path string) (storage.FileInfo, error) {
	defer d.t.call(&d.t.storage, "storage.stat", true)()
	return d.d.Stat(path)
}

func (d *tracedDriver) Remove(path string) error {
	defer d.t.call(&d.t.storage, "storage.remove", true)()
	return d.d.Remove(path)
}

func (d *tracedDriver) Rename(oldPath, newPath string) error {
	defer d.t.call(&d.t.storage, "storage.rename", true)()
	return d.d.Rename(oldPath, newPath)
}

func (d *tracedDriver) List(dir string) ([]storage.FileInfo, error) {
	defer d.t.call(&d.t.storage, "storage.list", true)()
	return d.d.List(dir)
}

func (d *tracedDriver) Mkdir(path string) error {
	defer d.t.call(&d.t.storage, "storage.mkdir", true)()
	return d.d.Mkdir(path)
}

// Handle calls add to storage busy time and bytes but are not counted
// as driver calls.
type tracedWriter struct {
	storage.WriteFile
	t *tracer
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	defer w.t.call(&w.t.storage, "storage.write", false)()
	n, err := w.WriteFile.Write(p)
	if w.t.on.Load() {
		w.t.bytesWrit.Add(int64(n))
	}
	return n, err
}

func (w *tracedWriter) Close() error {
	defer w.t.call(&w.t.storage, "storage.close", false)()
	return w.WriteFile.Close()
}

type tracedReader struct {
	storage.ReadFile
	t *tracer
}

func (r *tracedReader) Read(p []byte) (int, error) {
	defer r.t.call(&r.t.storage, "storage.read", false)()
	n, err := r.ReadFile.Read(p)
	if r.t.on.Load() {
		r.t.bytesRead.Add(int64(n))
	}
	return n, err
}

func (r *tracedReader) ReadAt(p []byte, off int64) (int, error) {
	defer r.t.call(&r.t.storage, "storage.readat", false)()
	n, err := r.ReadFile.ReadAt(p, off)
	if r.t.on.Load() {
		r.t.bytesRead.Add(int64(n))
	}
	return n, err
}

func (r *tracedReader) Close() error {
	defer r.t.call(&r.t.storage, "storage.close", false)()
	return r.ReadFile.Close()
}

// ---- shard.Catalog ----

// tracedCatalog embeds the catalog and overrides the methods the
// broker, replica manager and server call on the request path. The
// router calls its shards directly, never back through this wrapper,
// so nothing is counted twice.
type tracedCatalog struct {
	shard.Catalog
	t *tracer
}

func (t *tracer) wrapCatalog(c shard.Catalog) shard.Catalog { return &tracedCatalog{c, t} }

func (c *tracedCatalog) m(name string) func() { return c.t.call(&c.t.mcat, "mcat."+name, true) }

func (c *tracedCatalog) GetObject(p string) (types.DataObject, error) {
	defer c.m("GetObject")()
	return c.Catalog.GetObject(p)
}

func (c *tracedCatalog) ResolveObject(p string) (types.DataObject, error) {
	defer c.m("ResolveObject")()
	return c.Catalog.ResolveObject(p)
}

func (c *tracedCatalog) RegisterObject(o *types.DataObject) (types.ObjectID, error) {
	defer c.m("RegisterObject")()
	return c.Catalog.RegisterObject(o)
}

func (c *tracedCatalog) UpdateObject(p string, fn func(*types.DataObject) error) error {
	defer c.m("UpdateObject")()
	return c.Catalog.UpdateObject(p, fn)
}

func (c *tracedCatalog) DeleteObject(p string) error {
	defer c.m("DeleteObject")()
	return c.Catalog.DeleteObject(p)
}

func (c *tracedCatalog) GetColl(p string) (types.Collection, error) {
	defer c.m("GetColl")()
	return c.Catalog.GetColl(p)
}

func (c *tracedCatalog) CollExists(p string) bool {
	defer c.m("CollExists")()
	return c.Catalog.CollExists(p)
}

func (c *tracedCatalog) ListColl(p string) ([]types.Stat, error) {
	defer c.m("ListColl")()
	return c.Catalog.ListColl(p)
}

func (c *tracedCatalog) GetResource(name string) (types.Resource, error) {
	defer c.m("GetResource")()
	return c.Catalog.GetResource(name)
}

func (c *tracedCatalog) ResolvePhysical(name string) ([]types.Resource, error) {
	defer c.m("ResolvePhysical")()
	return c.Catalog.ResolvePhysical(name)
}

func (c *tracedCatalog) EffectiveLevel(p, user string) acl.Level {
	defer c.m("EffectiveLevel")()
	return c.Catalog.EffectiveLevel(p, user)
}

func (c *tracedCatalog) ResourceLevel(res, user string) acl.Level {
	defer c.m("ResourceLevel")()
	return c.Catalog.ResourceLevel(res, user)
}

func (c *tracedCatalog) CheckMandatory(coll string, provided []types.AVU) []string {
	defer c.m("CheckMandatory")()
	return c.Catalog.CheckMandatory(coll, provided)
}

func (c *tracedCatalog) AddMeta(p string, class types.MetaClass, avu types.AVU) error {
	defer c.m("AddMeta")()
	return c.Catalog.AddMeta(p, class, avu)
}

func (c *tracedCatalog) GetMeta(p string, class types.MetaClass) ([]types.AVU, error) {
	defer c.m("GetMeta")()
	return c.Catalog.GetMeta(p, class)
}

func (c *tracedCatalog) AddAnnotation(p string, a types.Annotation) error {
	defer c.m("AddAnnotation")()
	return c.Catalog.AddAnnotation(p, a)
}

func (c *tracedCatalog) RunQuery(q mcat.Query) ([]mcat.Hit, error) {
	defer c.m("RunQuery")()
	return c.Catalog.RunQuery(q)
}

func (c *tracedCatalog) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	defer c.m("QueryPartial")()
	return c.Catalog.QueryPartial(q)
}

// ---- spans: parents by containment, self time by layer ----

// layerOf maps a span name to the layer its self time belongs to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case name == "wire.wait":
		// Between the request leaving the client and the first reply
		// byte: server, broker and replica code, less the catalog,
		// storage and peer spans nested inside it.
		return "server"
	case name == "peer.wait":
		return "peer_wait"
	case strings.HasPrefix(name, "wire."), strings.HasPrefix(name, "peer."):
		return "wire"
	case strings.HasPrefix(name, "mcat."):
		return "mcat"
	default:
		return "storage"
	}
}

var layers = []string{"client", "server", "wire", "mcat", "storage", "peer_wait"}

// resolveSpans gives every span its parent — the innermost span of the
// same op that contains its start; with one client, time containment
// is causation — and returns each layer's self time: a span's duration
// minus the part of it its children cover.
func (t *tracer) resolveSpans() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := &t.spans[i], &t.spans[j]
		if a.OpID != b.OpID {
			return a.OpID < b.OpID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	covered := make([]int64, len(t.spans))
	var stack []int
	for i := range t.spans {
		s := &t.spans[i]
		s.ID, s.Parent = i, -1
		if len(stack) > 0 && t.spans[stack[0]].OpID != s.OpID {
			stack = stack[:0]
		}
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			par := &t.spans[stack[len(stack)-1]]
			s.Parent = par.ID
			end := s.End
			if par.End < end {
				end = par.End
			}
			covered[par.ID] += end - s.Start
		}
		stack = append(stack, i)
	}
	self := make(map[string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if d := s.End - s.Start - covered[i]; d > 0 {
			self[layerOf(s.Name)] += float64(d)
		}
	}
	return self
}

// writeSpans writes one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
