// The streaming data path end to end, through real TCP loopback: fixed
// memory for objects of any size, the failure semantics of a stream
// that breaks (at the client, at one storage member, at the driver under
// a read, at a federation peer), pipelining next to a streamed request,
// and read-your-own-telemetry. Run under -race (make test-stream).
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// bootOne boots one server ("srb1") over a fresh catalog with the given
// drivers mounted as physical resources and, when members is non-empty,
// a logical resource "pair" over them.
func bootOne(t *testing.T, drivers map[string]stg.Driver, members []string, policy string) (*core.Broker, *Server, string) {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)
	b := core.New(cat, "srb1")
	for name, d := range drivers {
		if err := b.AddPhysicalResource("admin", name, types.ClassFileSystem, "memfs", d); err != nil {
			t.Fatal(err)
		}
	}
	if len(members) > 0 {
		if err := b.AddLogicalResourcePolicy("admin", "pair", members, policy); err != nil {
			t.Fatal(err)
		}
	}
	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")
	s := New(b, authn, Proxy)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return b, s, addr
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// ---- a driver that holds no bytes ----

// genBlock is the generator's period. It is prime, so no chunk or frame
// size divides it: a chunk delivered twice, dropped or out of place
// changes the stream's hash.
const genBlock = 65521

var genBytes = func() []byte {
	b := make([]byte, genBlock)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}()

// genReader yields size bytes of the generator's stream.
type genReader struct{ off, size int64 }

func (g *genReader) Read(p []byte) (int, error) {
	if g.off >= g.size {
		return 0, io.EOF
	}
	if rest := g.size - g.off; int64(len(p)) > rest {
		p = p[:rest]
	}
	n := 0
	for n < len(p) {
		m := copy(p[n:], genBytes[(g.off+int64(n))%genBlock:])
		n += m
	}
	g.off += int64(n)
	return n, nil
}

func (g *genReader) ReadAt(p []byte, off int64) (int, error) {
	r := genReader{off: off, size: g.size}
	return io.ReadFull(&r, p)
}

func (g *genReader) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += g.off
	case io.SeekEnd:
		off += g.size
	}
	g.off = off
	return off, nil
}

func (g *genReader) Close() error { return nil }

// genSum is the SHA-256 of the generator's first size bytes.
func genSum(size int64) string {
	h := sha256.New()
	io.Copy(h, &genReader{size: size})
	return hex.EncodeToString(h.Sum(nil))
}

// genDriver is a storage driver with no vault: a written file is hashed
// and dropped (its size and digest kept), and opening one regenerates
// the generator's stream at the recorded size. Whatever memory a
// transfer uses is therefore the data path's own.
type genDriver struct {
	mu    sync.Mutex
	files map[string]genFile
}

type genFile struct {
	size int64
	sum  string
}

func newGenDriver() *genDriver { return &genDriver{files: make(map[string]genFile)} }

type genWriter struct {
	d    *genDriver
	path string
	h    hash.Hash
	n    int64
}

func (w *genWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *genWriter) Close() error {
	w.d.mu.Lock()
	w.d.files[w.path] = genFile{size: w.n, sum: hex.EncodeToString(w.h.Sum(nil))}
	w.d.mu.Unlock()
	return nil
}

func (d *genDriver) Create(path string) (stg.WriteFile, error) {
	return &genWriter{d: d, path: path, h: sha256.New()}, nil
}
func (d *genDriver) OpenAppend(path string) (stg.WriteFile, error) {
	return nil, types.ErrUnsupported
}
func (d *genDriver) Open(path string) (stg.ReadFile, error) {
	d.mu.Lock()
	f, ok := d.files[path]
	d.mu.Unlock()
	if !ok {
		return nil, types.E("open", path, types.ErrNotFound)
	}
	return &genReader{size: f.size}, nil
}
func (d *genDriver) Stat(path string) (stg.FileInfo, error) {
	d.mu.Lock()
	f, ok := d.files[path]
	d.mu.Unlock()
	if !ok {
		return stg.FileInfo{}, types.E("stat", path, types.ErrNotFound)
	}
	return stg.FileInfo{Path: path, Size: f.size}, nil
}
func (d *genDriver) Remove(path string) error {
	d.mu.Lock()
	delete(d.files, path)
	d.mu.Unlock()
	return nil
}
func (d *genDriver) Rename(o, n string) error            { return types.ErrUnsupported }
func (d *genDriver) List(string) ([]stg.FileInfo, error) { return nil, nil }
func (d *genDriver) Mkdir(string) error                  { return nil }

// TestStreamFixedMemory is the robustness half of the streaming path:
// four clients concurrently put and get back one large object each,
// through real TCP, against a driver that keeps nothing — and the whole
// process's heap stays under a ceiling an eighth the size of ONE of the
// objects. The stored size and SHA-256, computed incrementally on the
// server as the stream went by, must be the generator's.
func TestStreamFixedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 2 GiB through loopback")
	}
	size := int64(256 << 20)
	if raceEnabled {
		size = 64 << 20
	}
	const ceiling = 32 << 20
	const clients = 4
	want := genSum(size)

	gd := newGenDriver()
	b, _, addr := bootOne(t, map[string]stg.Driver{"gen": gd}, nil, "")

	runtime.GC()
	debug.FreeOSMemory()
	var peak atomic.Uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak.Load() {
				peak.Store(ms.HeapInuse)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(addr, "alice", "alicepw")
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			path := fmt.Sprintf("/home/big%d", i)
			o, err := cl.PutFrom(path, &genReader{size: size}, client.PutOpts{Resource: "gen"})
			if err != nil {
				t.Errorf("put %s: %v", path, err)
				return
			}
			if o.Size != size || o.Checksum != want {
				t.Errorf("put %s: catalog size %d checksum %s, want %d %s", path, o.Size, o.Checksum, size, want)
			}
			h := sha256.New()
			n, err := cl.GetTo(path, h)
			if err != nil {
				t.Errorf("get %s: %v", path, err)
				return
			}
			if got := hex.EncodeToString(h.Sum(nil)); n != size || got != want {
				t.Errorf("get %s: %d bytes sha %s, want %d %s", path, n, got, size, want)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	t.Logf("HeapInuse peak %.1f MiB moving %d x %d MiB both ways", float64(peak.Load())/(1<<20), clients, size>>20)
	if p := peak.Load(); p > ceiling {
		t.Errorf("HeapInuse peaked at %.1f MiB moving %d x %d MiB both ways; ceiling %d MiB",
			float64(p)/(1<<20), clients, size>>20, ceiling>>20)
	}
	// What the driver was handed is what the generator produced.
	for i := 0; i < clients; i++ {
		o, err := b.Cat.GetObject(fmt.Sprintf("/home/big%d", i))
		if err != nil {
			t.Fatal(err)
		}
		gd.mu.Lock()
		f := gd.files[o.Replicas[0].PhysicalPath]
		gd.mu.Unlock()
		if f.size != size || f.sum != want {
			t.Errorf("driver stored %d bytes sha %s for big%d, want %d %s", f.size, f.sum, i, size, want)
		}
	}
}

// ---- read-your-own-telemetry ----

// TestReadYourOwnTelemetry states the invariant dispatch keeps: once a
// client has a request's reply, that request is already in the serving
// node's op histogram, trace ring and usage table — for a plain reply,
// an error reply and a streamed one alike. Each check is made directly
// after the call returns, with no wait.
func TestReadYourOwnTelemetry(t *testing.T) {
	b, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	cl := dialT(t, addr)
	reg := b.Metrics()

	check := func(op string, wantCount int64, wantErr bool) {
		t.Helper()
		trace := cl.LastTrace()
		if got := reg.Op("server." + op).Snapshot().Count; got != wantCount {
			t.Errorf("after %s returned: server.%s count = %d, want %d", op, op, got, wantCount)
		}
		spans := reg.Traces().ForTrace(trace)
		if len(spans) != 1 || spans[0].Op != op {
			t.Errorf("after %s returned: trace ring holds %d spans for its trace", op, len(spans))
		} else if (spans[0].Err != "") != wantErr {
			t.Errorf("after %s returned: span error = %q, want error=%v", op, spans[0].Err, wantErr)
		}
		found := false
		for _, e := range reg.Usage().Snapshot() {
			if e.User == "alice" && e.LastTrace == trace {
				found = true
			}
		}
		if !found {
			t.Errorf("after %s returned: usage table has no row carrying its trace", op)
		}
	}

	payload := bytes.Repeat([]byte("telemetry "), 100_000) // 1 MB: several data frames
	for i := int64(1); i <= 20; i++ {
		path := fmt.Sprintf("/home/t%d", i)
		if _, err := cl.Put(path, payload, client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
		check("ingest", i, false)
		if _, err := cl.Stat(path); err != nil {
			t.Fatal(err)
		}
		check("stat", 2*i-1, false)
		if data, err := cl.Get(path); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("get %s: %d bytes, %v", path, len(data), err)
		}
		check("get", i, false)
		if _, err := cl.Stat("/home/missing"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("stat of a missing path = %v", err)
		}
		check("stat", 2*i, true)
	}
	// The streamed get's bytes are in the usage ledger too.
	var out int64
	for _, e := range reg.Usage().Snapshot() {
		out += e.BytesOut
	}
	if want := int64(20 * len(payload)); out != want {
		t.Errorf("usage bytesOut = %d, want %d", out, want)
	}
}

// ---- pipelining next to a stream ----

func statReq(t *testing.T, id uint64, path string) *wire.Request {
	t.Helper()
	return &wire.Request{ID: id, Op: wire.OpStat, Args: mustArgs(t, wire.PathArgs{Path: path})}
}

func ingestReq(t *testing.T, id uint64, path, resource string) *wire.Request {
	t.Helper()
	return &wire.Request{ID: id, Op: wire.OpIngest, Args: mustArgs(t, wire.IngestArgs{Path: path, Resource: resource})}
}

// TestPipelinedStatsBehindStreamedPut: a streamed Put followed on the
// same connection by pipelined Stats. The server's reader must hand the
// stream to the Put's handler, wait for it to be consumed, and only then
// treat the next frame as a request — no deadlock, no data frame
// mistaken for a request.
func TestPipelinedStatsBehindStreamedPut(t *testing.T) {
	_, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	body := bytes.Repeat([]byte{0xAB}, 3*wire.DataChunk+17)
	c := rawConn(t, addr, "alice", "alicepw")
	path := "/home/pipe"
	// Everything is written before anything is read, from a goroutine:
	// the server must make progress on the stream without the client
	// reading replies first.
	werr := make(chan error, 1)
	go func() {
		err := c.WriteRequest(ingestReq(t, 7, path, "disk1"))
		if err == nil {
			err = c.SendData(bytes.NewReader(body))
		}
		if err == nil {
			err = c.WriteRequest(statReq(t, 8, "/home"))
		}
		if err == nil {
			err = c.WriteRequest(statReq(t, 9, path))
		}
		werr <- err
	}()
	byID := map[uint64]wire.Response{}
	for i := 0; i < 3; i++ {
		var resp wire.Response
		if err := readResp(c, &resp); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		byID[resp.ID] = resp
	}
	if err := <-werr; err != nil {
		t.Fatalf("write: %v", err)
	}
	put, coll, obj := byID[7], byID[8], byID[9]
	var o types.DataObject
	if !put.OK || wire.DecodeBody(put.Body, &o) != nil || o.Size != int64(len(body)) {
		t.Errorf("put reply = %+v (size %d), want ok with %d bytes", put, o.Size, len(body))
	}
	var st types.Stat
	if !coll.OK || wire.DecodeBody(coll.Body, &st) != nil || !st.IsCollect {
		t.Errorf("stat /home reply = %+v", coll)
	}
	// The second stat was sent after the put's stream, so the reader
	// reached it only after the put's handler had consumed the stream;
	// it may still race the put's catalog commit, so only its framing
	// (a well-formed stat answer, found or not) is asserted.
	if !obj.OK && obj.ErrKind != "notfound" {
		t.Errorf("stat of the put path = %+v", obj)
	}
}

// TestRequestWithoutIDIsRefused: an ID is mandatory. A request frame with
// ID 0 — spelled out or left out, with or without a body stream behind it
// — gets exactly one ErrInvalid response and reaches no handler; the
// stream is drained, so the session goes on to serve the next request.
func TestRequestWithoutIDIsRefused(t *testing.T) {
	b, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	body := bytes.Repeat([]byte{0xEF}, wire.DataChunk+3)
	c := rawConn(t, addr, "alice", "alicepw")
	go func() {
		c.WriteRequest(statReq(t, 0, "/home"))
		// ID 0 spelled out byte by byte: no encoder writes it.
		c.WriteMsg(wire.MsgRequest, append([]byte{0, 4, 's', 't', 'a', 't', 0, 0, 0, 0, 0, 0},
			mustArgs(t, wire.PathArgs{Path: "/home"})...))
		if c.WriteRequest(ingestReq(t, 0, "/home/noid", "disk1")) == nil && c.SendData(bytes.NewReader(body)) == nil {
			c.WriteRequest(statReq(t, 5, "/home/noid"))
		}
	}()
	for i := 0; i < 3; i++ {
		var resp wire.Response
		if err := readResp(c, &resp); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.ID != 0 || resp.OK || !errors.Is(resp.Err(), types.ErrInvalid) {
			t.Errorf("reply %d = %+v, want ErrInvalid with no ID", i, resp)
		}
	}
	// The fourth reply answers the one well-formed request: had the
	// ingest run, its object would be there.
	var resp wire.Response
	if err := readResp(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || !errors.Is(resp.Err(), types.ErrNotFound) {
		t.Errorf("stat after the refused requests = %+v, want id 5 not found", resp)
	}
	ops := b.Metrics().Snapshot().Ops
	if n := ops["server.stat"].Count; n != 1 {
		t.Errorf("server.stat ran %d times, want 1 (the request with an ID)", n)
	}
	if n := ops["server.ingest"].Count; n != 0 {
		t.Errorf("server.ingest ran %d times, want 0", n)
	}
}

// TestRejectedStreamIsDrained: a handler that refuses its request
// without reading the body (no such collection; no such resource) leaves
// a whole stream on the connection. dispatch drains it, so the error
// reply is followed by a correct answer to the next request rather than
// by a framing error.
func TestRejectedStreamIsDrained(t *testing.T) {
	_, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	body := bytes.Repeat([]byte{0xCD}, 2*wire.DataChunk+5)
	c := rawConn(t, addr, "alice", "alicepw")
	for i, req := range []*wire.Request{
		ingestReq(t, 41, "/nowhere/x", "disk1"),
		ingestReq(t, 41, "/home/x", "nodisk"),
	} {
		go func() {
			if c.WriteRequest(req) == nil && c.SendData(bytes.NewReader(body)) == nil {
				c.WriteRequest(statReq(t, 41, "/home"))
			}
		}()
		var rejected, next wire.Response
		if err := readResp(c, &rejected); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := readResp(c, &next); err != nil {
			t.Fatalf("case %d: reply after a rejected stream: %v", i, err)
		}
		// Pipelined answers may overtake each other; tell them apart by
		// outcome.
		if rejected.OK {
			rejected, next = next, rejected
		}
		if rejected.OK || !next.OK {
			t.Errorf("case %d: replies = %+v then %+v, want one rejection and one stat", i, rejected, next)
		}
	}
}

// ---- (a) a Put whose stream breaks ----

// vaultFiles counts the files a memfs holds.
func vaultFiles(d stg.Driver) int { return d.(stg.UsageReporter).Usage().Files }

// TestPutClientDropLeavesNothing: the client's connection dies part-way
// through a Put's stream. Nothing of the object may remain — no catalog
// row, no file on any member.
func TestPutClientDropLeavesNothing(t *testing.T) {
	d1, d2 := memfs.New(), memfs.New()
	b, _, addr := bootOne(t, map[string]stg.Driver{"d1": d1, "d2": d2}, []string{"d1", "d2"}, "")
	inj := faultnet.New(1)
	cl, err := client.DialWith(addr, "alice", "alicepw", inj.WrapDial("client", func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, 5*time.Second)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	inj.Target("client").DropAfterBytes(3*wire.DataChunk + 100)
	_, err = cl.PutFrom("/home/torn", &genReader{size: 8 << 20}, client.PutOpts{Resource: "pair"})
	if err == nil {
		t.Fatal("put over a dropped connection succeeded")
	}
	inj.Target("client").Clear()
	// The server notices the drop asynchronously; wait for its handler.
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().Op("server.ingest").Snapshot().Count == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := b.Cat.GetObject("/home/torn"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("catalog row after a broken put: err = %v, want not found", err)
	}
	if n1, n2 := vaultFiles(d1), vaultFiles(d2); n1 != 0 || n2 != 0 {
		t.Errorf("files left on the members after a broken put: %d, %d", n1, n2)
	}
	// The server is unharmed: the same put over a healthy connection lands.
	cl2 := dialT(t, addr)
	if _, err := cl2.PutFrom("/home/torn", &genReader{size: 1 << 20}, client.PutOpts{Resource: "pair"}); err != nil {
		t.Fatalf("put after a broken put: %v", err)
	}
}

// TestPutMemberFailsMidStream: one member of a three-way logical
// resource fails at byte N of the stream. The put succeeds on the
// members still standing; the failed member's replica is dirty (never a
// ghost clean row, never a half file served). Under async:2 the
// synchronous set is d1+d2: d2's mid-stream failure is NOT made up by
// writing d3 synchronously (its bytes have gone by) — d2 and d3 are both
// queued for repair, exactly as a failed whole-object write was. Either
// way synchronisation converges.
func TestPutMemberFailsMidStream(t *testing.T) {
	for _, policy := range []string{"", "async:2"} {
		inj := faultnet.New(1)
		d1, d2, d3 := memfs.New(), memfs.New(), memfs.New()
		b, _, addr := bootOne(t, map[string]stg.Driver{
			"d1": d1, "d2": inj.WrapDriver("d2", d2), "d3": d3,
		}, []string{"d1", "d2", "d3"}, policy)
		cl := dialT(t, addr)
		inj.Target("d2").PartialWriteAfter(wire.DataChunk + 1000)

		const size = 5*wire.DataChunk + 77
		want := genSum(size)
		o, err := cl.PutFrom("/home/half", &genReader{size: size}, client.PutOpts{Resource: "pair"})
		if err != nil {
			t.Fatalf("policy %q: put with healthy members left: %v", policy, err)
		}
		if o.Size != size || o.Checksum != want || len(o.Replicas) != 3 {
			t.Fatalf("policy %q: object = size %d sum %s, %d replicas", policy, o.Size, o.Checksum, len(o.Replicas))
		}
		dirty := map[string]bool{"d2": true, "d3": policy != ""}
		for _, r := range o.Replicas {
			wantSt := types.ReplicaClean
			if dirty[r.Resource] {
				wantSt = types.ReplicaDirty
			}
			if r.Status != wantSt {
				t.Errorf("policy %q: replica on %s is %v, want %v", policy, r.Resource, r.Status, wantSt)
			}
		}
		if n := vaultFiles(d2); n != 0 {
			t.Errorf("policy %q: failed member kept %d half-written files", policy, n)
		}
		if policy != "" {
			queued := map[string]bool{}
			for _, task := range b.Cat.PendingRepairs() {
				if task.Path == "/home/half" {
					queued[task.Resource] = true
				}
			}
			if !queued["d2"] || !queued["d3"] {
				t.Errorf("policy %q: repair queue holds %v, want d2 and d3", policy, queued)
			}
		}
		// Reads are served from the clean member, whole.
		h := sha256.New()
		if n, err := cl.GetTo("/home/half", h); err != nil || n != size || hex.EncodeToString(h.Sum(nil)) != want {
			t.Errorf("policy %q: get = %d bytes, %v", policy, n, err)
		}
		// Repair converges once the member is healthy again.
		inj.Target("d2").Clear()
		wantFixed := 1 // d2
		if policy != "" {
			wantFixed = 2 // d2 and the deferred d3
		}
		if n, err := b.Replicas().SyncDirty("/home/half"); n != wantFixed || err != nil {
			t.Fatalf("policy %q: SyncDirty = %d, %v", policy, n, err)
		}
		o2, _ := b.Cat.GetObject("/home/half")
		for _, r := range o2.Replicas {
			if r.Status != types.ReplicaClean || r.Checksum != want {
				t.Errorf("policy %q: after repair replica on %s = %v sum %s", policy, r.Resource, r.Status, r.Checksum)
			}
		}
		if sum, err := replicaSum(d2, o2); err != nil || sum != want {
			t.Errorf("policy %q: repaired bytes on d2: sum %s, %v", policy, sum, err)
		}
	}
}

// lockedWriter lets a test read what a Logger wrote while the server is
// still running.
type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func obsLogger(buf *bytes.Buffer, mu *sync.Mutex) *obs.Logger {
	return obs.NewLogger(lockedWriter{mu: mu, buf: buf}, "srb1", obs.LevelError)
}

// replicaSum hashes the bytes d holds for o's replica on d2.
func replicaSum(d stg.Driver, o types.DataObject) (string, error) {
	for _, r := range o.Replicas {
		if r.Resource == "d2" {
			data, err := stg.ReadAll(d, r.PhysicalPath)
			sum := sha256.Sum256(data)
			return hex.EncodeToString(sum[:]), err
		}
	}
	return "", types.ErrNotFound
}

// TestReputClientDropKeepsOldContents: overwriting is staged, so a
// client that disappears mid-stream leaves the previous contents
// authoritative on every replica — not a torn file, not a dirty row.
func TestReputClientDropKeepsOldContents(t *testing.T) {
	b, _, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New(), "d2": memfs.New()}, []string{"d1", "d2"}, "")
	good := dialT(t, addr)
	old := bytes.Repeat([]byte("old!"), 50_000)
	if _, err := good.Put("/home/keep", old, client.PutOpts{Resource: "pair"}); err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(1)
	cl, err := client.DialWith(addr, "alice", "alicepw", inj.WrapDial("client", func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, 5*time.Second)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	inj.Target("client").DropAfterBytes(2 * wire.DataChunk)
	if err := cl.ReputFrom("/home/keep", &genReader{size: 4 << 20}); err == nil {
		t.Fatal("reput over a dropped connection succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().Op("server.reingest").Snapshot().Count == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	o, err := b.Cat.GetObject("/home/keep")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean {
			t.Errorf("replica on %s is %v after an aborted reput, want clean", r.Resource, r.Status)
		}
	}
	if data, err := good.Get("/home/keep"); err != nil || !bytes.Equal(data, old) {
		t.Errorf("get after an aborted reput: %d bytes, %v; want the old contents", len(data), err)
	}
}

// ---- (c) a driver read error after the OK header ----

// TestGetDriverReadErrorAbortsStream: the replica being streamed fails
// at byte N. The OK header is already out, so the server cannot answer
// with an error: it drops the connection and counts the abort. The
// failure counts against the resource's breaker, so the client's
// automatic retry is served from the surviving replica.
func TestGetDriverReadErrorAbortsStream(t *testing.T) {
	inj := faultnet.New(1)
	b, s, addr := bootOne(t, map[string]stg.Driver{
		"d1": inj.WrapDriver("d1", memfs.New()), "d2": memfs.New(),
	}, []string{"d1", "d2"}, "")
	b.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	var logged bytes.Buffer
	var logMu sync.Mutex
	s.Logger = obsLogger(&logged, &logMu)
	cl := dialT(t, addr)

	const size = 6*wire.DataChunk + 3
	want := genSum(size)
	if _, err := cl.PutFrom("/home/flaky", &genReader{size: size}, client.PutOpts{Resource: "pair"}); err != nil {
		t.Fatal(err)
	}
	inj.Target("d1").PartialReadAfter(2*wire.DataChunk + 10)
	data, err := cl.Get("/home/flaky")
	if err != nil {
		t.Fatalf("get with one failing replica: %v", err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Errorf("get returned %d wrong bytes", len(data))
	}
	if cl.Retries() != 1 {
		t.Errorf("client retries = %d, want 1", cl.Retries())
	}
	reg := b.Metrics()
	if got := reg.Counter("server.stream.aborted").Value(); got != 1 {
		t.Errorf("server.stream.aborted = %d, want 1", got)
	}
	if got := reg.Counter("replica.read.failover").Value(); got != 0 {
		// The retry found d1's breaker open and never tried it.
		t.Errorf("replica.read.failover = %d, want 0 (breaker routed around d1)", got)
	}
	if st := b.Breakers().States()["resource.d1"]; st != resilience.Open {
		t.Errorf("breaker of the failing resource = %v, want open", st)
	}
	logMu.Lock()
	line := logged.String()
	logMu.Unlock()
	for _, wantIn := range []string{"stream aborted", "op get", "remote=", "trace="} {
		if !bytes.Contains([]byte(line), []byte(wantIn)) {
			t.Errorf("abort log lacks %q:\n%s", wantIn, line)
		}
	}
	// GetTo into a plain writer cannot be rewound: with bytes already
	// written, the same failure is final.
	b.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 100, Cooldown: time.Hour})
	b.Breakers().For("resource.d1").Success()
	inj.Target("d1").PartialReadAfter(2*wire.DataChunk + 10)
	var sink bytes.Buffer
	before := cl.Retries()
	if n, err := cl.GetTo("/home/flaky", &sink); err == nil || n == 0 || n >= size {
		t.Errorf("GetTo over a failing replica = %d bytes, %v; want a partial write and an error", n, err)
	}
	if cl.Retries() != before {
		t.Errorf("GetTo retried %d times after bytes reached its writer", cl.Retries()-before)
	}
}

// ---- proxied get: the peer drops before vs after the first byte ----

// TestProxiedGetPeerDrop: srb1 relays a get of an object held by srb2.
// When the peer link dies before any payload byte has reached the
// client, srb1 retries the peer and the client never notices. When it
// dies after, the client's stream cannot be rewound: srb1 aborts it, and
// it is the client's own retry (Get into memory starts over) that
// recovers.
func TestProxiedGetPeerDrop(t *testing.T) {
	z := newZone(t, Proxy)
	inj := faultnet.New(1)
	z.s1.SetPeerDialer(inj.WrapDial("peer", func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, 5*time.Second)
	}))
	const size = 8*wire.DataChunk + 9
	want := genSum(size)
	if _, err := z.b2.Ingest("alice", core.IngestOpts{Path: "/home/far", Reader: &genReader{size: size}, Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	cl := z.client(z.addr1, "alice", "alicepw")
	cl.SetRetryPolicy(resilience.Policy{MaxAttempts: 1})
	get := func() (string, error) {
		h := sha256.New()
		data, err := cl.Get("/home/far")
		h.Write(data)
		return hex.EncodeToString(h.Sum(nil)), err
	}
	if sum, err := get(); err != nil || sum != want { // warms the peer pool
		t.Fatalf("healthy proxied get: %v", err)
	}
	reg := z.b1.Metrics()

	// Before the first byte: the pooled peer conn dies sending the
	// request. srb1's retry dials afresh once the fault is lifted.
	inj.Target("peer").DropAfterBytes(10)
	z.s1.sleep = func(time.Duration) { inj.Target("peer").Clear() }
	if sum, err := get(); err != nil || sum != want {
		t.Fatalf("proxied get with the peer dropping before the first byte: %v", err)
	}
	if got := reg.Counter("federation.retries").Value(); got != 1 {
		t.Errorf("federation.retries = %d, want 1", got)
	}
	if got := reg.Counter("server.stream.aborted").Value(); got != 0 {
		t.Errorf("server.stream.aborted = %d, want 0", got)
	}

	// After the first byte: three chunks in, the link dies. No peer retry
	// can help — the client already holds part of the stream.
	inj.Target("peer").DropAfterBytes(3 * wire.DataChunk)
	if _, err := get(); err == nil || !resilience.Transport(err) {
		t.Fatalf("proxied get with the peer dropping mid-stream = %v, want a transport error", err)
	}
	if got := reg.Counter("federation.retries").Value(); got != 1 {
		t.Errorf("federation.retries = %d after a mid-stream drop, want still 1", got)
	}
	if got := reg.Counter("server.stream.aborted").Value(); got != 1 {
		t.Errorf("server.stream.aborted = %d, want 1", got)
	}
	inj.Target("peer").Clear()
	if sum, err := get(); err != nil || sum != want {
		t.Fatalf("client's own retry after the aborted stream: %v", err)
	}
}

// ---- proxied get: clients that stop reading ----

// TestStalledProxiedClientsStallNobody: four clients each start a large
// proxied get through srb1 and then read nothing. Their replies back up
// into srb1's relay, whose writes run on the reader of a peer
// connection. Each relay has a peer connection to itself, so a fifth
// client's proxied gets are served at full speed meanwhile; and each is
// bounded by its request's budget, so once that runs out srb1 drops the
// stalled clients and their peer connections.
func TestStalledProxiedClientsStallNobody(t *testing.T) {
	z := newZone(t, Proxy)
	const big = 32 << 20 // far beyond what loopback socket buffers absorb
	if _, err := z.b2.Ingest("alice", core.IngestOpts{Path: "/home/big", Reader: &genReader{size: big}, Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	small := bytes.Repeat([]byte("near"), 1000)
	if _, err := z.b2.Ingest("alice", core.IngestOpts{Path: "/home/small", Data: small, Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	const stalled, budget = 4, 1200 * time.Millisecond
	args := mustArgs(t, wire.PathArgs{Path: "/home/big"})
	var conns []*wire.Conn
	for i := 0; i < stalled; i++ {
		c := rawConn(t, z.addr1, "alice", "alicepw")
		req := wire.Request{ID: 1, Op: wire.OpGet, Args: args, TimeoutMillis: budget.Milliseconds()}
		if err := c.WriteRequest(&req); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	start := time.Now()
	cl := z.client(z.addr1, "alice", "alicepw")
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		got, err := cl.Get("/home/small")
		if err != nil || !bytes.Equal(got, small) {
			t.Fatalf("proxied get beside %d stalled ones: %v", stalled, err)
		}
		if d := time.Since(t0); d > budget/2 {
			t.Fatalf("proxied get beside %d stalled ones took %v", stalled, d)
		}
	}
	if d := time.Since(start); d > budget {
		t.Fatalf("sibling gets took %v: the stalled requests (budget %v) had already ended", d, budget)
	}
	// The budget spent, srb1 hangs up on each stalled client: reading now
	// finds what the sockets had buffered, then the end — never DataEnd.
	time.Sleep(time.Until(start.Add(budget + 300*time.Millisecond)))
	dropped := make(chan error, stalled)
	for _, c := range conns {
		go func(c *wire.Conn) {
			for {
				typ, _, err := c.ReadMsg()
				if err == nil && typ == wire.MsgDataEnd {
					err = errors.New("stalled stream was completed")
				}
				if err != nil {
					dropped <- err
					return
				}
			}
		}(c)
	}
	for i := 0; i < stalled; i++ {
		select {
		case err := <-dropped:
			if !resilience.Transport(err) {
				t.Errorf("stalled client: %v, want a dropped connection", err)
			}
		case <-time.After(budget + 10*time.Second):
			t.Fatal("a stalled client was still connected long after its budget ran out")
		}
	}
	if got, err := cl.Get("/home/small"); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("proxied get after the stalled ones were dropped: %v", err)
	}
	if st := z.s1.PeerPoolStats(); st.Idle != st.Conns {
		t.Errorf("peer pool after the aborts = %+v, want every remaining conn idle", st)
	}
}

// TestReadRangeRejectsNegativeOffset: an offset before the start is a
// malformed request, not an empty range.
func TestReadRangeRejectsNegativeOffset(t *testing.T) {
	_, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	cl := dialT(t, addr)
	if _, err := cl.Put("/home/r", []byte("0123456789"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetRange("/home/r", -1, 4); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("GetRange at offset -1 = %v, want invalid", err)
	}
	if got, err := cl.GetRange("/home/r", 10, 4); err != nil || len(got) != 0 {
		t.Errorf("GetRange at the end = %q, %v; want empty", got, err)
	}
	if got, err := cl.GetRange("/home/r", 8, 4); err != nil || string(got) != "89" {
		t.Errorf("GetRange across the end = %q, %v; want \"89\"", got, err)
	}
}
