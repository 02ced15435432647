// Batch-op semantics over the wire: per-item failure isolation, order
// preservation, and the manifest/stream consistency check that keeps a
// bulk ingest from tearing rows.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/resilience"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestBulkPutPartialFailure: items in one bulk ingest succeed and fail
// independently — a bad item neither blocks its batch-mates nor leaves
// a torn catalog row of its own.
func TestBulkPutPartialFailure(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	res, err := cl.BulkPut([]client.BulkPut{
		{Path: "/home/a.txt", Data: []byte("alpha"), Opts: client.PutOpts{Resource: "disk1"}},
		{Path: "/home/b.txt", Data: []byte("beta"), Opts: client.PutOpts{Resource: "nosuchdisk"}},
		{Path: "/home/c.txt", Data: []byte("gamma"), Opts: client.PutOpts{Resource: "disk1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d item statuses, want 3", len(res))
	}
	if !res[0].OK || !res[2].OK {
		t.Fatalf("healthy items failed alongside a bad one: %+v", res)
	}
	if res[1].OK {
		t.Fatal("ingest to a nonexistent resource reported success")
	}
	if res[1].ErrKind == "" || res[1].ErrMsg == "" {
		t.Fatalf("failed item carries no named error: %+v", res[1])
	}
	// Batch-mates landed whole; the failed item left nothing behind.
	for p, want := range map[string]string{"/home/a.txt": "alpha", "/home/c.txt": "gamma"} {
		data, err := cl.Get(p)
		if err != nil || string(data) != want {
			t.Fatalf("get %s = %q, %v; want %q", p, data, err, want)
		}
	}
	if _, err := cl.Stat("/home/b.txt"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("failed bulk item left a catalog row (stat err = %v)", err)
	}
}

// TestBulkPutManifestMismatch: a manifest whose declared sizes do not
// sum to the stream length must fail the whole batch before any item
// is ingested — a misaligned stream would write wrong bytes to every
// item after the misalignment.
func TestBulkPutManifestMismatch(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")

	args := mustArgs(t, wire.BulkPutArgs{Items: []wire.BulkPutItem{
		{Path: "/home/short.txt", Resource: "disk1", Size: 10}, // stream carries 4
	}})
	if err := c.WriteRequest(&wire.Request{ID: 1, Op: wire.OpBulkPut, Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(bytes.NewReader([]byte("oops"))); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := readResp(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("mismatched manifest accepted")
	}
	if err := resp.Err(); !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("mismatch error = %v, want invalid", err)
	}
	// Nothing was ingested.
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Stat("/home/short.txt"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("rejected batch still ingested an item (stat err = %v)", err)
	}
}

// TestBulkPutNegativeSizeRejected: a manifest declaring a negative item
// size is invalid outright.
func TestBulkPutNegativeSizeRejected(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")

	args := mustArgs(t, wire.BulkPutArgs{Items: []wire.BulkPutItem{
		{Path: "/home/neg.txt", Resource: "disk1", Size: -1},
	}})
	if err := c.WriteRequest(&wire.Request{ID: 1, Op: wire.OpBulkPut, Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := readResp(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("negative manifest size accepted")
	}
	if err := resp.Err(); !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("negative-size error = %v, want invalid", err)
	}
}

// TestMultiGetOrderAndPartial: results come back in request order even
// when the storage layout interleaves them, and a missing path yields a
// named per-item error without disturbing its neighbours.
func TestMultiGetOrderAndPartial(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	bodies := map[string]string{
		"/home/x.txt": "xray", "/home/y.txt": "yankee", "/home/z.txt": "zulu",
	}
	for p, body := range bodies {
		if _, err := cl.Put(p, []byte(body), client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
	}
	// Request order deliberately differs from ingest order and holes a
	// missing path in the middle.
	paths := []string{"/home/z.txt", "/home/missing.txt", "/home/x.txt", "/home/y.txt"}
	res, err := cl.MultiGet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(res), len(paths))
	}
	for i, p := range paths {
		if res[i].Path != p {
			t.Fatalf("result[%d] is %s, want %s (order not preserved)", i, res[i].Path, p)
		}
	}
	if got := string(res[0].Data); got != "zulu" || res[0].Err != nil {
		t.Fatalf("res[0] = %q, %v", got, res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("missing path returned no error")
	}
	if !errors.Is(res[1].Err, types.ErrNotFound) {
		t.Fatalf("missing-path error = %v, want noent", res[1].Err)
	}
	if got := string(res[2].Data); got != "xray" || res[2].Err != nil {
		t.Fatalf("res[2] = %q, %v", got, res[2].Err)
	}
	if got := string(res[3].Data); got != "yankee" || res[3].Err != nil {
		t.Fatalf("res[3] = %q, %v", got, res[3].Err)
	}
}

// peerCalls is how many calls srb1 has made to srb2.
func peerCalls(z *zone) int64 {
	for _, st := range z.b1.Metrics().Peers().Snapshot() {
		if st.Peer == "srb2" {
			return st.Ops
		}
	}
	return 0
}

// body is item i's distinct contents; the lengths differ, so an item
// framed at a neighbour's offset cannot pass for itself.
func body(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 100+37*i)
}

// TestMultiGetFederated: a batch that alternates local items (srb1's
// disk1) with remote ones (srb2's disk2) comes back in request order,
// byte for byte, with each failure named per item — and its remote items
// cost srb1 exactly one call to srb2, however many there are.
func TestMultiGetFederated(t *testing.T) {
	z := newZone(t, Proxy)
	const missingLocal, missingRemote, unreadable = 14, 13, 15
	z.cat.MkColl("/priv", "admin")
	paths := make([]string, 16)
	for i := range paths {
		b, res, user := z.b1, "disk1", "alice"
		if i%2 == 1 {
			b, res = z.b2, "disk2"
		}
		paths[i] = fmt.Sprintf("/home/item%02d", i)
		switch i {
		case missingLocal:
			continue
		case unreadable:
			paths[i], user = "/priv/secret", "admin"
		}
		o, err := b.Ingest(user, core.IngestOpts{Path: paths[i], Data: body(i), Resource: res})
		if err != nil {
			t.Fatal(err)
		}
		if i == missingRemote {
			// The catalog says srb2 holds it; srb2's vault has lost it.
			d2, _ := z.b2.Driver("disk2")
			if err := d2.Remove(o.Replicas[0].PhysicalPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl := z.client(z.addr1, "alice", "alicepw")
	before := peerCalls(z)
	res, err := cl.MultiGet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if n := peerCalls(z) - before; n != 1 {
		t.Errorf("srb1 called srb2 %d times for one batch, want 1", n)
	}
	if len(res) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(res), len(paths))
	}
	for i, r := range res {
		var want error
		switch i {
		case missingLocal, missingRemote:
			want = types.ErrNotFound
		case unreadable:
			want = types.ErrPermission
		}
		switch {
		case r.Path != paths[i]:
			t.Errorf("result %d is %s, want %s", i, r.Path, paths[i])
		case want != nil && !errors.Is(r.Err, want):
			t.Errorf("%s: err = %v, want %v", r.Path, r.Err, want)
		case want == nil && (r.Err != nil || !bytes.Equal(r.Data, body(i))):
			t.Errorf("%s: %d bytes, %v; want its %d bytes", r.Path, len(r.Data), r.Err, len(body(i)))
		}
	}
}

// openBarrier holds every driver Open until want of them have begun, or
// fails them when that takes longer than any healthy run needs.
type openBarrier struct {
	n    atomic.Int32
	want int32
	all  chan struct{}
}

func (b *openBarrier) wait() error {
	if b.n.Add(1) == b.want {
		close(b.all)
	}
	select {
	case <-b.all:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("barrier: the other owner was never asked")
	}
}

// barrierDriver is a driver whose Open waits at a barrier.
type barrierDriver struct {
	stg.Driver
	b *openBarrier
}

func (d barrierDriver) Open(path string) (stg.ReadFile, error) {
	if err := d.b.wait(); err != nil {
		return nil, err
	}
	return d.Driver.Open(path)
}

// TestMultiGetOwnersConcurrent: a batch naming items on two peers asks
// both at once. Each peer's driver holds its Open until the other's has
// begun too, so the batch completes only if neither owner waits for the
// other.
func TestMultiGetOwnersConcurrent(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)
	authn := auth.New()
	authn.Register("alice", "alicepw")
	gate := &openBarrier{want: 2, all: make(chan struct{})}
	names := []string{"srb1", "srb2", "srb3"}
	servers := make([]*Server, len(names))
	addrs := make([]string, len(names))
	for i, name := range names {
		b := core.New(cat, name)
		var d stg.Driver = memfs.New()
		if i > 0 {
			d = barrierDriver{Driver: d, b: gate}
		}
		if err := b.AddPhysicalResource("admin", "disk"+name[3:], types.ClassFileSystem, "memfs", d); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Ingest("alice", core.IngestOpts{Path: "/home/on" + name, Data: body(i), Resource: "disk" + name[3:]}); err != nil {
			t.Fatal(err)
		}
		servers[i] = New(b, authn, Proxy)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(func() { servers[i].Close() })
	}
	for i, s := range servers {
		for j, name := range names {
			if i != j {
				s.AddPeer(name, addrs[j], zoneSecret)
			}
		}
	}
	cl, err := client.Dial(addrs[0], "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.MultiGet([]string{"/home/onsrb2", "/home/onsrb1", "/home/onsrb3"})
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range []int{1, 0, 2} {
		if r := res[k]; r.Err != nil || !bytes.Equal(r.Data, body(i)) {
			t.Errorf("%s: %d bytes, %v; want its %d bytes", r.Path, len(r.Data), r.Err, len(body(i)))
		}
	}
}

// shortDriver is a driver whose files read back 3 bytes shorter than
// they were written.
type shortDriver struct{ stg.Driver }

type shortFile struct {
	stg.ReadFile
	left int64
}

func (d shortDriver) Open(path string) (stg.ReadFile, error) {
	f, err := d.Driver.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := stg.SizeOf(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &shortFile{ReadFile: f, left: size - 3}, nil
}

func (f *shortFile) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.ReadFile.Read(p)
	f.left -= int64(n)
	return n, err
}

// TestMultiGetShortItemAborts: the stream of a batch is framed by sizes
// announced before its bytes are read. A local item whose driver yields
// less than its catalog size fails the batch outright, rather than let
// the items after it slide into its place. A peer that dies mid-batch
// fails its own items and no others.
func TestMultiGetShortItemAborts(t *testing.T) {
	b, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New(), "short": shortDriver{memfs.New()}}, nil, "")
	for i, res := range []string{"disk1", "short", "disk1"} {
		if _, err := b.Ingest("alice", core.IngestOpts{Path: fmt.Sprintf("/home/s%d", i), Data: body(i), Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	cl := dialT(t, addr)
	cl.SetRetryPolicy(resilience.Policy{MaxAttempts: 1})
	if res, err := cl.MultiGet([]string{"/home/s0", "/home/s1", "/home/s2"}); err == nil {
		t.Errorf("multiget over a short item = %d results, no error; want the batch to fail", len(res))
	}
	if n := b.Metrics().Counter("server.stream.aborted").Value(); n != 1 {
		t.Errorf("server.stream.aborted = %d, want 1", n)
	}

	z := newZone(t, Proxy)
	inj := faultnet.New(1)
	z.s1.SetPeerDialer(inj.WrapDial("peer", func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, 5*time.Second)
	}))
	z.s1.sleep = func(time.Duration) {}
	var paths []string
	for i := 0; i < 6; i++ {
		b, res, data := z.b1, "disk1", body(i)
		if i%2 == 1 {
			// Remote items span several data frames, so the peer dies
			// inside the stream.
			b, res, data = z.b2, "disk2", bytes.Repeat(data, wire.DataChunk/len(data)+1)
		}
		paths = append(paths, fmt.Sprintf("/home/k%d", i))
		if _, err := b.Ingest("alice", core.IngestOpts{Path: paths[i], Data: data, Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	cl = z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.MultiGet(paths); err != nil { // warms the peer pool
		t.Fatal(err)
	}
	// The link dies a chunk into srb2's reply, and every reconnect dies
	// at its first byte.
	inj.Target("peer").DropAfterBytes(wire.DataChunk)
	res, err := cl.MultiGet(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i%2 == 1 {
			if r.Err == nil {
				t.Errorf("%s: remote item through a dead peer returned %d bytes and no error", r.Path, len(r.Data))
			}
		} else if r.Err != nil || !bytes.Equal(r.Data, body(i)) {
			t.Errorf("%s: local item beside a dead peer = %d bytes, %v; want its %d bytes", r.Path, len(r.Data), r.Err, len(body(i)))
		}
	}
}

// fakeOwner plays the server side of a peer connection by hand, as
// rawAuth plays the client side: it challenges, accepts any answer,
// then hands each request it reads to answer until the conn closes.
func fakeOwner(nc net.Conn, answer func(c *wire.Conn, req *wire.Request) error) {
	defer nc.Close()
	c := wire.NewConn(nc)
	var a wire.Auth
	if c.WriteJSON(wire.MsgChallenge, wire.Challenge{Server: "srb2", Nonce: "nonce"}) != nil ||
		c.ReadJSON(wire.MsgAuth, &a) != nil ||
		c.WriteJSON(wire.MsgAuthOK, wire.AuthOK{Server: "srb2"}) != nil {
		return
	}
	for {
		var req wire.Request
		if _, err := c.ReadRequest(&req); err != nil || answer(c, &req) != nil {
			return
		}
	}
}

// TestMultiGetOwnerManifestCannotPresize: an owner that announces 1 GiB
// and sends 16 bytes fails its own items as invalid and buys nothing
// with the announcement: the local items beside it come back whole, and
// srb1 allocates nowhere near the announced size.
func TestMultiGetOwnerManifestCannotPresize(t *testing.T) {
	z := newZone(t, Proxy)
	var paths []string
	for i := 0; i < 4; i++ {
		b, res := z.b1, "disk1"
		if i%2 == 1 {
			b, res = z.b2, "disk2"
		}
		paths = append(paths, fmt.Sprintf("/home/p%d", i))
		if _, err := b.Ingest("alice", core.IngestOpts{Path: paths[i], Data: body(i), Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	z.s1.SetPeerDialer(func(string) (net.Conn, error) {
		srv, cli := net.Pipe()
		t.Cleanup(func() { srv.Close() })
		go fakeOwner(srv, func(c *wire.Conn, req *wire.Request) error {
			var a wire.MultiGetArgs
			if err := wire.DecodeBody(req.Args, &a); err != nil {
				return err
			}
			rep := wire.MultiGetReply{Server: "srb2"}
			for _, p := range a.Paths {
				rep.Items = append(rep.Items, wire.MultiGetItem{Path: p, OK: true, Size: (1 << 30) / int64(len(a.Paths))})
			}
			manifest, err := wire.AppendBody(nil, &rep)
			if err == nil {
				err = c.WriteResponse(&wire.Response{ID: req.ID, OK: true, Body: manifest, DataFollows: true})
			}
			if err == nil {
				err = c.WriteMsg(wire.MsgData, make([]byte, 16))
			}
			if err == nil {
				err = c.WriteMsg(wire.MsgDataEnd, nil)
			}
			return err
		})
		return cli, nil
	})
	cl := z.client(z.addr1, "alice", "alicepw")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := cl.MultiGet(paths)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i%2 == 1 {
			if !errors.Is(r.Err, types.ErrInvalid) {
				t.Errorf("%s: item of a lying owner = %d bytes, %v; want invalid", r.Path, len(r.Data), r.Err)
			}
		} else if r.Err != nil || !bytes.Equal(r.Data, body(i)) {
			t.Errorf("%s: local item beside a lying owner = %d bytes, %v; want its %d bytes", r.Path, len(r.Data), r.Err, len(body(i)))
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("a 1 GiB manifest over 16 bytes cost %d bytes of allocation, want < 16 MiB", grew)
	}
}

// TestMultiGetRetryAfterMidStreamDrop: the first connection to the owner
// drops a chunk into its reply and the retry on a fresh one succeeds.
// Every item comes back byte-exact, so the abandoned attempt's spool
// neither leaked into the reply nor was handed back to the pool for
// another request to overwrite (run it under -race).
func TestMultiGetRetryAfterMidStreamDrop(t *testing.T) {
	z := newZone(t, Proxy)
	inj := faultnet.New(1)
	inj.Target("peer").DropAfterBytes(wire.DataChunk)
	dial := func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 5*time.Second) }
	flaky := inj.WrapDial("peer", dial)
	var dials atomic.Int64
	z.s1.SetPeerDialer(func(a string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return flaky(a)
		}
		return dial(a)
	})
	z.s1.SetRetryPolicy(resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	z.s1.sleep = func(time.Duration) {}
	var paths []string
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		b, res, data := z.b1, "disk1", body(i)
		if i%2 == 1 {
			// Remote items span several data frames, so the link drops
			// inside the owner's stream.
			b, res, data = z.b2, "disk2", bytes.Repeat(data, wire.DataChunk/len(data)+1)
		}
		paths = append(paths, fmt.Sprintf("/home/r%d", i))
		want[paths[i]] = data
		if _, err := b.Ingest("alice", core.IngestOpts{Path: paths[i], Data: data, Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	cl := z.client(z.addr1, "alice", "alicepw")
	res, err := cl.MultiGet(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil || !bytes.Equal(r.Data, want[r.Path]) {
			t.Errorf("%s: %d bytes, %v; want its %d bytes", r.Path, len(r.Data), r.Err, len(want[r.Path]))
		}
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("srb1 dialed srb2 %d times, want 2 (the dropped link and its replacement)", n)
	}
	if got := z.b1.Metrics().Counter("federation.retries").Value(); got != 1 {
		t.Errorf("federation.retries = %d, want 1", got)
	}
}

// TestBulkStatMixed: stats preserve request order and fail per item.
func TestBulkStatMixed(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	if _, err := cl.Put("/home/here.txt", []byte("present"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	items, err := cl.BulkStat([]string{"/home/missing.txt", "/home/here.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if items[0].OK || !errors.Is(items[0].Err(), types.ErrNotFound) {
		t.Fatalf("missing stat = %+v, want noent", items[0])
	}
	if !items[1].OK || items[1].Stat.Size != int64(len("present")) {
		t.Fatalf("present stat = %+v, want size %d", items[1], len("present"))
	}
}
