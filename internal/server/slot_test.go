package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// dialMux opens one authenticated, multiplexed connection as alice.
func dialMux(t *testing.T, addr string) *wire.Mux {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Handshake(nc, wire.Auth{User: "alice"}, auth.DeriveKey("alice", "alicepw"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestSequentialRequestsShareOneSlot: a connection that never has two
// requests in flight makes one slot and serves every request from it.
func TestSequentialRequestsShareOneSlot(t *testing.T) {
	_, s, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	m := dialMux(t, addr)
	args := mustArgs(t, wire.PathArgs{Path: "/home"})
	for i := 0; i < 1000; i++ {
		res, err := m.Call(&wire.Request{Op: wire.OpStat, Args: args}, nil, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
		var st types.Stat
		if err := res.Check(wire.OpStat, false); err != nil || wire.DecodeBody(res.Resp.Body, &st) != nil || !st.IsCollect {
			t.Fatalf("stat %d = %+v, %v", i, st, err)
		}
		res.Release()
	}
	if n := s.slotsMade.Load(); n != 1 {
		t.Errorf("1000 sequential requests made %d slots, want 1", n)
	}
}

// gateDriver holds every Open until release is closed, and signals each
// Open that waits on opened.
type gateDriver struct {
	stg.Driver
	opened  chan struct{}
	release chan struct{}
}

func (d *gateDriver) Open(path string) (stg.ReadFile, error) {
	d.opened <- struct{}{}
	<-d.release
	return d.Driver.Open(path)
}

// TestConcurrentCallsNeverPassThePipelineBound: 200 gets on one
// connection, each held in its driver, fill maxPipelined slots and no
// more; the reader reads nothing further until a slot frees. Once the
// connection is closed every slot goroutine exits.
func TestConcurrentCallsNeverPassThePipelineBound(t *testing.T) {
	const calls = 200
	gate := &gateDriver{Driver: memfs.New(), opened: make(chan struct{}, calls), release: make(chan struct{})}
	_, s, addr := bootOne(t, map[string]stg.Driver{"d1": gate}, nil, "")
	baseline := runtime.NumGoroutine()
	cl := dialT(t, addr)
	if _, err := cl.Put("/home/x", []byte("hello"), client.PutOpts{Resource: "d1"}); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	made := s.slotsMade.Load()

	m := dialMux(t, addr)
	args := mustArgs(t, wire.PathArgs{Path: "/home/x"})
	errs := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := m.Call(&wire.Request{Op: wire.OpGet, Args: args}, nil, time.Now().Add(10*time.Second))
			if err == nil {
				if err = res.Check(wire.OpGet, true); err == nil && !bytes.Equal(res.Data, []byte("hello")) {
					err = errors.New("get returned " + string(res.Data))
				}
				res.Release()
			}
			errs <- err
		}()
	}
	for i := 0; i < maxPipelined; i++ {
		select {
		case <-gate.opened:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d gets reached the driver, want %d", i, maxPipelined)
		}
	}
	// Every slot is held: a request beyond them waits in the reader.
	select {
	case <-gate.opened:
		t.Fatalf("a get beyond the %d slots reached the driver", maxPipelined)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.slotsMade.Load() - made; n != maxPipelined {
		t.Errorf("%d concurrent calls made %d slots, want %d", calls, n, maxPipelined)
	}
	m.Close()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Errorf("%d goroutines after the connection closed, %d before it opened", n, baseline)
	}
}

// recordConn is a client connection that keeps every byte written to it.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *recordConn) written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Len()
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recordConn) Close() error                     { return nil }

// testSession is a session on a recorded client connection, as a slot
// holds it with request 7 in it.
func testSession() (*session, *recordConn) {
	nc := &recordConn{}
	ss := &session{user: "alice", remote: "client", w: &connWriter{c: wire.NewConn(nc), nc: nc}}
	ss.reqID = 7
	return ss, nc
}

// TestLateRelayWriteReachesNothing: a proxied get whose peer call gave
// up can leave one sink call behind (wire.Sink), and it may arrive after
// federate has answered the client and the session has gone back to its
// slot. The relay is sealed by then, so the call fails and not one byte
// reaches the client's connection.
func TestLateRelayWriteReachesNothing(t *testing.T) {
	ss, nc := testSession()
	rl := &relay{ss: ss}
	// federate, after the peer call returned with its error.
	rl.seal()
	rl.mu.Unlock()
	ss.reset()
	if _, err := rl.Begin(&wire.Response{OK: true, DataFollows: true}); !errors.Is(err, errRelaySealed) {
		t.Errorf("Begin on a sealed relay = %v, want errRelaySealed", err)
	}
	if n, err := rl.Write([]byte("late bytes")); n != 0 || !errors.Is(err, errRelaySealed) {
		t.Errorf("Write on a sealed relay = %d, %v; want 0, errRelaySealed", n, err)
	}
	if n := nc.written(); n != 0 {
		t.Errorf("a late relay write put %d bytes on the client connection", n)
	}
}

// TestSlotKeepsNoLargeReply: a 5 000-entry listing and a 5 000-hit
// query each return every entry over loopback. Served through a slot's
// session by the same handlers, each is built in the slot's buffers and
// encoded whole, and afterwards the slot keeps no buffer over maxKept
// bytes; a 200-entry one is kept, its rows cleared, for the slot's next
// request (except under the frame canary, which keeps nothing).
func TestSlotKeepsNoLargeReply(t *testing.T) {
	b, s, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	for _, c := range []struct {
		coll string
		n    int
	}{{"/home/big", 5000}, {"/home/small", 200}} {
		if err := b.Mkdir("alice", c.coll); err != nil {
			t.Fatal(err)
		}
		meta := []types.AVU{{Name: "set", Value: c.coll}}
		for i := 0; i < c.n; i++ {
			if _, err := b.Ingest("alice", core.IngestOpts{Path: fmt.Sprintf("%s/o%04d", c.coll, i), Data: []byte("x"), Resource: "d1", Meta: meta}); err != nil {
				t.Fatal(err)
			}
		}
	}
	queryOf := func(coll string) mcat.Query {
		return mcat.Query{Scope: coll, Conds: []mcat.Condition{{Attr: "set", Op: "=", Value: coll}}, Select: []string{"set"}}
	}

	cl := dialT(t, addr)
	if st, err := cl.List("/home/big"); err != nil || len(st) != 5000 || st[4999].Path != "/home/big/o4999" {
		t.Fatalf("List of 5000 = %d entries, %v", len(st), err)
	}
	if hits, err := cl.Query(queryOf("/home/big")); err != nil || len(hits) != 5000 || hits[4999].Values[0][0] != "/home/big" {
		t.Fatalf("Query for 5000 hits = %d hits, %v", len(hits), err)
	}

	ss := &session{user: "alice", remote: "test"}
	// serve dispatches one request on the slot's session and returns a
	// copy of the body it staged.
	serve := func(op string, args any) []byte {
		t.Helper()
		ss.req, ss.reqID = wire.Request{Op: op, Args: mustArgs(t, args)}, 1
		if err := s.dispatchOp(ss, &ss.req); err != nil || !ss.staged.OK {
			t.Fatalf("%s: %v, %s", op, err, ss.staged.ErrMsg)
		}
		body := slices.Clone(ss.staged.Body)
		ss.releaseFrame()
		ss.reset()
		return body
	}
	for _, c := range []struct {
		coll string
		n    int
		kept bool
	}{{"/home/small", 200, true}, {"/home/big", 5000, false}, {"/home/small", 200, true}} {
		var st []types.Stat
		var r wire.QueryReply
		if err := wire.DecodeBody(serve(wire.OpList, wire.PathArgs{Path: c.coll}), &st); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeBody(serve(wire.OpQuery, wire.QueryArgs{Q: queryOf(c.coll)}), &r); err != nil {
			t.Fatal(err)
		}
		if len(st) != c.n || len(r.Hits) != c.n || st[c.n-1].Path != fmt.Sprintf("%s/o%04d", c.coll, c.n-1) || r.Hits[c.n-1].Values[0][0] != c.coll {
			t.Fatalf("%s through a slot: %d entries, %d hits; want %d of each", c.coll, len(st), len(r.Hits), c.n)
		}
		held := map[string]int{"listing": bytesHeld(ss.stats), "hits": bytesHeld(ss.ans.Hits), "columns": bytesHeld(ss.ans.Cols), "values": bytesHeld(ss.ans.Vals)}
		for name, size := range held {
			if size > maxKept {
				t.Errorf("after %s: the slot keeps a %d-byte %s buffer, over %d", c.coll, size, name, maxKept)
			}
			if kept := size > 0; kept != (c.kept && lend.Recycle()) {
				t.Errorf("after %s: %s buffer kept %v (%d bytes)", c.coll, name, kept, size)
			}
		}
		if slices.ContainsFunc(ss.stats[:cap(ss.stats)], func(s types.Stat) bool { return s != types.Stat{} }) ||
			slices.ContainsFunc(ss.ans.Hits[:cap(ss.ans.Hits)], func(h mcat.Hit) bool { return h.Path != "" || h.Values != nil }) ||
			slices.ContainsFunc(ss.ans.Cols[:cap(ss.ans.Cols)], func(c []string) bool { return c != nil }) ||
			slices.ContainsFunc(ss.ans.Vals[:cap(ss.ans.Vals)], func(v string) bool { return v != "" }) {
			t.Errorf("after %s: the slot's buffers still hold rows", c.coll)
		}
	}
}

// bytesHeld is the memory b's array holds.
func bytesHeld[T any](b []T) int { return cap(b) * int(reflect.TypeFor[T]().Size()) }
