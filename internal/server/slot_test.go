package server

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
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
