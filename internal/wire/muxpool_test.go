// Race suite for the Mux demultiplexer and the connection Pool: the
// invariants that only show up under concurrency — out-of-order
// response matching, timeout abandonment, checkout/checkin storms, and
// recovery when the transport is killed mid-flight. Run under -race (make test-wire loops it 10x).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/faultnet"
	"gosrb/internal/types"
)

// muxPair builds a connected Mux (client side) and a raw server-side
// Conn for the test to script responses on.
func muxPair(t *testing.T) (*Mux, *Conn, net.Conn) {
	t.Helper()
	client, server := net.Pipe()
	m := NewMux(client, NewConn(client), "testsrv")
	t.Cleanup(func() {
		m.Close()
		server.Close()
	})
	return m, NewConn(server), server
}

func echoBody(op string) json.RawMessage {
	b, _ := json.Marshal(op)
	return b
}

// TestMuxOutOfOrderDemux answers a burst of concurrent calls in reverse
// arrival order; every caller must still get its own response.
func TestMuxOutOfOrderDemux(t *testing.T) {
	m, sc, _ := muxPair(t)
	const n = 8
	go func() {
		reqs := make([]Request, 0, n)
		for i := 0; i < n; i++ {
			var req Request
			if _, err := sc.ReadRequest(&req); err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			sc.WriteResponse(&Response{ID: reqs[i].ID, OK: true, Body: echoBody(reqs[i].Op)})
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := fmt.Sprintf("op%d", i)
			res, err := m.Call(&Request{Op: op}, nil, time.Now().Add(5*time.Second))
			if err != nil {
				errs <- fmt.Errorf("call %s: %w", op, err)
				return
			}
			var got string
			json.Unmarshal(res.Resp.Body, &got)
			if got != op {
				errs <- fmt.Errorf("call %s answered with %s", op, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxTimeoutAbandons: a timed-out call abandons just that call — the
// conn survives, a later call works, and the late response is discarded
// by ID.
func TestMuxTimeoutAbandons(t *testing.T) {
	m, sc, _ := muxPair(t)
	var stale Request
	served := make(chan struct{})
	go func() {
		sc.ReadRequest(&stale) // swallow: let it time out
		var req Request
		if _, err := sc.ReadRequest(&req); err != nil {
			return
		}
		sc.WriteResponse(&Response{ID: req.ID, OK: true, Body: echoBody(req.Op)})
		// The abandoned call's response arrives late; the demux loop
		// must drop it silently.
		sc.WriteResponse(&Response{ID: stale.ID, OK: true, Body: echoBody(stale.Op)})
		close(served)
	}()
	_, err := m.Call(&Request{Op: "slow"}, nil, time.Now().Add(30*time.Millisecond))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !errors.Is(err, types.ErrTimeout) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("timeout error %v must match both types.ErrTimeout and os.ErrDeadlineExceeded", err)
	}
	if m.Dead() {
		t.Fatal("a call timeout killed the connection")
	}
	res, err := m.Call(&Request{Op: "next"}, nil, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatalf("call after abandoned timeout: %v", err)
	}
	var got string
	json.Unmarshal(res.Resp.Body, &got)
	if got != "next" {
		t.Fatalf("late stale response leaked into a new call: got %q", got)
	}
	<-served
	if m.Dead() {
		t.Fatal("discarding a late response killed the connection")
	}
}

// TestMuxDataStreams interleaves two data-carrying responses out of
// order; each caller must get its own bytes.
func TestMuxDataStreams(t *testing.T) {
	m, sc, _ := muxPair(t)
	go func() {
		var a, b Request
		if _, err := sc.ReadRequest(&a); err != nil {
			return
		}
		if _, err := sc.ReadRequest(&b); err != nil {
			return
		}
		for _, req := range []Request{b, a} { // reversed
			sc.WriteResponse(&Response{ID: req.ID, OK: true, DataFollows: true})
			sc.SendData(bytes2reader("payload-" + req.Op))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, op := range []string{"x", "y"} {
		wg.Add(1)
		go func(op string) {
			defer wg.Done()
			res, err := m.Call(&Request{Op: op}, nil, time.Now().Add(5*time.Second))
			if err != nil {
				errs <- err
				return
			}
			if got := string(res.Data); got != "payload-"+op {
				errs <- fmt.Errorf("call %s got data %q", op, got)
			}
		}(op)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func bytes2reader(s string) io.Reader { return &onceReader{s: s} }

type onceReader struct {
	s    string
	done bool
}

func (r *onceReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.EOF
	}
	r.done = true
	return copy(p, r.s), nil
}

// startEchoServer serves the mux protocol on one net.Conn:
// every request gets a response echoing its op, IDs echoed.
func startEchoServer(nc net.Conn) {
	go func() {
		c := NewConn(nc)
		var wmu sync.Mutex
		for {
			var req Request
			if _, err := c.ReadRequest(&req); err != nil {
				return
			}
			go func(req Request) {
				wmu.Lock()
				defer wmu.Unlock()
				c.WriteResponse(&Response{ID: req.ID, OK: true, Body: echoBody(req.Op)})
			}(req)
		}
	}()
}

// pipeDialer returns a Pool dial function backed by net.Pipe echo
// servers, plus a counter of dials performed.
func pipeDialer(wrap func(net.Conn) net.Conn) (func(string) (*Mux, error), *atomic.Int64) {
	var dials atomic.Int64
	dial := func(addr string) (*Mux, error) {
		client, server := net.Pipe()
		startEchoServer(server)
		dials.Add(1)
		nc := net.Conn(client)
		if wrap != nil {
			nc = wrap(nc)
		}
		return NewMux(nc, NewConn(nc), addr), nil
	}
	return dial, &dials
}

// TestPoolConcurrentCheckout storms Get/Call/Put (with sprinkled evictions)
// from many goroutines: no deadlock, no cross-matched responses, and
// the pool never exceeds its conn bound.
func TestPoolConcurrentCheckout(t *testing.T) {
	dial, _ := pipeDialer(nil)
	p := NewPool(PoolConfig{Dial: dial, MaxConns: 3, MaxInflight: 2})
	defer p.Close()
	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Now and then a conn is evicted healthy: closed and checked
				// in. Closing it must break no one else's call, so that
				// checkout leases its conn alone.
				evict := (w+i)%13 == 0
				get := p.Get
				if evict {
					get = p.GetExclusive
				}
				m, err := get("addr")
				if err != nil {
					errs <- err
					return
				}
				op := fmt.Sprintf("w%d-i%d", w, i)
				res, err := m.Call(&Request{Op: op}, nil, time.Now().Add(5*time.Second))
				if err != nil {
					errs <- fmt.Errorf("%s: %w", op, err)
					m.Close()
					p.Put(m)
					continue
				}
				var got string
				json.Unmarshal(res.Resp.Body, &got)
				if got != op {
					errs <- fmt.Errorf("%s cross-matched to %s", op, got)
				}
				if evict {
					m.Close()
				}
				p.Put(m)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := p.Stats(); st.Conns > 3 {
		t.Fatalf("pool holds %d conns, bound is 3", st.Conns)
	}
}

// TestPoolSharesThenDials: an idle pooled conn is reused; a conn at its
// in-flight preference triggers a fresh dial while capacity remains.
func TestPoolSharesThenDials(t *testing.T) {
	release := make(chan struct{})
	var dials atomic.Int64
	dial := func(addr string) (*Mux, error) {
		client, server := net.Pipe()
		dials.Add(1)
		go func() {
			c := NewConn(server)
			for {
				var req Request
				if _, err := c.ReadRequest(&req); err != nil {
					return
				}
				go func(req Request) {
					<-release // stall until the test releases
					c.WriteResponse(&Response{ID: req.ID, OK: true, Body: echoBody(req.Op)})
				}(req)
			}
		}()
		return NewMux(client, NewConn(client), addr), nil
	}
	p := NewPool(PoolConfig{Dial: dial, MaxConns: 2, MaxInflight: 1})
	defer p.Close()

	m1, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m1.Call(&Request{Op: "block"}, nil, time.Now().Add(5*time.Second))
		done <- err
	}()
	// Wait for the call to be in flight on m1.
	for i := 0; m1.InFlight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if m1.InFlight() == 0 {
		t.Fatal("call never went in flight")
	}
	// m1 is at its in-flight preference: the next checkout should dial.
	m2, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 {
		t.Fatal("checkout shared a saturated conn with spare capacity")
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	p.Put(m1)
	p.Put(m2)
	// Both conns idle now: another checkout reuses, no third dial.
	m3, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m3)
	if got := dials.Load(); got != 2 {
		t.Fatalf("idle pool dialed again (%d dials)", got)
	}
}

// TestPoolIdleReap: a conn idle past IdleAfter is reaped on the next
// sweep, driven by an injected clock.
func TestPoolIdleReap(t *testing.T) {
	dial, _ := pipeDialer(nil)
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	p := NewPool(PoolConfig{Dial: dial, IdleAfter: time.Minute, Now: clock})
	defer p.Close()
	m, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(&Request{Op: "ping"}, nil, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	p.Put(m)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	p.Reap()
	st := p.Stats()
	if st.Reaped != 1 || st.Conns != 0 {
		t.Fatalf("stats after idle sweep = %+v, want 1 reaped / 0 conns", st)
	}
}

// TestPoolRecoversFromKilledTransport kills the transport under a
// seeded fault injector mid-storm: calls fail with transport-classed
// errors, dead conns are evicted, and after Revive the pool dials fresh
// and serves again.
func TestPoolRecoversFromKilledTransport(t *testing.T) {
	inj := faultnet.New(42)
	target := inj.Target("peer.echo")
	dial, _ := pipeDialer(func(nc net.Conn) net.Conn { return inj.WrapConn("peer.echo", nc) })
	p := NewPool(PoolConfig{Dial: dial, MaxConns: 2})
	defer p.Close()

	m, err := p.Get("addr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(&Request{Op: "warm"}, nil, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	p.Put(m)

	target.Kill()
	// Every call during the outage must fail with a transport-shaped
	// error and get its conn evicted — no silent successes, no hangs.
	sawFailure := false
	for i := 0; i < 4; i++ {
		m, err := p.Get("addr")
		if err != nil {
			sawFailure = true
			continue
		}
		_, err = m.Call(&Request{Op: "down"}, nil, time.Now().Add(2*time.Second))
		if err == nil {
			t.Fatal("call succeeded through a killed transport")
		}
		sawFailure = true
		transportShaped := errors.Is(err, types.ErrOffline) ||
			errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
			errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, faultnet.ErrInjected)
		if !transportShaped {
			t.Fatalf("outage error %v is not transport-shaped", err)
		}
		m.Close()
		p.Put(m)
	}
	if !sawFailure {
		t.Fatal("kill switch produced no failures")
	}
	target.Revive()
	m2, err := p.Get("addr")
	if err != nil {
		t.Fatalf("checkout after revive: %v", err)
	}
	if _, err := m2.Call(&Request{Op: "back"}, nil, time.Now().Add(5*time.Second)); err != nil {
		t.Fatalf("call after revive: %v", err)
	}
	p.Put(m2)
	if st := p.Stats(); st.Evicted == 0 {
		t.Fatalf("outage evicted nothing: %+v", st)
	}
}

// TestMuxWaiterReuse drives 8 goroutines × 500 calls through one Mux
// against a server that echoes each request's Args as its response
// body, and holds every 7th reply until that call's deadline has passed.
// The late replies land while their callers are timing out and while
// answered waiters are being recycled into new calls: a waiter recycled
// on any path but a received answer would hand a later call someone
// else's bytes. Every call that succeeds must get its own.
func TestMuxWaiterReuse(t *testing.T) {
	m, sc, _ := muxPair(t)
	const (
		workers = 8
		calls   = 500
		short   = 5 * time.Millisecond
	)
	var held sync.WaitGroup
	defer held.Wait()
	go func() {
		var wmu sync.Mutex
		reply := func(req Request) {
			wmu.Lock()
			defer wmu.Unlock()
			sc.WriteResponse(&Response{ID: req.ID, OK: true, Body: req.Args})
		}
		for {
			var req Request
			if _, err := sc.ReadRequest(&req); err != nil {
				return
			}
			if req.Op == "held" {
				held.Add(1)
				time.AfterFunc(short, func() { defer held.Done(); reply(req) })
				continue
			}
			reply(req)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var late atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				op, wait := "echo", 5*time.Second
				if i%7 == 6 {
					op, wait = "held", short
				}
				args := []byte(fmt.Sprintf("%q", fmt.Sprintf("w%d-c%d", w, i)))
				res, err := m.Call(&Request{Op: op, Args: args}, nil, time.Now().Add(wait))
				switch {
				case err != nil && op == "held" && errors.Is(err, types.ErrTimeout):
					late.Add(1)
				case err != nil:
					errs <- fmt.Errorf("%s call w%d-c%d: %w", op, w, i, err)
					return
				case string(res.Resp.Body) != string(args):
					errs <- fmt.Errorf("call w%d-c%d answered with %s", w, i, res.Resp.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Dead() {
		t.Fatal("late replies killed the mux")
	}
	t.Logf("%d held calls timed out; their replies were discarded by ID", late.Load())
}
