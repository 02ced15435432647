package client

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/faultnet"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

func fastPolicy() resilience.Policy {
	return resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// TestClientRetriesIdempotentOnOffline: a read hitting a transiently
// offline resource is retried and succeeds once the resource is back.
func TestClientRetriesIdempotentOnOffline(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		if calls.Add(1) <= 2 {
			return answer(c, req, wire.ErrResponse(types.E(req.Op, "/x", types.ErrOffline)))
		}
		resp := okResp(wire.SizeReply{Size: 2}, true)
		if err := answer(c, req, resp); err != nil {
			return err
		}
		c.WriteMsg(wire.MsgData, []byte("ok"))
		return c.WriteMsg(wire.MsgDataEnd, nil)
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	data, err := cl.Get("/x")
	if err != nil || string(data) != "ok" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := cl.Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2", got)
	}
}

// TestClientNeverRetriesMutating: a failing ingest reaches the server
// exactly once, whatever the retry policy says.
func TestClientNeverRetriesMutating(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		calls.Add(1)
		// Drain the ingest data stream to keep the protocol healthy.
		if _, err := c.RecvData(discard{}); err != nil {
			return err
		}
		return answer(c, req, wire.ErrResponse(types.E(req.Op, "/x", types.ErrOffline)))
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	if _, err := cl.Put("/x", []byte("data"), PutOpts{}); !errors.Is(err, types.ErrOffline) {
		t.Fatalf("Put = %v, want offline", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d ingest attempts, want exactly 1", got)
	}
	if got := cl.Retries(); got != 0 {
		t.Errorf("Retries() = %d, want 0", got)
	}
}

// TestClientReconnectsAfterTransportError: the server drops the conn
// mid-exchange; the client re-dials, re-authenticates and retries.
func TestClientReconnectsAfterTransportError(t *testing.T) {
	var calls atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		if calls.Add(1) == 1 {
			return errors.New("drop the connection mid-request")
		}
		resp := okResp(wire.SizeReply{Size: 2}, true)
		if err := answer(c, req, resp); err != nil {
			return err
		}
		c.WriteMsg(wire.MsgData, []byte("ok"))
		return c.WriteMsg(wire.MsgDataEnd, nil)
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())
	cl.sleep = func(time.Duration) {}

	data, err := cl.Get("/x")
	if err != nil || string(data) != "ok" {
		t.Fatalf("Get after conn drop = %q, %v", data, err)
	}
	if got := cl.Retries(); got != 1 {
		t.Errorf("Retries() = %d, want 1", got)
	}
}

// TestClientTimeoutOnWire: a configured call timeout rides in
// TimeoutMillis so the whole federation chain inherits the budget.
func TestClientTimeoutOnWire(t *testing.T) {
	var sawBudget atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		sawBudget.Store(req.TimeoutMillis)
		return answer(c, req, wire.Response{OK: true})
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	if _, err := cl.List("/"); err != nil {
		t.Fatal(err)
	}
	if got := sawBudget.Load(); got <= 0 || got > 5000 {
		t.Errorf("TimeoutMillis on wire = %d, want (0, 5000]", got)
	}
}

// TestClientTimeoutExpires: a stalled server cannot hang the client
// past its deadline — the conn deadline fires and the call fails fast.
func TestClientTimeoutExpires(t *testing.T) {
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		time.Sleep(2 * time.Second) // stall well past the client budget
		return answer(c, req, wire.Response{OK: true})
	})
	cl, err := Dial(addr, "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(80 * time.Millisecond)
	cl.sleep = func(time.Duration) {}

	start := time.Now()
	_, err = cl.List("/")
	if err == nil {
		t.Fatal("call must fail once the budget is spent")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("call took %v, deadline did not bound it", elapsed)
	}
}

// TestParallelGetRetriesMidRange: the link dies part-way through the
// ranges of a ParallelGet. Each range is written at its own offset, a
// place a retry can go back to, so the streams re-dial and the call
// still returns the whole object — what a transfer into a plain writer
// could not do once bytes had reached it.
func TestParallelGetRetriesMidRange(t *testing.T) {
	const size = 2 << 20
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 7)
	}
	inj := faultnet.New(1)
	var ranges atomic.Int64
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		if req.Op == wire.OpStat {
			resp := okResp(types.Stat{Size: size}, false)
			return answer(c, req, resp)
		}
		a, err := wire.DecodeArgs[wire.RangeArgs](req.Args)
		if err != nil {
			return err
		}
		if ranges.Add(1) == 2 {
			// Both streams have dialled and asked: only now can a drop be
			// sure to land inside a range and not on a stream's first
			// handshake, whichever stream the scheduler ran first.
			inj.Target("link").DropAfterBytes(size / 4)
		}
		resp := okResp(wire.SizeReply{Size: a.Length}, true)
		if err := answer(c, req, resp); err != nil {
			return err
		}
		return c.SendData(bytes.NewReader(want[a.Offset : a.Offset+a.Length]))
	})
	faulty := inj.WrapDial("link", func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, 5*time.Second)
	})
	var dials atomic.Int64
	cl, err := DialWith(addr, "alice", "pw", func(a string) (net.Conn, error) {
		if dials.Add(1) > 3 {
			// A re-dial (the parent and the two streams account for three):
			// the fault has done its work.
			inj.Target("link").Clear()
		}
		return faulty(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(fastPolicy())

	got, err := cl.ParallelGet("/x", 2)
	if err != nil {
		t.Fatalf("ParallelGet across a mid-range drop = %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("ParallelGet across a mid-range drop returned the wrong bytes")
	}
	if dials.Load() <= 3 {
		t.Errorf("%d dials: the drop never forced a stream to re-dial", dials.Load())
	}
}
