// Sink discipline of the Mux: a reply's data stream goes where the call
// said, a sink that fails costs the call but not the connection, and a
// caller that has given up is never written to again.
package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/types"
)

// writerSink directs a reply stream into w.
type writerSink struct{ w io.Writer }

func (s writerSink) Begin(*Response) (io.Writer, error) { return s.w, nil }

// lockedBuf is a writer the test may inspect while a mux writes to it.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
	err error
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	return l.buf.Write(p)
}

func (l *lockedBuf) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Len()
}

func TestMuxSinkReceivesStream(t *testing.T) {
	m, sc, _ := muxPair(t)
	payload := pattern(DataChunk + 1234)
	go func() {
		var req Request
		if err := sc.ReadJSON(MsgRequest, &req); err != nil {
			return
		}
		sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true, DataFollows: true})
		sc.SendData(bytes.NewReader(payload))
	}()
	var got lockedBuf
	res, err := m.CallTo(&Request{Op: "get"}, nil, writerSink{&got}, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil {
		t.Error("a call with a sink also collected Data")
	}
	if res.DataLen != int64(len(payload)) || !bytes.Equal(got.buf.Bytes(), payload) {
		t.Errorf("sink got %d bytes, DataLen %d, want %d", got.Len(), res.DataLen, len(payload))
	}
}

// TestMuxSinkErrorKeepsConn: the caller's writer failing mid-stream
// fails that call with the writer's error; the stream is drained, so the
// next call on the same connection is matched correctly.
func TestMuxSinkErrorKeepsConn(t *testing.T) {
	m, sc, _ := muxPair(t)
	go func() {
		for i := 0; i < 2; i++ {
			var req Request
			if err := sc.ReadJSON(MsgRequest, &req); err != nil {
				return
			}
			if req.Op == "get" {
				sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true, DataFollows: true})
				sc.SendData(bytes.NewReader(pattern(3 * DataChunk)))
			} else {
				sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true, Body: echoBody(req.Op)})
			}
		}
	}()
	full := errors.New("disk full")
	_, err := m.CallTo(&Request{Op: "get"}, nil, writerSink{&lockedBuf{err: full}}, time.Now().Add(5*time.Second))
	if !errors.Is(err, full) {
		t.Fatalf("call with a failing sink = %v, want the sink's error", err)
	}
	if m.Dead() {
		t.Fatal("a sink failure killed the connection")
	}
	res, err := m.Call(&Request{Op: "stat"}, nil, time.Now().Add(5*time.Second))
	if err != nil || string(res.Resp.Body) != `"stat"` {
		t.Fatalf("call after a sink failure = %+v, %v", res, err)
	}
}

// TestMuxTimeoutStopsSinkWrites: once a timed-out Call has returned, the
// demux goroutine writes nothing more to that caller's writer. The rest
// of the stream is wanted by nobody, so the connection is closed rather
// than drained.
func TestMuxTimeoutStopsSinkWrites(t *testing.T) {
	m, sc, _ := muxPair(t)
	rest := make(chan struct{})
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		var req Request
		if err := sc.ReadJSON(MsgRequest, &req); err != nil {
			return
		}
		sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true, DataFollows: true})
		sc.WriteMsg(MsgData, pattern(1000))
		<-rest // stall mid-stream until the caller has timed out
		sc.WriteMsg(MsgData, pattern(5000))
		sc.WriteMsg(MsgDataEnd, nil)
	}()
	var got lockedBuf
	_, err := m.CallTo(&Request{Op: "get"}, nil, writerSink{&got}, time.Now().Add(100*time.Millisecond))
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("stalled stream = %v, want timeout", err)
	}
	if !m.Dead() {
		t.Error("a stream abandoned inside the caller's writer left the connection open")
	}
	atReturn := got.Len()
	close(rest)
	<-srvDone
	if got.Len() != atReturn {
		t.Errorf("writer grew from %d to %d bytes after its call returned", atReturn, got.Len())
	}
}

// stuckWriter blocks every Write until released, counting them.
type stuckWriter struct {
	entered chan struct{} // closed by the first Write
	release chan struct{}
	once    sync.Once
	writes  atomic.Int64
}

func newStuckWriter() *stuckWriter {
	return &stuckWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stuckWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestMuxBlockedSinkHonoursDeadline: a writer that never returns does
// not hold its Call past the deadline. The Call comes back on time and
// closes the connection (its only reader is stuck in that writer); the
// Write in progress is the last the writer sees.
func TestMuxBlockedSinkHonoursDeadline(t *testing.T) {
	m, sc, _ := muxPair(t)
	go func() {
		var req Request
		if err := sc.ReadJSON(MsgRequest, &req); err != nil {
			return
		}
		sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true, DataFollows: true})
		sc.SendData(bytes.NewReader(pattern(3 * DataChunk)))
	}()
	w := newStuckWriter()
	start := time.Now()
	_, err := m.CallTo(&Request{Op: "get"}, nil, writerSink{w}, time.Now().Add(100*time.Millisecond))
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("call into a blocked writer = %v, want timeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("call into a blocked writer took %v, its deadline was 100ms", d)
	}
	<-w.entered // the deadline passed with the demux goroutine inside Write
	if !m.Dead() {
		t.Error("connection still open with its reader stuck in an abandoned writer")
	}
	if _, err := m.Call(&Request{Op: "stat"}, nil, time.Now().Add(time.Second)); err == nil {
		t.Error("a call on the closed connection succeeded")
	}
	close(w.release)
	time.Sleep(50 * time.Millisecond)
	if n := w.writes.Load(); n != 1 {
		t.Errorf("writer saw %d writes, want only the one in progress at the deadline", n)
	}
}

// TestPoolExclusiveLease: an exclusive checkout takes an idle pooled
// conn, or dials when none is idle, and hides it from every other
// checkout until it is checked back in; after that it is shared like
// any other. A stream stuck in its writer therefore stalls nobody.
func TestPoolExclusiveLease(t *testing.T) {
	dial, dials := pipeDialer(nil)
	p := NewPool(PoolConfig{Dial: dial, MaxConns: 1})
	defer p.Close()

	warm, err := p.Get("srv")
	if err != nil {
		t.Fatal(err)
	}
	p.Put(warm)
	own, err := p.GetExclusive("srv")
	if err != nil {
		t.Fatal(err)
	}
	if own != warm || dials.Load() != 1 {
		t.Fatalf("exclusive checkout dialed (%d dials) with an idle conn pooled", dials.Load())
	}
	// MaxConns is 1 and that conn is taken: a shared checkout dials its
	// own rather than wait for, or share, the exclusive one.
	shared, err := p.Get("srv")
	if err != nil {
		t.Fatal(err)
	}
	if shared == own {
		t.Fatal("shared checkout was handed an exclusively leased conn")
	}
	// The only pooled conn not exclusively held is busy: dial, whatever
	// MaxConns says.
	own2, err := p.GetExclusive("srv")
	if err != nil {
		t.Fatal(err)
	}
	if own2 == own || own2 == shared || dials.Load() != 3 {
		t.Fatalf("second exclusive checkout shared a conn (%d dials, want 3)", dials.Load())
	}
	res, err := shared.Call(&Request{Op: "stat"}, nil, time.Now().Add(5*time.Second))
	if err != nil || string(res.Resp.Body) != `"stat"` {
		t.Fatalf("shared call beside two exclusive leases = %+v, %v", res, err)
	}
	p.Put(shared)
	p.Put(own2)
	p.Put(own)
	if st := p.Stats(); st.Conns != 3 || st.Idle != 3 {
		t.Fatalf("after check-in: %+v, want 3 conns, all idle", st)
	}
	// Checked in, the once-exclusive conns are shared again: no dial.
	for i := 0; i < 3; i++ {
		m, err := p.Get("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Put(m)
	}
	if dials.Load() != 3 {
		t.Errorf("checkouts after check-in dialed (%d dials, want 3)", dials.Load())
	}
}

// TestMuxCallReportsSentLen: the stream sent after a request is counted.
func TestMuxCallReportsSentLen(t *testing.T) {
	m, sc, _ := muxPair(t)
	go func() {
		var req Request
		if err := sc.ReadJSON(MsgRequest, &req); err != nil {
			return
		}
		sc.RecvData(io.Discard)
		sc.WriteJSON(MsgResponse, Response{ID: req.ID, OK: true})
	}()
	res, err := m.Call(&Request{Op: "ingest"}, bytes.NewReader(pattern(70000)), time.Now().Add(5*time.Second))
	if err != nil || res.SentLen != 70000 {
		t.Fatalf("SentLen = %d, %v; want 70000", res.SentLen, err)
	}
}
