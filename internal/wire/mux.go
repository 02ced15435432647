// Request multiplexing: many in-flight requests sharing one
// authenticated connection. One request per round trip is fatal for the
// paper's headline workload of millions of small files over
// high-latency links. A Mux assigns each request a correlation ID,
// serializes frame writes under a mutex, and runs one demux goroutine
// that matches responses (possibly out of order) back to their callers
// by the ID the server echoes, so concurrent operations overlap their
// round trips instead of queueing behind each other.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/types"
)

// CallResult is one matched answer: the response, or a federation
// redirect. Data holds the reply's bulk data only for calls made without
// a Sink.
type CallResult struct {
	Resp     Response
	Data     []byte
	Redirect *Redirect
	// DataLen is the length of the reply's data stream, wherever it went;
	// SentLen that of the stream sent after the request.
	DataLen int64
	SentLen int64
}

// Check is the one test of an answer to op: a redirect where the caller
// follows none (a client takes res.Redirect before it asks), a failure
// response, or — when the op must stream — a success that announced no
// data.
func (res *CallResult) Check(op string, wantData bool) error {
	switch {
	case res.Redirect != nil:
		return types.E(op, "", types.ErrInvalid)
	case !res.Resp.OK:
		return res.Resp.Err()
	case wantData && !res.Resp.DataFollows:
		return types.E(op, "", types.ErrInvalid)
	}
	return nil
}

// Sink says where a reply's data stream goes. The demux goroutine calls
// Begin once, with the response that announced the stream, before the
// first data byte; the stream is then copied into the writer it returns
// through a pooled chunk. Returning a *Buffer is the zero-copy case: the
// demux goroutine fills it in place, so the Buffer must belong to this
// call alone and may be read only after Call has returned without
// error. A Sink or writer error fails the call but not the connection:
// the rest of the stream is discarded to keep the framing.
//
// The sink runs on the goroutine every call on the connection depends
// on, so a writer that can wait on a third party (a relay to another
// socket) wants a connection of its own — Pool.GetExclusive — and a
// bound of its own on how long one Write may take. A Call never waits
// for the sink: when its deadline passes with a stream open into the
// sink's writer, Call returns at once and closes the connection. If the
// demux goroutine is inside Begin or Write at that moment, that one
// sink call is left to finish by itself, and no other is made; whoever
// must not overlap with it (state it shares with the sink) has to order
// itself against that last call.
type Sink interface {
	Begin(resp *Response) (io.Writer, error)
}

// SinkError is a call failing on its caller's side of the connection:
// the sink or its writer returned Err, or the deadline (Err) passed with
// the demux goroutine inside them. The peer did nothing wrong, which is
// what a breaker guarding the peer needs to know.
type SinkError struct{ Err error }

func (e *SinkError) Error() string { return "wire: reply sink: " + e.Err.Error() }
func (e *SinkError) Unwrap() error { return e.Err }

type muxOutcome struct {
	res *CallResult
	err error
}

// How far the demux goroutine is into a caller's sink.
const (
	sinkIdle   int32 = iota // no stream is going into it: the caller may leave freely
	sinkOpen                // one is, into the writer Begin returned
	sinkInside              // and Begin or Write is running right now
	sinkFailed              // it returned an error: the stream drains past it
	sinkGone                // the caller has left: the sink is not entered again
)

// muxPending is one call awaiting its answer.
type muxPending struct {
	ch   chan muxOutcome
	sink Sink

	// state orders the demux goroutine's use of the caller's sink against
	// the caller giving up. w and werr, the stream in progress, are the
	// demux goroutine's alone.
	state atomic.Int32
	w     io.Writer
	werr  error
}

// begin resolves where the announced stream goes: the caller's sink, an
// internal Buffer when it named none, or nowhere once the caller is gone.
func (p *muxPending) begin(res *CallResult) io.Writer {
	if p.sink == nil {
		return new(Buffer)
	}
	if !p.state.CompareAndSwap(sinkIdle, sinkInside) {
		return io.Discard
	}
	w, err := p.sink.Begin(&res.Resp)
	if err != nil {
		p.werr = err
		p.state.CompareAndSwap(sinkInside, sinkFailed)
		return io.Discard
	}
	if b, ok := w.(*Buffer); ok {
		// Filled in place: the sink itself is not entered again.
		p.state.CompareAndSwap(sinkInside, sinkIdle)
		return b
	}
	p.w = w
	p.state.CompareAndSwap(sinkInside, sinkOpen)
	return p
}

// Write feeds the caller's writer unless the caller has gone or the
// writer has failed; either way the stream keeps draining.
func (p *muxPending) Write(b []byte) (int, error) {
	if p.state.CompareAndSwap(sinkOpen, sinkInside) {
		next := sinkOpen
		if _, p.werr = p.w.Write(b); p.werr != nil {
			next = sinkFailed
		}
		p.state.CompareAndSwap(sinkInside, next)
	}
	return len(b), nil
}

// end marks the stream over: the sink is not entered again.
func (p *muxPending) end() { p.state.CompareAndSwap(sinkOpen, sinkIdle) }

// abandon makes the demux goroutine enter the caller's sink no more, and
// reports how far into it it was.
func (p *muxPending) abandon() int32 { return p.state.Swap(sinkGone) }

// Mux multiplexes requests over one authenticated connection. Safe for
// concurrent use; create with NewMux after the handshake.
type Mux struct {
	nc     net.Conn
	c      *Conn
	server string

	wmu sync.Mutex // serializes frame writes (request + its data stream)

	mu      sync.Mutex
	pending map[uint64]*muxPending
	err     error // first fatal error, set once

	nextID   atomic.Uint64
	inflight atomic.Int64
	dead     atomic.Bool
	lastUsed atomic.Int64 // unix nanos of last call completion

	done chan struct{}
}

// NewMux wraps an authenticated connection and starts the demux
// goroutine. server is the peer's announced name.
func NewMux(nc net.Conn, c *Conn, server string) *Mux {
	m := &Mux{
		nc:      nc,
		c:       c,
		server:  server,
		pending: make(map[uint64]*muxPending),
		done:    make(chan struct{}),
	}
	m.lastUsed.Store(time.Now().UnixNano())
	go m.readLoop()
	return m
}

// Handshake is the dialling side of authentication, for users and zone
// peers alike: it answers the server's challenge as a (Response is
// filled in from key, the caller's derived secret) and wraps the
// authenticated connection in a Mux. nc is closed on failure. Anything
// but an AuthOK in reply — the server's refusal, or a connection it
// dropped — is types.ErrAuth.
func Handshake(nc net.Conn, a Auth, key []byte) (*Mux, error) {
	c := NewConn(nc)
	var ch Challenge
	err := c.ReadJSON(MsgChallenge, &ch)
	if err == nil {
		a.Response = auth.Respond(key, ch.Nonce)
		err = c.WriteJSON(MsgAuth, a)
	}
	if err != nil {
		nc.Close()
		return nil, types.E("handshake", nc.RemoteAddr().String(), err)
	}
	var ok AuthOK
	if err := c.ReadJSON(MsgAuthOK, &ok); err != nil {
		nc.Close()
		return nil, types.E("login", a.User+a.Peer, types.ErrAuth)
	}
	return NewMux(nc, c, ok.Server), nil
}

// Server returns the name announced by the remote end's handshake.
func (m *Mux) Server() string { return m.server }

// Dead reports whether the connection has failed; a dead Mux fails
// every call instantly and must be evicted from its pool.
func (m *Mux) Dead() bool { return m.dead.Load() }

// InFlight returns the number of calls currently awaiting responses.
func (m *Mux) InFlight() int64 { return m.inflight.Load() }

// LastUsed returns when a call last completed (idle-reap input).
func (m *Mux) LastUsed() time.Time { return time.Unix(0, m.lastUsed.Load()) }

// Close tears the connection down, failing all pending calls.
func (m *Mux) Close() error {
	m.fatal(net.ErrClosed)
	return nil
}

// fatal marks the mux dead, fails every pending call with err and
// closes the transport (unblocking the demux goroutine).
func (m *Mux) fatal(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	waiters := m.pending
	m.pending = make(map[uint64]*muxPending)
	first := m.err
	m.mu.Unlock()
	if m.dead.CompareAndSwap(false, true) {
		close(m.done)
		m.nc.Close()
	}
	// Unclaimed, so the demux goroutine never reaches their sinks.
	for _, p := range waiters {
		p.ch <- muxOutcome{err: first}
	}
}

// register allocates an ID and parks a waiter for it.
func (m *Mux) register(sink Sink) (uint64, *muxPending, error) {
	id := m.nextID.Add(1)
	p := &muxPending{ch: make(chan muxOutcome, 1), sink: sink}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return 0, nil, err
	}
	m.pending[id] = p
	m.mu.Unlock()
	return id, p, nil
}

// claim removes and returns the waiter a response belongs to; nil when
// its caller has given up (a call that timed out claims itself), or
// when no call ever had that ID.
func (m *Mux) claim(id uint64) *muxPending {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pending[id]
	delete(m.pending, id)
	return p
}

// readLoop is the demux goroutine: the sole reader of the connection.
// A response announcing DataFollows has its data stream moved into its
// caller's sink here, so the next frame is again a response header.
func (m *Mux) readLoop() {
	for {
		t, payload, err := m.c.ReadMsg()
		if err != nil {
			m.fatal(err)
			return
		}
		switch t {
		case MsgResponse:
			res := &CallResult{}
			if err := DecodeResponse(payload, &res.Resp); err != nil {
				m.fatal(fmt.Errorf("wire: bad response frame: %w", types.ErrInvalid))
				return
			}
			p := m.claim(res.Resp.ID)
			var sinkErr error
			if res.Resp.OK && res.Resp.DataFollows {
				var w io.Writer = io.Discard
				if p != nil {
					w = p.begin(res)
				}
				if res.DataLen, err = m.c.RecvData(w); err != nil {
					// Dead first, then the news: a caller that sees the error
					// must also see a dead mux, or it would pool the conn.
					m.fatal(err)
					if p != nil {
						// Claimed, so fatal did not reach this caller.
						p.ch <- muxOutcome{err: err}
					}
					return
				}
				if p != nil {
					p.end()
					if b, ok := w.(*Buffer); ok && p.sink == nil {
						res.Data = b.Bytes()
					}
					sinkErr = p.werr
				}
			}
			if p != nil {
				if sinkErr != nil {
					p.ch <- muxOutcome{err: &SinkError{sinkErr}}
				} else {
					p.ch <- muxOutcome{res: res}
				}
			}
		case MsgRedirect:
			var rd Redirect
			if err := DecodeRedirect(payload, &rd); err != nil {
				m.fatal(fmt.Errorf("wire: bad redirect frame: %w", types.ErrInvalid))
				return
			}
			if p := m.claim(rd.ID); p != nil {
				p.ch <- muxOutcome{res: &CallResult{Redirect: &rd}}
			}
		default:
			m.fatal(fmt.Errorf("wire: unexpected frame %d awaiting response: %w", t, types.ErrInvalid))
			return
		}
	}
}

// Call sends req (stamping its correlation ID) plus an optional data
// stream, and waits for the matched answer. A zero deadline waits
// until the connection fails. On timeout the error wraps both
// types.ErrTimeout and os.ErrDeadlineExceeded so existing
// classification (resilience.Transport, errors.Is) keeps working.
func (m *Mux) Call(req *Request, data io.Reader, deadline time.Time) (*CallResult, error) {
	return m.CallTo(req, data, nil, deadline)
}

// CallTo is Call with the reply's data stream directed into sink (see
// Sink) instead of collected into CallResult.Data.
func (m *Mux) CallTo(req *Request, data io.Reader, sink Sink, deadline time.Time) (*CallResult, error) {
	m.inflight.Add(1)
	defer func() {
		m.inflight.Add(-1)
		m.lastUsed.Store(time.Now().UnixNano())
	}()

	id, p, err := m.register(sink)
	if err != nil {
		return nil, err
	}
	req.ID = id
	var sent int64
	m.wmu.Lock()
	err = m.c.WriteRequest(req)
	if err == nil && data != nil {
		sent, err = m.c.sendData(data)
	}
	m.wmu.Unlock()
	if err != nil {
		m.fatal(err)
		return nil, err
	}

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case out := <-p.ch:
		if out.res != nil {
			out.res.SentLen = sent
		}
		return out.res, out.err
	case <-timeout:
		err := timeoutError(id)
		if was := p.abandon(); was != sinkIdle {
			// The conn's only reader is feeding this caller's writer and
			// may be stuck in it; even if not, what is left of the stream
			// is wanted by nobody. Closing beats draining.
			m.fatal(err)
			if was != sinkOpen {
				// Not waiting for the peer: in the writer, or past its error.
				err = &SinkError{err}
			}
		} else {
			// Abandon the call; the late response is discarded by ID.
			m.claim(id)
		}
		return nil, err
	}
}

// timeoutError builds a call-timeout error that satisfies both
// errors.Is(err, types.ErrTimeout) and errors.Is(err,
// os.ErrDeadlineExceeded).
func timeoutError(id uint64) error {
	return fmt.Errorf("wire: request %d: %w", id, &muxTimeout{})
}

type muxTimeout struct{}

func (*muxTimeout) Error() string { return "deadline exceeded awaiting response" }
func (*muxTimeout) Is(target error) bool {
	return errors.Is(os.ErrDeadlineExceeded, target) || errors.Is(types.ErrTimeout, target)
}
