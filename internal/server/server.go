// Package server implements srbd, the federated SRB server: it exposes
// the broker over the wire protocol, authenticates users and zone peers
// with challenge–response, and federates access to data held by other
// servers — by proxying bytes or by redirecting the client, the paper's
// "users can connect to any SRB server to access data from any other
// SRB server" (§3.1).
//
// As in SRB 1.x, a federation shares one MCAT: every server is built
// over the same catalog, while each server mounts drivers only for the
// resources it owns (types.Resource.Server names the owner).
//
// A Server owns its wire listener and nothing else of the process: the
// catalog, the periodic jobs, the admin HTTP listener and the shutdown
// order belong to internal/daemon, which closes the server first. The
// peer dial timeout and the breaker settings are the constants of
// internal/resilience.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/chunk"
	"gosrb/internal/core"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/resilience"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// FederationMode selects how non-local data is served.
type FederationMode int

const (
	// Proxy relays the bytes through this server.
	Proxy FederationMode = iota
	// Redirect tells the client to reconnect to the owning server.
	Redirect
)

// Server is one srbd instance.
type Server struct {
	broker *core.Broker
	authn  *auth.Authenticator
	name   string
	mode   FederationMode

	mu    sync.RWMutex
	peers map[string]peer // server name -> address + secret

	tickets *auth.TicketStore

	// peerDial, when set, replaces the TCP dialer for peer connections
	// (fault injection wraps it to script peer crashes).
	peerDial func(addr string) (net.Conn, error)
	// peerPool reuses peer-authenticated connections across federation
	// calls — the dial-per-call model this replaces cost a full dial +
	// handshake round trip on every proxied op.
	peerPool *wire.Pool
	// retry shapes federation retries for idempotent proxied ops.
	retry resilience.Policy
	sleep func(time.Duration)

	// slowOp holds the slow-operation threshold in nanoseconds (0 =
	// disabled). Requests whose dispatch span exceeds it get their full
	// local span tree written to the log (srbd's -slow-op flag).
	slowOp atomic.Int64
	// slotsMade counts the connection slots made (handleConn), over
	// every connection this server has served.
	slotsMade atomic.Int64

	ln net.Listener
	wg sync.WaitGroup
	// connsMu guards conns, the set of live inbound connections. Close
	// shuts them down explicitly: pooled peer and client connections
	// stay open across calls, so waiting for EOF would wait forever.
	connsMu   sync.Mutex
	conns     map[net.Conn]struct{}
	closed    chan struct{}
	closeOnce sync.Once
	// Logger receives connection and operation errors with op,
	// remote-addr and trace-ID context. Defaults to stderr at LevelError
	// so failures are never silently swallowed; srbd raises it to
	// LevelInfo (or back down with -quiet).
	Logger *obs.Logger
}

type peer struct {
	addr   string
	secret string
	// via is the detail of the failover event a read served through the
	// peer records, made once here rather than per read.
	via string
}

// New returns a server over the broker. name must match the broker's
// server name so resource ownership resolves consistently.
func New(b *core.Broker, a *auth.Authenticator, mode FederationMode) *Server {
	s := &Server{
		broker:  b,
		authn:   a,
		name:    b.ServerName(),
		mode:    mode,
		peers:   make(map[string]peer),
		conns:   make(map[net.Conn]struct{}),
		tickets: auth.NewTicketStore(),
		closed:  make(chan struct{}),
		retry:   resilience.DefaultPolicy,
		sleep:   time.Sleep,
		Logger:  obs.NewLogger(os.Stderr, b.ServerName(), obs.LevelError),
	}
	s.peerPool = wire.NewPool(wire.PoolConfig{
		Dial:    s.dialPeerMux,
		Metrics: b.Metrics(),
		Prefix:  "federation.pool",
	})
	return s
}

// PeerPoolStats reports the federation connection pool's occupancy and
// lifetime dial/eviction/reap counters (chaos tests and status pages).
func (s *Server) PeerPoolStats() wire.PoolStats { return s.peerPool.Stats() }

// SetPeerDialer replaces the transport used to reach peers (tests and
// fault injection). nil restores plain TCP. Pooled connections dialed
// under the old transport are dropped so the swap takes effect
// immediately.
func (s *Server) SetPeerDialer(dial func(addr string) (net.Conn, error)) {
	s.peerDial = dial
	s.peerPool.Flush()
}

// SetRetryPolicy tunes federation retries for idempotent proxied ops.
func (s *Server) SetRetryPolicy(p resilience.Policy) {
	if p.MaxAttempts > 0 {
		s.retry = p
	}
}

// SetSlowOpThreshold enables the slow-op log: any request taking at
// least d gets its full local span tree logged (0 disables).
func (s *Server) SetSlowOpThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.slowOp.Store(int64(d))
}

// Name returns the server's federation name.
func (s *Server) Name() string { return s.name }

// AddPeer registers a federated peer and the shared zone secret used
// for server-to-server authentication.
func (s *Server) AddPeer(name, addr, secret string) {
	s.mu.Lock()
	s.peers[name] = peer{addr: addr, secret: secret, via: "read via peer " + name}
	s.mu.Unlock()
	s.authn.RegisterPeer(name, secret)
}

// PeerAddr resolves a peer's address.
func (s *Server) PeerAddr(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.peers[name]
	return p.addr, ok
}

// viaPeer is the failover event's detail for a read served through the
// named peer.
func (s *Server) viaPeer(name string) string {
	s.mu.RLock()
	p, ok := s.peers[name]
	s.mu.RUnlock()
	if !ok {
		return "read via peer " + name
	}
	return p.via
}

// Listen starts accepting connections on addr ("host:0" picks a port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener and waits for active connections to finish.
// It is safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.peerPool.Close()
		s.connsMu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.connsMu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.Logger.Errorf("accept: %v", err)
				return
			}
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connsMu.Lock()
				delete(s.conns, conn)
				s.connsMu.Unlock()
			}()
			// net.ErrClosed covers both a client dropping a pooled conn
			// and Close force-closing tracked conns: routine teardown,
			// not an error worth logging.
			if err := s.handleConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logger.Errorf("conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// connWriter serializes reply writes on one connection. Pipelined
// handlers finish out of order; whoever holds mu owns the wire until its
// reply — the response frame, or header, data frames and DataEnd — is
// complete, so each reply is one atomic unit. A write error is latched
// and the conn closed, so the reader loop unblocks and every later write
// fails fast.
type connWriter struct {
	mu  sync.Mutex
	c   *wire.Conn
	nc  net.Conn
	err error
	// unanswered counts the requests handed to the conn's slots that
	// have not yet taken mu to write their last frame (dispatch). While
	// it is below the number of slots, a slot is about to come free.
	unanswered atomic.Int64
}

// write runs one frame write; the caller holds mu.
func (w *connWriter) write(fn func(c *wire.Conn) error) error {
	if w.err != nil {
		return w.err
	}
	if err := fn(w.c); err != nil {
		w.drop(err)
		return err
	}
	return nil
}

// drop latches err and closes the conn; the caller holds mu.
func (w *connWriter) drop(err error) {
	if w.err == nil {
		w.err = err
	}
	w.nc.Close()
}

// session is the state of one request on an authenticated connection.
// A connection keeps up to maxPipelined of them, each in a slot with the
// goroutine that dispatches it (handleConn). The identity fields
// (user/peer/remote/w) are the connection's and outlive every request;
// the request state (reqState) is zeroed when the request ends (reset),
// so pipelined handlers never share mutable state. The span and the
// stream source are held by value and kept across requests, so serving a
// request allocates neither; a listing or a query answer is built in
// buffers the slot keeps too, up to maxKept bytes each. Nothing holds a
// session, or its span, once dispatch has returned: every goroutine,
// peer call and replica handle a handler starts is waited for or closed
// first, and a relay is sealed (DESIGN.md, "The request lives in a
// connection slot").
//
// A handler produces its reply through the session: reply, rawReply,
// fail and redirect stage the single frame of a plain reply; beginStream
// and Write (or sendStream, which is both) put a streamed reply's header
// and data frames on the wire. Either way the last frame — the staged
// response, or the stream's DataEnd — is written by dispatch, after it
// has recorded the request.
type session struct {
	user   string // authenticated end user, or "" on peer connections
	peer   string // authenticated peer server, or ""
	isPeer bool
	remote string // remote address, for log and trace context
	// w is the conn's mutex-serialized reply writer.
	w *connWriter
	// spanBuf is the request's trace span, opened in place by dispatch;
	// it keeps the array its events grew into from one request to the
	// next.
	spanBuf obs.Span
	// rl is the slot's relay for a proxied read (federate), kept across
	// requests while its calls succeed.
	rl *relay
	// stats, avus and ans are the slot's listing, triplets and query
	// answer: list, getmeta and query build their replies in them, and
	// keep hands them on to the slot's next request with their rows
	// cleared, while each buffer is within maxKept bytes.
	stats []types.Stat
	avus  []types.AVU
	ans   mcat.Answer
	// slab is the append-only buffer an idempotent op's argument strings
	// are cut from (via, wire.DecodeArgsIn). Its bytes are never written
	// again: a full slab is dropped for a fresh one, so a string a small
	// bounded holder (the trace ring, the heat and usage tables) keeps
	// pins at most one slab, and the holder's bound limits how many. The
	// audit log, too large for that, copies what it keeps (audit.Log.own).
	slab strings.Builder
	reqState
}

// maxKept bounds, in bytes, each buffer a slot keeps for its next
// request: the frame pool's bound, so a slot holds nothing large
// between requests, however many slots a connection has.
const maxKept = 64 << 10

// keep readies b, a reply the slot built and encoded, for the slot's
// next request: its rows are cleared, so they pin nothing, and it is
// kept empty unless it outgrew maxKept or the frame canary is on (then
// nil, and the next request makes its own).
func keep[T any](b []T) []T {
	clear(b)
	if !lend.Recycle() || uintptr(cap(b))*reflect.TypeFor[T]().Size() > maxKept {
		return nil
	}
	return b[:0]
}

// reqState is one request's part of a session, zeroed by reset.
type reqState struct {
	// req is the request, decoded into the session by the reader loop;
	// reqID is its correlation ID, echoed on every response. frame is the
	// request's frame, which req.Args is a slice of, lent by the pool
	// until dispatch ends (releaseFrame).
	req   wire.Request
	reqID uint64
	frame *[]byte
	// in is the request's inbound bulk-data stream (nil when the op
	// carries none). The handler reads it straight off the connection
	// while the conn's reader loop waits on inDone, the connection's one
	// hand-off channel; dispatch drains what the handler left, releases
	// the reader and signals inDone.
	in     *wire.DataReader
	inDone chan struct{}
	// staged is the plain reply awaiting dispatch's record-then-write;
	// redir, when set, replaces it with a federation redirect. body is
	// the pooled frame a reply's body is encoded in, handed back once
	// the response carrying it is written.
	staged wire.Response
	body   *[]byte
	redir  *wire.Redirect
	// src is the source of a streamed reply (sendStream), remembering
	// its own read error.
	src sourceReader
	// get is a get's reader (getObject), opened in place by
	// Broker.OpenGet and closed before dispatch returns.
	get core.GetHandle
	// streaming is set once a streamed reply's header is on the wire: the
	// session then holds w.mu until dispatch closes the stream. aborted
	// records why a begun stream cannot be completed (its source failed);
	// dispatch drops the connection instead of ending the stream.
	streaming bool
	aborted   error
	// sendDur accumulates time inside data-frame writes (wire.send phase).
	sendDur time.Duration
	// opErr records the handler error of the request being dispatched;
	// the dispatch shim reads it to attribute errors to the op's
	// metrics, span record and log line.
	opErr error
	// deadline is the current request's time budget (zero = unbounded),
	// started at dispatch from wire.Request.TimeoutMillis; federation
	// hops forward only what remains of it.
	deadline time.Time
	// span is spanBuf while the request is dispatched, nil otherwise;
	// handlers and the layers beneath them annotate it with
	// retry/breaker/failover events.
	span *obs.Span
	// acctUser is the resolved effective user of the current request,
	// recorded by dispatchOp for usage accounting ("" = unresolved);
	// acctPath is the grid path its decoded arguments address ("" =
	// none), the source of its usage key.
	acctUser string
	acctPath string
	// bytesIn / bytesOut count bulk-data bytes received and sent while
	// serving the current request, for the usage accounting ledger.
	bytesIn  int64
	bytesOut int64
	// enqueued is when the reader loop finished reading the request. The
	// dispatch shim backdates the request span to it and attributes the
	// gap to the queue.wait phase.
	enqueued time.Time
}

// reset readies the session for the connection's next request: the
// request state goes, the connection's identity and the held span stay.
// Under the framecanary build tag the session is then poisoned, so a use
// before the next request is handed to it fails (canary.go).
func (ss *session) reset() {
	ss.reqState = reqState{}
	poisonSession(ss)
}

// releaseFrame hands the request's frame back to the pool, req.Args
// with it, and the reply body's frame once its response is written.
func (ss *session) releaseFrame() {
	wire.PutFrame(ss.frame)
	wire.PutFrame(ss.body)
	ss.frame, ss.req.Args = nil, nil
	ss.body, ss.staged.Body = nil, nil
}

// expired reports whether the request's budget has run out.
func (ss *session) expired() bool {
	return !ss.deadline.IsZero() && !time.Now().Before(ss.deadline)
}

// finishInbound discards whatever the handler left of the inbound
// stream, so the connection is framed for the next request whether the
// handler read all, some or none of it, and hands the read side back to
// the conn's reader loop.
func (ss *session) finishInbound() {
	if ss.in == nil {
		return
	}
	// A drain error is the transport's: the reader loop sees it next.
	_ = ss.in.Drain()
	ss.bytesIn += ss.in.N()
	ss.in = nil
	if ss.inDone != nil {
		ss.inDone <- struct{}{}
	}
}

// reply stages a success response with *body, encoded into a frame from
// the pool that dispatch hands back once the response is written. body
// does not escape (wire.AppendBody). A body too large for a response
// frame stages an ErrInvalid failure instead: the client is told, and does
// not retry, where a frame refused at write time would drop the connection
// and the client would send the same call again.
func reply[T any](ss *session, body *T) error {
	checkLive(ss)
	bp := wire.GetFrame()
	raw, err := wire.AppendBody(*bp, body)
	if err != nil {
		wire.PutFrame(bp)
		return err
	}
	if len(raw) > wire.MaxBody {
		wire.PutFrame(bp)
		return ss.fail(types.E(ss.req.Op, "", fmt.Errorf("reply body of %d bytes exceeds the %d a response frame carries: %w",
			len(raw), wire.MaxBody, types.ErrInvalid)))
	}
	*bp = raw
	ss.body = bp
	ss.staged = wire.Response{OK: true, Body: raw}
	return nil
}

// rawReply stages a success response with an encoded body (proxied
// replies relay the owning server's bytes untouched).
func (ss *session) rawReply(body []byte) error {
	checkLive(ss)
	ss.staged = wire.Response{OK: true, Body: body}
	return nil
}

// fail stages a failure response and records the error for the dispatch
// shim. Once a streamed reply has begun there is no response left to
// give: the stream is aborted and dispatch drops the connection.
func (ss *session) fail(err error) error {
	checkLive(ss)
	ss.opErr = err
	if ss.streaming {
		ss.aborted = err
		return nil
	}
	ss.staged = wire.ErrResponse(err)
	return nil
}

// redirect stages a redirect handing the client the owning server's
// address.
func (ss *session) redirect(server, addr string) error {
	checkLive(ss)
	ss.redir = &wire.Redirect{ID: ss.reqID, Server: server, Addr: addr}
	return nil
}

// beginStream puts the header of a streamed reply on the wire: a success
// response announcing that data follows. From here the session owns the
// conn's write side; dispatch ends the stream and releases it. by, when
// set, is the socket's write deadline from the header on; whoever sets
// it lifts it again.
func (ss *session) beginStream(body []byte, by time.Time) error {
	checkLive(ss)
	resp := wire.Response{ID: ss.reqID, OK: true, Body: body, DataFollows: true}
	ss.w.mu.Lock()
	ss.streaming = true
	if !by.IsZero() {
		ss.w.nc.SetWriteDeadline(by)
	}
	return ss.w.write(func(c *wire.Conn) error { return c.WriteResponse(&resp) })
}

// Write sends p as data frames of the begun stream.
func (ss *session) Write(p []byte) (int, error) {
	checkLive(ss)
	start := time.Now()
	var n int
	err := ss.w.write(func(c *wire.Conn) (err error) {
		n, err = c.DataWriter().Write(p)
		return err
	})
	ss.sendDur += time.Since(start)
	ss.bytesOut += int64(n)
	return n, err
}

// sendStream replies with body and then the bytes of src, moved through
// one pooled chunk. A src that can fail is passed as the session's own
// sourceReader (ss.source), so its error is told apart from the
// transport's: a source that fails after the header cannot become an
// error response any more, and the stream is aborted.
func sendStream[T any](ss *session, body *T, src io.Reader) error {
	// The header is encoded in a pooled frame, for a manifest outgrows
	// any scratch on the stack, and is copied into the conn's frame
	// before beginStream returns.
	bp := wire.GetFrame()
	raw, err := wire.AppendBody(*bp, body)
	if err != nil {
		wire.PutFrame(bp)
		return err
	}
	*bp = raw
	err = ss.beginStream(raw, time.Time{})
	wire.PutFrame(bp)
	if err != nil {
		return err
	}
	_, err = chunk.Copy(ss, src)
	if sr, ok := src.(*sourceReader); ok && sr.err != nil {
		return ss.fail(sr.err)
	}
	return err
}

// replyData replies with data's size and then data, framed in place.
func (ss *session) replyData(data []byte) error {
	return sendStream(ss, &wire.SizeReply{Size: int64(len(data))}, bytes.NewReader(data))
}

// source wraps r in the session's sourceReader for sendStream.
func (ss *session) source(r io.Reader) *sourceReader {
	ss.src = sourceReader{r: r}
	return &ss.src
}

// sourceReader remembers a stream source's own read error.
type sourceReader struct {
	r   io.Reader
	err error
}

func (s *sourceReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n, err
}

// effectiveUser resolves the user an operation runs as.
func (ss *session) effectiveUser(req *wire.Request) (string, error) {
	if ss.isPeer {
		if req.OnBehalf == "" {
			return "", types.E(req.Op, "", types.ErrAuth)
		}
		return req.OnBehalf, nil
	}
	return ss.user, nil
}

// maxPipelined bounds concurrently dispatched requests per connection:
// a connection has at most this many slots, and beyond it the reader
// loop applies backpressure by holding the request that found every
// slot busy, reading no further, until a slot frees.
const maxPipelined = 64

// handleConn serves one connection: it authenticates it, then reads its
// requests in order and hands each to a slot. A slot is a session plus
// the goroutine that dispatches it; it is made the first time the
// pipeline gets that deep, and reused after that. free holds the
// sessions of the idle slots, so it is the pipeline bound; work hands a
// read request to whichever slot goroutine is idle. A new slot is made
// only while every slot holds a request not yet answered, so a
// connection whose requests never overlap keeps one. When the
// connection ends, the slot goroutines exit, and handleConn waits for
// them.
func (s *Server) handleConn(nc net.Conn) error {
	c := wire.NewConn(nc)
	user, peer, err := s.handshake(c)
	if err != nil {
		return err
	}
	remote := nc.RemoteAddr().String()
	w := &connWriter{c: c, nc: nc}
	reg := s.broker.Metrics()
	depthHist := reg.Op("server.pipeline.depth")
	pipeGauge := reg.Gauge("server.pipeline.inflight")
	free := make(chan *session, maxPipelined)
	work := make(chan *session)
	// Only one inbound stream can be open at a time, so one channel
	// hands the conn's read side back for all of them.
	inDone := make(chan struct{}, 1)
	var wg sync.WaitGroup
	defer func() {
		close(work)
		wg.Wait()
	}()
	slots := 0
	var req wire.Request
	for {
		frame, err := c.ReadRequest(&req)
		if err != nil {
			return err
		}
		var ss *session
		select {
		case ss = <-free:
		default:
			if slots < maxPipelined && w.unanswered.Load() == int64(slots) {
				slots++
				s.slotsMade.Add(1)
				ss = &session{user: user, peer: peer, isPeer: peer != "", remote: remote, w: w}
				wg.Add(1)
				go s.runSlot(&wg, work, free, pipeGauge)
			} else {
				ss = <-free
			}
		}
		ss.req, ss.frame, ss.reqID = req, frame, req.ID
		if wire.StreamsIn(req.Op) {
			// The op's bulk data sits between this request and the next.
			// The handler reads it straight off the conn; dispatch drains
			// whatever it leaves (all of it, when the op is rejected
			// unread), so the framing survives either way.
			ss.in = c.OpenData()
		}
		if req.ID == 0 {
			// Every request carries the ID its response is matched by; one
			// without is malformed and is refused before any handler runs.
			ss.finishInbound()
			ss.releaseFrame()
			ss.reset()
			free <- ss
			resp := wire.ErrResponse(types.E(req.Op, "", fmt.Errorf("request without an ID: %w", types.ErrInvalid)))
			w.mu.Lock()
			err := w.write(func(c *wire.Conn) error { return c.WriteResponse(&resp) })
			w.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		// The depth histogram records how deep the pipeline actually runs
		// (depth encoded as microseconds in the pow-2 buckets).
		depth := w.unanswered.Add(1)
		depthHist.Observe(time.Duration(depth)*time.Microsecond, nil)
		pipeGauge.Add(1)
		ss.enqueued = time.Now()
		streamsIn := ss.in != nil
		if streamsIn {
			ss.inDone = inDone
		}
		work <- ss
		if streamsIn {
			// The handler owns the conn's read side until its inbound
			// stream is drained; only then is the next frame a request.
			<-inDone
		}
	}
}

// runSlot is a slot's goroutine: it dispatches each session work hands
// it, resets the session and frees the slot, until work is closed.
func (s *Server) runSlot(wg *sync.WaitGroup, work <-chan *session, free chan<- *session, inflight *obs.Gauge) {
	defer wg.Done()
	for ss := range work {
		if err := s.dispatch(ss); err != nil {
			// Transport failure writing the response: the writer latched
			// it and closed the conn, unblocking the reader.
			s.Logger.Errorf("conn %s: pipelined %s: %v", ss.remote, ss.req.Op, err)
		}
		inflight.Add(-1)
		ss.reset()
		free <- ss
	}
}

// handshake runs challenge–response authentication. It returns the
// authenticated end user, or on a peer connection the peer server.
func (s *Server) handshake(c *wire.Conn) (user, peer string, err error) {
	nonce, err := auth.NewChallenge()
	if err != nil {
		return "", "", err
	}
	if err := c.WriteJSON(wire.MsgChallenge, wire.Challenge{Server: s.name, Nonce: nonce}); err != nil {
		return "", "", err
	}
	var a wire.Auth
	if err := c.ReadJSON(wire.MsgAuth, &a); err != nil {
		return "", "", err
	}
	switch {
	case a.Peer != "":
		if !s.authn.VerifyPeer(a.Peer, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.Peer, types.ErrAuth)))
			return "", "", types.E("auth", a.Peer, types.ErrAuth)
		}
		peer = a.Peer
	default:
		if !s.authn.VerifyUser(a.User, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.User, types.ErrAuth)))
			return "", "", types.E("auth", a.User, types.ErrAuth)
		}
		user = a.User
	}
	return user, peer, c.WriteJSON(wire.MsgAuthOK, wire.AuthOK{Server: s.name})
}

// resourceOwner names the peer owning resource, or "" when local.
func (s *Server) resourceOwner(resource string) string {
	res, err := s.broker.Cat.GetResource(resource)
	if err != nil || res.Server == "" || res.Server == s.name {
		return ""
	}
	if res.Kind == types.ResourceLogical && len(res.Members) > 0 {
		m, err := s.broker.Cat.GetResource(res.Members[0])
		if err == nil && (m.Server == "" || m.Server == s.name) {
			return ""
		}
	}
	return res.Server
}

// federate serves a get-style request for data owned by peerName:
// proxy mode relays the bytes, redirect mode hands the client the
// owning server's address. The forwarded request keeps req.Trace, so
// the same trace ID lands in both servers' records.
func (s *Server) federate(ss *session, peerName, user string, req *wire.Request) error {
	if s.mode == Redirect {
		addr, ok := s.PeerAddr(peerName)
		if !ok {
			return ss.fail(types.E(req.Op, peerName, types.ErrOffline))
		}
		return ss.redirect(peerName, addr)
	}
	// Serving a read through a peer is the federation-level failover:
	// either the data only lives there, or the local replica's resource
	// breaker routed around a failing driver.
	if ss.span != nil {
		ss.span.Event(obs.EventFailover, s.viaPeer(peerName))
	}
	rl := ss.relay()
	_, err := s.peerCall(peerName, user, req, nil, rl, ss.deadline, ss.span, rl.untouched)
	// A peer call that timed out may have left its last Write behind
	// (wire.Sink); the session is ours again once that Write is out, and
	// a Write that comes later finds the relay sealed. Such a relay is
	// the late Write's to keep: the slot drops it and makes another.
	rl.seal()
	defer rl.mu.Unlock()
	if err != nil {
		ss.rl = nil
		return ss.fail(err)
	}
	err = rl.finish()
	// The relay's bound on the client socket ends with the relay; the
	// session still holds the socket's write side.
	ss.w.nc.SetWriteDeadline(time.Time{})
	return err
}

// relay streams a proxied reply from the owning peer's connection to
// this request's client, chunk by chunk. The client's header is held
// back until the first payload byte arrives, so a peer that drops
// between its header and its data can still be retried; after that byte
// the reply cannot be rewound, and a failure aborts the client stream.
//
// Its writes run on the peer connection's reader and go to a socket a
// client may have stopped reading. Two things keep that from costing
// anyone else: the peer call has its connection to itself (peerCall), and
// the client socket's write deadline is the request's own for as long
// as the relay lasts, so a Write still blocked when the peer call times
// out fails at that same moment. mu lets the handler wait for it.
//
// That last Write can also come after the handler has taken mu and
// returned: wire.Sink lets the peer connection's reader enter the sink
// once more after the call has given up, and it may reach Write only
// once federate has replied. By then the session belongs to the
// connection's next request. So federate seals the relay under mu, and
// a sealed relay's Begin and Write fail without touching the session.
//
// A relay lives in its connection slot (session.relay), which reuses it,
// header buffer and all, for the slot's next proxied read once its call
// has succeeded; after a failed call the slot drops it, for a late Write
// may still come.
type relay struct {
	ss   *session
	body []byte // the peer's response body, relayed untouched

	mu     sync.Mutex
	begun  bool
	sealed bool
}

// errRelaySealed fails a relay's sink call that comes after its request
// was answered.
var errRelaySealed = errors.New("server: relay write after its request was answered")

// seal takes mu, waiting out a sink call in progress, and closes the
// relay to later ones. The caller unlocks mu.
func (r *relay) seal() {
	r.mu.Lock()
	r.sealed = true
}

// relay readies the slot's relay for a proxied read of this request,
// making one when the slot has none.
func (ss *session) relay() *relay {
	rl := ss.rl
	if rl == nil {
		rl = new(relay)
		ss.rl = rl
	}
	rl.ss, rl.body, rl.begun, rl.sealed = ss, rl.body[:0], false, false
	return rl
}

// Begin keeps the peer's header for the client (wire.Sink). The body is
// copied: an empty stream writes the client's header only after the peer
// call has returned and released the frame resp.Body is a slice of.
func (r *relay) Begin(resp *wire.Response) (io.Writer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return nil, errRelaySealed
	}
	r.body = append(r.body[:0], resp.Body...)
	return r, nil
}

// untouched reports that no byte has reached the client yet.
func (r *relay) untouched() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.begun
}

// begin puts the client's header on the wire; the caller holds mu.
func (r *relay) begin() error {
	r.begun = true
	return r.ss.beginStream(r.body, r.ss.deadline)
}

func (r *relay) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return 0, errRelaySealed
	}
	if !r.begun {
		if err := r.begin(); err != nil {
			return 0, err
		}
	}
	return r.ss.Write(p)
}

// finish completes a relay whose peer call succeeded; an empty stream
// still owes the client its header. The caller holds mu.
func (r *relay) finish() error {
	if !r.begun {
		return r.begin()
	}
	return nil
}

// peerBreaker returns the circuit breaker guarding one federated peer.
func (s *Server) peerBreaker(name string) *resilience.Breaker {
	return s.broker.Breakers().For("peer", name)
}

// peerCall sends req to a peer on user's behalf and returns the reply's
// body, except to a sink, whose Begin has had it. send, when set, is the
// request's data stream (a relayed ingest); sink, when set, takes the
// reply's.
//
// Each attempt gates on the peer's breaker, rewrites the remaining
// budget, makes the peer's span a child of sp and checks out a pooled
// conn. Only conn-level failures (dial refused, conn dropped, I/O
// deadline) count against the breaker: a peer answering with an
// application error is alive, and a reply that failed in our own sink
// (*wire.SinkError) says nothing about the peer. The conn goes back to
// the pool either way: one the call broke is evicted there, so no later
// call inherits it, and one a call timeout left healthy stays.
//
// A call with a stream to send or a sink to fill moves data to or from a
// third party (this request's client, a storage driver): it holds its
// conn for as long as the transfer lasts and stalls it when that party
// stalls, so it gets a conn to itself. The calls that share conns are
// the ones that cannot hold each other up.
//
// An idempotent op with nothing to send is retried under the server's
// backoff policy, but only while retry (nil = always) allows it: once
// payload bytes have reached a sink that cannot be rewound, a second
// attempt would duplicate them. A retry that allows nothing from the
// start gets the call one attempt.
func (s *Server) peerCall(peer, user string, req *wire.Request, send io.Reader, sink wire.Sink, deadline time.Time, sp *obs.Span, retry func() bool) ([]byte, error) {
	addr, ok := s.PeerAddr(peer)
	if !ok {
		return nil, types.E(req.Op, peer, types.ErrOffline)
	}
	fwd := *req
	fwd.OnBehalf = user
	var body []byte
	attempt := func() error {
		br := s.peerBreaker(peer)
		switch br.State() {
		case resilience.Open:
			s.broker.Metrics().Counter("federation.fastfail").Inc()
			sp.Event(obs.EventBreakerFast, "peer."+peer)
			return types.E(req.Op, peer, fmt.Errorf("peer breaker open: %w", types.ErrOffline))
		case resilience.HalfOpen:
			sp.Event(obs.EventBreakerProbe, "peer."+peer)
		}
		if err := fwd.SetBudget(deadline); err != nil {
			return err
		}
		fwd.Span = sp.SpanID()
		var m *wire.Mux
		var err error
		if send != nil || sink != nil {
			m, err = s.peerPool.GetExclusive(addr)
		} else {
			m, err = s.peerPool.Get(addr)
		}
		if err != nil {
			if br.Failure() {
				sp.Event(obs.EventBreakerTrip, "peer."+peer)
			}
			return types.E(req.Op, peer, err)
		}
		start := time.Now()
		var moved int64
		res, err := m.CallTo(&fwd, send, sink, deadline)
		if err == nil {
			if err = res.Check(req.Op, sink != nil); err == nil {
				moved = res.SentLen + res.DataLen
				if sink == nil {
					// The body outlives the reply's frame (a proxied reply
					// is relayed after the call returns).
					body = bytes.Clone(res.Resp.Body)
				}
			}
			res.Release()
		}
		hop := time.Since(start)
		sp.Phase(obs.PhaseFederationHop, hop)
		failed := err != nil && resilience.Transport(err) && !sinkFailed(err)
		// Every round trip feeds the transfer observatory's per-peer
		// latency, bandwidth and transport outcome.
		s.broker.Metrics().Peers().Record(peer, "", hop, moved, failed)
		s.peerPool.Put(m)
		if !failed {
			br.Success()
		} else if br.Failure() {
			sp.Event(obs.EventBreakerTrip, "peer."+peer)
		}
		return types.E(req.Op, peer, err)
	}
	if send != nil || !wire.Idempotent(req.Op) || (retry != nil && !retry()) {
		err := attempt()
		return body, err
	}
	r := s.retrier(deadline, sp)
	if retry != nil {
		r.Retryable = func(err error) bool { return retry() && resilience.Retryable(err) }
	}
	err := r.Do(attempt)
	return body, err
}

// sinkFailed reports a call that failed in our own sink (*wire.SinkError).
// It is its own function so that only a transport failure pays for the
// target errors.As needs on the heap.
func sinkFailed(err error) bool {
	var ours *wire.SinkError
	return errors.As(err, &ours)
}

// ShardPuller is the transport a follower pulls its leader's journal
// over: a peerCall to the leader, one of this server's peers, on behalf
// of admin. It shares the federation pool and the leader's breaker, so
// a dead leader fails the pull the way a dead peer fails any call; a
// pull is not idempotent, so it gets one attempt.
func (s *Server) ShardPuller(admin string) shard.PullFunc {
	return func(leader string, i int, from shard.Position) (shard.PullResult, error) {
		args, err := wire.AppendBody(nil, &wire.ShardPullArgs{Shard: i, From: from})
		if err != nil {
			return shard.PullResult{}, err
		}
		body, err := s.peerCall(leader, admin, &wire.Request{Op: wire.OpShardPull, Args: args}, nil, nil, time.Time{}, nil, nil)
		if err != nil {
			return shard.PullResult{}, err
		}
		var rep wire.ShardPullReply
		if err := wire.DecodeBody(body, &rep); err != nil {
			return shard.PullResult{}, types.E(wire.OpShardPull, leader, err)
		}
		return rep.PullResult, nil
	}
}

// retrier builds the federation retry loop for one idempotent request.
// Each retry lands as both a counter tick and an event on sp.
func (s *Server) retrier(deadline time.Time, sp *obs.Span) resilience.Retrier {
	return resilience.Retrier{
		Policy:   s.retry,
		Sleep:    s.sleep,
		Deadline: deadline,
		OnRetry: func(attempt int, err error) {
			s.broker.Metrics().Counter("federation.retries").Inc()
			sp.Event(obs.EventRetry, fmt.Sprintf("federation attempt %d: %v", attempt+1, err))
		},
	}
}

// dialPeerMux connects and peer-authenticates to addr, wrapping the
// conn in a Mux for pooling. The zone secret is resolved from the peer
// table by address at dial time, and s.peerDial is read per dial so a
// transport swapped in by fault injection applies to new connections.
func (s *Server) dialPeerMux(addr string) (*wire.Mux, error) {
	var secret string
	s.mu.RLock()
	for _, p := range s.peers {
		if p.addr == addr {
			secret = p.secret
		}
	}
	s.mu.RUnlock()
	dial := s.peerDial
	if dial == nil {
		dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, resilience.DialTimeout)
		}
	}
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return wire.Handshake(nc, wire.Auth{Peer: s.name}, auth.DeriveKey("peer:"+s.name, secret))
}

// parseLockKind maps wire lock names.
func parseLockKind(s string) (types.LockKind, error) {
	switch strings.ToLower(s) {
	case "shared":
		return types.LockShared, nil
	case "exclusive":
		return types.LockExclusive, nil
	default:
		return types.LockNone, types.E("lock", s, types.ErrInvalid)
	}
}

// env is what this server's status feeds report on, as seen by a caller
// who reaches the zone through z (nil: this server only).
func (s *Server) env(z report.Zone) report.Env {
	return report.Env{Name: s.name, Broker: s.broker, Zone: z, Pool: s.PeerPoolStats}
}

// reach is one caller's reach into the federation, for the status feeds
// that span it. Peers are asked with LocalOnly semantics — a request
// that arrives from a peer gets no zone — which bounds every gather to
// one hop.
type reach struct {
	s    *Server
	user string
	// deadline is the asking request's own; a local surface, which has
	// none, sets budget instead and each gather gets that long.
	deadline time.Time
	budget   time.Duration
	sp       *obs.Span
}

// peerNames lists the zone's peers in a stable order.
func (s *Server) peerNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// TraceSpans collects each peer's retained spans of one trace. Peer
// queries are best-effort (an unreachable peer just contributes
// nothing) and are sent without a trace ID, span or budget of their
// own, so fetching a trace never pollutes the trace being fetched.
func (z reach) TraceSpans(id traceid.ID) []obs.SpanRecord {
	var spans []obs.SpanRecord
	args, _ := wire.AppendBody(nil, &wire.TraceArgs{ID: id})
	for _, pn := range z.s.peerNames() {
		body, err := z.s.peerCall(pn, z.user, &wire.Request{Op: wire.OpTrace, Args: args}, nil, nil, time.Time{}, nil, nil)
		if err != nil {
			continue
		}
		var rep wire.TraceReply
		if wire.DecodeBody(body, &rep) == nil {
			spans = append(spans, rep.Spans...)
		}
	}
	return spans
}

// never allows no retry (see peerCall).
func never() bool { return false }

// GridMembers gathers each peer's windowed stats. Every hop gets a
// single attempt — no retry loop: partial answers are the point of the
// grid gather, so a dead peer must cost one failed dial inside the
// caller's deadline (and a breaker fast-fail on later scrapes), not a
// backoff cycle. It keeps its member slot with the error instead of
// silently vanishing.
func (z reach) GridMembers(window time.Duration) []wire.GridMember {
	if z.budget > 0 {
		z.deadline = time.Now().Add(z.budget)
	}
	var members []wire.GridMember
	args, _ := wire.AppendBody(nil, &wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: true})
	for _, pn := range z.s.peerNames() {
		m := wire.GridMember{Server: pn, Unreachable: true}
		var rep wire.GridStatReply
		body, err := z.s.peerCall(pn, z.user, &wire.Request{Op: wire.OpGridStat, Args: args}, nil, nil, z.deadline, z.sp, never)
		switch {
		case err != nil:
			m.Err = err.Error()
		case wire.DecodeBody(body, &rep) != nil || len(rep.Members) == 0:
			m.Err = "malformed grid-stat reply"
		default:
			m = rep.Members[0]
			m.Server = pn
		}
		members = append(members, m)
	}
	return members
}

// readiness reports whether the daemon over b is fully serviceable and
// a set of detail lines. Degrading conditions: any open circuit breaker
// (a peer or storage resource being routed around), an offline local
// resource, a catalog journal that stopped taking appends (mutations
// are refused until restart), or a wedged repair engine (tasks pending
// with no worker alive to drain them). When a repair engine is
// attached, the detail always carries one informational line with the
// queue backlog and the oldest task's age — a backlog alone is normal
// operation, not a degradation; likewise a firing SLO rule adds a
// "warn:" line without degrading (an objective miss is an alerting
// concern, not downtime).
// The admin /healthz endpoint turns !ok into HTTP 503.
func readiness(b *core.Broker, name string) (bool, []string) {
	var degraded []string
	for key, st := range b.Breakers().States() {
		if st == resilience.Open {
			degraded = append(degraded, "breaker "+key+" open")
		}
	}
	for _, r := range b.Cat.Resources() {
		if r.Kind != types.ResourcePhysical || r.Online {
			continue
		}
		if r.Server == "" || r.Server == name {
			degraded = append(degraded, "resource "+r.Name+" offline")
		}
	}
	if err := b.Cat.JournalErr(); err != nil {
		degraded = append(degraded, "journal append failing: "+err.Error())
	}
	eng := b.Repair()
	if eng != nil && eng.Wedged() {
		degraded = append(degraded, "repair engine wedged (non-empty queue, no workers alive)")
	}
	sort.Strings(degraded)
	detail := degraded
	if eng != nil {
		st := eng.Status()
		line := fmt.Sprintf("repair backlog=%d oldest_age=%s", st.Backlog, st.OldestAge.Truncate(time.Second))
		if st.Paused {
			line += " paused"
		}
		detail = append(detail, line)
	}
	for _, st := range b.SLO().Status() {
		if st.Violating {
			detail = append(detail, fmt.Sprintf("warn: slo %s violating (burn %.0f%%)", st.Rule, st.BurnPct))
		}
	}
	// Shard replication lag mirrors the repair-backlog treatment: when a
	// replag SLO rule is declared and a shard's exported lag gauge
	// exceeds its threshold, warn without degrading — lag is an alerting
	// concern, not downtime. The gauges (refreshed by the shard.sync and
	// shard.gauges jobs) are read as exported, so the probe agrees with what
	// /metrics and the SLO evaluator saw.
	if th, declared := replagThreshold(b.SLO()); declared {
		gauges := b.Metrics().Snapshot().Gauges
		var warns []string
		for name, v := range gauges {
			if strings.HasPrefix(name, "mcat.shard.") && strings.HasSuffix(name, ".replag_seconds") && float64(v) >= th {
				warns = append(warns, fmt.Sprintf("warn: %s at %ds exceeds slo threshold %.0fs (replication lag)", name, v, th))
			}
		}
		sort.Strings(warns)
		detail = append(detail, warns...)
	}
	return len(degraded) == 0, detail
}

// replagThreshold returns the tightest declared replag_seconds ceiling,
// and whether any replag rule exists at all.
func replagThreshold(ev *obs.SLOEvaluator) (float64, bool) {
	th, found := 0.0, false
	for _, r := range ev.Rules() {
		if r.Metric != obs.SLOReplag || !r.Less {
			continue
		}
		if !found || r.Threshold < th {
			th, found = r.Threshold, true
		}
	}
	return th, found
}

func incidentGet(c call, a wire.IncidentGetArgs) (wire.IncidentGetReply, error) {
	ir := c.b.Incidents()
	if ir == nil {
		return wire.IncidentGetReply{}, types.E(wire.OpIncidentGet, a.ID, fmt.Errorf("flight recorder disabled: %w", types.ErrUnsupported))
	}
	meta, files, err := ir.Get(a.ID)
	if err != nil {
		return wire.IncidentGetReply{}, types.E(wire.OpIncidentGet, a.ID, fmt.Errorf("%v: %w", err, types.ErrNotFound))
	}
	return wire.IncidentGetReply{Server: c.s.name, Meta: meta, Files: files}, nil
}

func incidentCapture(c call, a wire.IncidentCaptureArgs) (wire.IncidentCaptureReply, error) {
	ir := c.b.Incidents()
	if ir == nil {
		return wire.IncidentCaptureReply{}, types.E(wire.OpIncidentCapture, "", fmt.Errorf("flight recorder disabled: %w", types.ErrUnsupported))
	}
	reason := a.Reason
	if reason == "" {
		reason = "manual"
	}
	meta, err := ir.Capture(time.Now(), "manual", "manual", reason, 0)
	if err != nil {
		return wire.IncidentCaptureReply{}, types.E(wire.OpIncidentCapture, "", err)
	}
	return wire.IncidentCaptureReply{Server: c.s.name, Meta: meta}, nil
}
