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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/chunk"
	"gosrb/internal/core"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/resilience"
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
		Gate:    s.peerGate,
	})
	return s
}

// peerGate makes checkout breaker-aware: a pooled connection to a peer
// whose breaker is open fails fast at the pool, before any frame moves.
func (s *Server) peerGate(addr string) wire.Gate {
	name := s.peerNameByAddr(addr)
	if name == "" {
		return nil
	}
	return s.peerBreaker(name)
}

// peerNameByAddr reverse-resolves a peer address to its server name.
func (s *Server) peerNameByAddr(addr string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, p := range s.peers {
		if p.addr == addr {
			return name
		}
	}
	return ""
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
	s.flushPeerPool()
}

// flushPeerPool closes every pooled peer connection (transport swap).
func (s *Server) flushPeerPool() {
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

// Tickets exposes the server's delegated-access ticket store.
func (s *Server) Tickets() *auth.TicketStore { return s.tickets }

// AddPeer registers a federated peer and the shared zone secret used
// for server-to-server authentication.
func (s *Server) AddPeer(name, addr, secret string) {
	s.mu.Lock()
	s.peers[name] = peer{addr: addr, secret: secret}
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
// The identity fields (user/peer/remote/w) are shared by every request
// on the conn; the rest is per-request, forked fresh so pipelined
// handlers never share mutable state.
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
	// reqID is the request's correlation ID, echoed on every response.
	reqID uint64
	// in is the request's inbound bulk-data stream (nil when the op
	// carries none). The handler reads it straight off the connection
	// while the conn's reader loop waits on inDone; dispatch drains what
	// the handler left and releases the reader.
	in     *wire.DataReader
	inDone chan struct{}
	// staged is the plain reply awaiting dispatch's record-then-write;
	// redir, when set, replaces it with a federation redirect.
	staged wire.Response
	redir  *wire.Redirect
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
	// span is the current request's trace span; handlers and the layers
	// beneath them annotate it with retry/breaker/failover events.
	span *obs.Span
	// acctUser is the resolved effective user of the current request,
	// recorded by dispatchOp for usage accounting ("" = unresolved).
	acctUser string
	// bytesIn / bytesOut count bulk-data bytes received and sent while
	// serving the current request, for the usage accounting ledger.
	bytesIn  int64
	bytesOut int64
	// enqueued is when the reader loop finished reading the request. The
	// dispatch shim backdates the request span to it and attributes the
	// gap to the queue.wait phase.
	enqueued time.Time
}

// fork builds the per-request session for one dispatched request.
func (ss *session) fork(reqID uint64) *session {
	return &session{
		user: ss.user, peer: ss.peer, isPeer: ss.isPeer,
		remote: ss.remote, w: ss.w, reqID: reqID,
	}
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
		close(ss.inDone)
	}
}

// reply stages a success response with body.
func (ss *session) reply(body any) error {
	resp, err := wire.OkResponse(body, false)
	if err != nil {
		return err
	}
	ss.staged = resp
	return nil
}

// rawReply stages a success response with a pre-marshalled body (proxied
// replies relay the owning server's bytes untouched).
func (ss *session) rawReply(body json.RawMessage) error {
	ss.staged = wire.Response{OK: true, Body: body}
	return nil
}

// fail stages a failure response and records the error for the dispatch
// shim. Once a streamed reply has begun there is no response left to
// give: the stream is aborted and dispatch drops the connection.
func (ss *session) fail(err error) error {
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
	ss.redir = &wire.Redirect{ID: ss.reqID, Server: server, Addr: addr}
	return nil
}

// beginStream puts the header of a streamed reply on the wire: a success
// response announcing that data follows. From here the session owns the
// conn's write side; dispatch ends the stream and releases it. by, when
// set, is the socket's write deadline from the header on; whoever sets
// it lifts it again.
func (ss *session) beginStream(body json.RawMessage, by time.Time) error {
	resp := wire.Response{ID: ss.reqID, OK: true, Body: body, DataFollows: true}
	ss.w.mu.Lock()
	ss.streaming = true
	if !by.IsZero() {
		ss.w.nc.SetWriteDeadline(by)
	}
	return ss.w.write(func(c *wire.Conn) error {
		return c.WriteJSON(wire.MsgResponse, resp)
	})
}

// Write sends p as data frames of the begun stream.
func (ss *session) Write(p []byte) (int, error) {
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
// one pooled chunk. A src that can fail is passed as a *sourceReader, so
// its error is told apart from the transport's: a source that fails
// after the header cannot become an error response any more, and the
// stream is aborted.
func (ss *session) sendStream(body any, src io.Reader) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if err := ss.beginStream(raw, time.Time{}); err != nil {
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
	return ss.sendStream(wire.SizeReply{Size: int64(len(data))}, bytes.NewReader(data))
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

// maxPipelined bounds concurrently dispatched requests per connection;
// beyond it the reader loop applies backpressure by not reading the
// next request until a handler slot frees.
const maxPipelined = 64

func (s *Server) handleConn(nc net.Conn) error {
	c := wire.NewConn(nc)
	base, err := s.handshake(c)
	if err != nil {
		return err
	}
	base.remote = nc.RemoteAddr().String()
	base.w = &connWriter{c: c, nc: nc}
	reg := s.broker.Metrics()
	depthHist := reg.Op("server.pipeline.depth")
	pipeGauge := reg.Gauge("server.pipeline.inflight")
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, maxPipelined)
	var inflight atomic.Int64
	for {
		var req wire.Request
		if err := c.ReadJSON(wire.MsgRequest, &req); err != nil {
			return err
		}
		ss := base.fork(req.ID)
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
			resp := wire.ErrResponse(types.E(req.Op, "", fmt.Errorf("request without an ID: %w", types.ErrInvalid)))
			base.w.mu.Lock()
			err := base.w.write(func(c *wire.Conn) error { return c.WriteJSON(wire.MsgResponse, resp) })
			base.w.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		// Dispatch concurrently, bounded by maxPipelined. The depth
		// histogram records how deep the pipeline actually runs (depth
		// encoded as microseconds in the pow-2 buckets).
		depth := inflight.Add(1)
		depthHist.Observe(time.Duration(depth)*time.Microsecond, nil)
		pipeGauge.Add(1)
		ss.enqueued = time.Now()
		sem <- struct{}{}
		var inDone chan struct{}
		if ss.in != nil {
			inDone = make(chan struct{})
			ss.inDone = inDone
		}
		wg.Add(1)
		// req is this iteration's own variable, already on the heap for
		// ReadJSON: the handler shares it rather than taking a copy.
		go func(req *wire.Request, ss *session) {
			defer wg.Done()
			defer func() { <-sem; inflight.Add(-1); pipeGauge.Add(-1) }()
			if err := s.dispatch(ss, req); err != nil {
				// Transport failure writing the response: the writer
				// latched it and closed the conn, unblocking the reader.
				s.Logger.Errorf("conn %s: pipelined %s: %v", ss.remote, req.Op, err)
			}
		}(&req, ss)
		if inDone != nil {
			// The handler owns the conn's read side until its inbound
			// stream is drained; only then is the next frame a request.
			<-inDone
		}
	}
}

// handshake runs challenge–response authentication.
func (s *Server) handshake(c *wire.Conn) (*session, error) {
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, err
	}
	if err := c.WriteJSON(wire.MsgChallenge, wire.Challenge{Server: s.name, Nonce: nonce}); err != nil {
		return nil, err
	}
	var a wire.Auth
	if err := c.ReadJSON(wire.MsgAuth, &a); err != nil {
		return nil, err
	}
	ss := &session{}
	switch {
	case a.Peer != "":
		if !s.authn.VerifyPeer(a.Peer, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.Peer, types.ErrAuth)))
			return nil, types.E("auth", a.Peer, types.ErrAuth)
		}
		ss.peer, ss.isPeer = a.Peer, true
	default:
		if !s.authn.VerifyUser(a.User, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.User, types.ErrAuth)))
			return nil, types.E("auth", a.User, types.ErrAuth)
		}
		ss.user = a.User
	}
	return ss, c.WriteJSON(wire.MsgAuthOK, wire.AuthOK{Server: s.name})
}

// localityOf classifies where a file object's clean replicas live:
// "" means local (or not a plain file), otherwise the owning peer name.
func (s *Server) localityOf(path string) string {
	o, err := s.broker.Cat.GetObject(path)
	if err != nil || o.Kind != types.KindFile {
		return ""
	}
	check := o
	if o.Container != "" {
		cont, err := s.broker.Cat.GetObject(o.Container)
		if err != nil {
			return ""
		}
		check = cont
	}
	remote := ""
	for _, r := range check.Replicas {
		if r.Status != types.ReplicaClean {
			continue
		}
		res, err := s.broker.Cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			continue
		}
		if res.Server == s.name || res.Server == "" {
			// A local clean replica counts only while its resource
			// breaker passes traffic; a tripped local resource sends
			// the read to a surviving remote replica instead.
			if s.broker.Breakers().For("resource." + r.Resource).Allow() {
				return ""
			}
			continue
		}
		remote = res.Server
	}
	return remote
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
	addr, ok := s.PeerAddr(peerName)
	if !ok {
		return ss.fail(types.E(req.Op, peerName, types.ErrOffline))
	}
	if s.mode == Redirect {
		return ss.redirect(peerName, addr)
	}
	// Serving a read through a peer is the federation-level failover:
	// either the data only lives there, or the local replica's resource
	// breaker routed around a failing driver.
	ss.span.Event(obs.EventFailover, "read via peer "+peerName)
	rl := &relay{ss: ss}
	err := s.proxyGet(peerName, addr, user, req, ss.deadline, ss.span, rl, rl.untouched)
	// A peer call that timed out may have left its last Write behind
	// (wire.Sink); the session is ours again once that Write is out.
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if err != nil {
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
// anyone else: the peer call has its connection to itself (peerDo), and
// the client socket's write deadline is the request's own for as long
// as the relay lasts, so a Write still blocked when the peer call times
// out fails at that same moment. mu lets the handler wait for it.
type relay struct {
	ss   *session
	body json.RawMessage // the peer's response body, relayed untouched

	mu    sync.Mutex
	begun bool
}

// Begin keeps the peer's header for the client (wire.Sink).
func (r *relay) Begin(resp *wire.Response) (io.Writer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.body = resp.Body
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
	return s.broker.Breakers().For("peer." + name)
}

// peerDo runs one attempt against a peer: breaker gate, remaining-
// budget rewrite, pooled checkout, and outcome recording. Only
// conn-level failures (dial refused, conn dropped, I/O deadline) count
// against the breaker — a peer answering with an application error is
// alive. A transport failure also evicts the checked-out connection so
// no later federation call inherits a broken conn.
//
// stream says the call moves bulk data to or from a third party (this
// request's client, a storage driver). Such a call holds its conn for
// as long as the transfer lasts and stalls it when that party stalls,
// so it gets a conn to itself; the calls that share conns are the ones
// that cannot hold each other up.
func (s *Server) peerDo(peerName, addr string, deadline time.Time, req *wire.Request, sp *obs.Span, stream bool, fn func(*peerConn) error) error {
	br := s.peerBreaker(peerName)
	switch br.State() {
	case resilience.Open:
		s.broker.Metrics().Counter("federation.fastfail").Inc()
		sp.Event(obs.EventBreakerFast, "peer."+peerName)
		return types.E(req.Op, peerName, fmt.Errorf("peer breaker open: %w", types.ErrOffline))
	case resilience.HalfOpen:
		sp.Event(obs.EventBreakerProbe, "peer."+peerName)
	}
	if err := req.SetBudget(deadline); err != nil {
		return err
	}
	// The span the peer opens for this request becomes a child of ours,
	// so the federated hop shows up as a subtree when reassembled.
	req.Span = sp.SpanID()
	checkOut := s.peerPool.Get
	if stream {
		checkOut = s.peerPool.GetExclusive
	}
	m, err := checkOut(addr)
	if err != nil {
		if br.Failure() {
			sp.Event(obs.EventBreakerTrip, "peer."+peerName)
		}
		return types.E(req.Op, peerName, err)
	}
	pc := &peerConn{m: m, deadline: deadline}
	start := time.Now()
	err = fn(pc)
	hop := time.Since(start)
	sp.Phase(obs.PhaseFederationHop, hop)
	// A reply that failed in our own sink — this request's client hung up
	// or stopped reading, the local store gave out — says nothing about
	// the peer, however much its error looks like a transport's.
	var ours *wire.SinkError
	failed := err != nil && resilience.Transport(err) && !errors.As(err, &ours)
	// Feed the transfer observatory: every peer round trip contributes
	// latency, moved bytes and transport-level outcome to the per-peer
	// history (an application error proves the peer alive).
	s.broker.Metrics().Peers().Record(peerName, "", hop, pc.bytes, failed)
	if failed {
		s.peerPool.Fail(m)
		if br.Failure() {
			sp.Event(obs.EventBreakerTrip, "peer."+peerName)
		}
	} else {
		s.peerPool.Put(m)
		br.Success()
	}
	if err != nil {
		return types.E(req.Op, peerName, err)
	}
	return nil
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

// proxyGet sends a data-returning request to a peer over a
// peer-authenticated connection and directs the reply's data stream
// into sink. Idempotent ops are retried under the server's backoff
// policy, but only while retry (nil = always) still allows it: once
// payload bytes have reached a sink that cannot be rewound, a second
// attempt would duplicate them.
func (s *Server) proxyGet(peerName, addr, user string, req *wire.Request, deadline time.Time, sp *obs.Span, sink wire.Sink, retry func() bool) error {
	do := func() error {
		fwd := *req
		fwd.OnBehalf = user
		return s.peerDo(peerName, addr, deadline, &fwd, sp, true, func(pc *peerConn) error {
			_, err := pc.roundTrip(&fwd, nil, sink)
			return err
		})
	}
	if !wire.Idempotent(req.Op) {
		return do()
	}
	r := s.retrier(deadline, sp)
	if retry != nil {
		r.Retryable = func(err error) bool { return retry() && resilience.Retryable(err) }
	}
	return r.Do(do)
}

// proxyCall relays a non-data request to a peer. With retry, an
// idempotent op runs under the server's backoff policy; without, the hop
// gets a single attempt.
func (s *Server) proxyCall(peerName, user string, req *wire.Request, deadline time.Time, sp *obs.Span, retry bool) (json.RawMessage, error) {
	addr, ok := s.PeerAddr(peerName)
	if !ok {
		return nil, types.E(req.Op, peerName, types.ErrOffline)
	}
	var body json.RawMessage
	do := func() error {
		fwd := *req
		fwd.OnBehalf = user
		return s.peerDo(peerName, addr, deadline, &fwd, sp, false, func(pc *peerConn) error {
			b, err := pc.roundTrip(&fwd, nil, nil)
			body = b
			return err
		})
	}
	var err error
	if retry && wire.Idempotent(req.Op) {
		err = s.retrier(deadline, sp).Do(do)
	} else {
		err = do()
	}
	return body, err
}

// peerConn is one checked-out federation call slot: a pooled Mux plus
// the request's deadline. The Mux enforces the deadline per call (a
// peer that stops answering mid-exchange fails the request instead of
// hanging it) and lets many federation calls share one authenticated
// connection.
type peerConn struct {
	m        *wire.Mux
	deadline time.Time
	// bytes counts bulk payload moved on this call (either direction),
	// for the peer transfer observatory's bandwidth EWMA.
	bytes int64
}

// dialPeerMux connects and peer-authenticates to addr, wrapping the
// conn in a Mux for pooling. The zone secret is resolved from the peer
// table by address at dial time, and s.peerDial is read per dial so a
// transport swapped in by fault injection applies to new connections.
func (s *Server) dialPeerMux(addr string) (*wire.Mux, error) {
	name := s.peerNameByAddr(addr)
	s.mu.RLock()
	secret := s.peers[name].secret
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

// roundTrip is one call on the checked-out conn: req, then the stream
// data when the op sends one (a relayed ingest), and a reply whose data
// stream goes into sink when the op returns one.
func (p *peerConn) roundTrip(req *wire.Request, data io.Reader, sink wire.Sink) (json.RawMessage, error) {
	res, err := p.m.CallTo(req, data, sink, p.deadline)
	if err != nil {
		return nil, err
	}
	if err := res.Check(req.Op, sink != nil); err != nil {
		return nil, err
	}
	p.bytes += res.SentLen + res.DataLen
	return res.Resp.Body, nil
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
func (z reach) TraceSpans(id string) []obs.SpanRecord {
	var spans []obs.SpanRecord
	args, _ := json.Marshal(wire.TraceArgs{ID: id})
	for _, pn := range z.s.peerNames() {
		body, err := z.s.proxyCall(pn, z.user, &wire.Request{Op: wire.OpTrace, Args: args}, time.Time{}, nil, true)
		if err != nil {
			continue
		}
		var rep wire.TraceReply
		if json.Unmarshal(body, &rep) == nil {
			spans = append(spans, rep.Spans...)
		}
	}
	return spans
}

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
	args, _ := json.Marshal(wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: true})
	for _, pn := range z.s.peerNames() {
		m := wire.GridMember{Server: pn, Unreachable: true}
		var rep wire.GridStatReply
		body, err := z.s.proxyCall(pn, z.user, &wire.Request{Op: wire.OpGridStat, Args: args}, z.deadline, z.sp, false)
		switch {
		case err != nil:
			m.Err = err.Error()
		case json.Unmarshal(body, &rep) != nil || len(rep.Members) == 0:
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
