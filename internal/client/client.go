// Package client is the SRB client library: it speaks the wire
// protocol to any federated server, authenticates with
// challenge–response (the password never crosses the wire), follows
// federation redirects transparently, and offers the Scommand-style
// operation set plus parallel multi-stream bulk transfer.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// DialTimeout bounds connection establishment. It is the same tunable
// the server uses for peer dials (resilience.DialTimeout).
const DialTimeout = resilience.DialTimeout

// Client is one authenticated identity against an SRB server, backed
// by a bounded connection pool of multiplexed connections through which
// every call goes. Methods are safe for concurrent use; concurrent calls
// pipeline over shared connections instead of queueing, and each of
// ParallelGet's streams leases a connection of its own from the pool
// (wire.Pool.GetExclusive), with the client's timeout, retries and
// telemetry.
type Client struct {
	mu sync.Mutex
	// pool owns the authenticated connections; checkout dials lazily
	// and transport errors evict, so reconnect-on-error falls out of
	// the checkout path.
	pool *wire.Pool
	addr string
	// server is the federation name reported at handshake.
	server string

	user     string
	password string

	// dial allows tests to shape connections.
	dial func(addr string) (net.Conn, error)

	// timeout, when set, bounds each logical call; the remaining budget
	// rides in wire.Request.TimeoutMillis so every server on the
	// federation path inherits it.
	timeout time.Duration
	// retry shapes automatic retries. Only idempotent (read-only) ops
	// are ever retried; see wire.Idempotent.
	retry resilience.Policy
	sleep func(time.Duration)
	randf func() float64
	// retries counts retry attempts actually performed (tests and the
	// Scommand -v output read it via Retries). Atomic: calls overlap.
	retries atomic.Int64
	// lastTrace remembers the trace ID minted for the most recent
	// logical call, so callers can fetch its span tree afterwards.
	lastTrace traceid.ID
	// metrics, when set, receives client-side latency-decomposition
	// phases (serialize, pool checkout, mux in-flight, dial) as
	// phase.client.* ops, plus the connection pool's wire.pool.*
	// gauges and checkout-wait histogram.
	metrics atomic.Pointer[obs.Registry]
}

// Dial connects and authenticates to the server at addr.
func Dial(addr, user, password string) (*Client, error) {
	return DialWith(addr, user, password, nil)
}

// DialWith is Dial with a custom transport dialer (nil = TCP).
func DialWith(addr, user, password string, dialer func(addr string) (net.Conn, error)) (*Client, error) {
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, DialTimeout)
		}
	}
	cl := &Client{
		addr: addr, user: user, password: password, dial: dialer,
		retry: resilience.DefaultPolicy, sleep: time.Sleep,
	}
	cl.pool = wire.NewPool(wire.PoolConfig{Dial: cl.dialMux, Prefix: "wire.pool"})
	// Authenticate eagerly so bad credentials and dead servers fail at
	// Dial, matching the one-conn-per-client behaviour this replaces.
	m, err := cl.pool.Get(addr)
	if err != nil {
		cl.pool.Close()
		return nil, err
	}
	cl.server = m.Server()
	cl.pool.Put(m)
	return cl, nil
}

// dialMux establishes and authenticates one pooled connection.
func (cl *Client) dialMux(addr string) (*wire.Mux, error) {
	start := time.Now()
	defer func() { cl.phase("conn", obs.PhaseDial, time.Since(start), 0) }()
	nc, err := cl.dial(addr)
	if err != nil {
		return nil, types.E("dial", addr, err)
	}
	return wire.Handshake(nc, wire.Auth{User: cl.user}, auth.DeriveKey(cl.user, cl.password))
}

// PoolStats reports the connection pool's occupancy and lifetime dial,
// eviction and idle-reap counts.
func (cl *Client) PoolStats() wire.PoolStats { return cl.pool.Stats() }

// SetTimeout bounds each logical call (0 = unbounded). The budget is
// carried on the wire, so federation hops enforce what remains of it.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.mu.Lock()
	cl.timeout = d
	cl.mu.Unlock()
}

// SetRetryPolicy tunes automatic retries of idempotent operations.
// MaxAttempts of 1 disables them.
func (cl *Client) SetRetryPolicy(p resilience.Policy) {
	cl.mu.Lock()
	if p.MaxAttempts > 0 {
		cl.retry = p
	}
	cl.mu.Unlock()
}

// SetMetrics attaches a telemetry registry: every call then records its
// client-side latency phases (phase.client.<op>.<phase> histograms with
// trace-ID tail exemplars) and the connection pool exports its
// wire.pool.* stats into the same registry.
func (cl *Client) SetMetrics(reg *obs.Registry) {
	cl.metrics.Store(reg)
	cl.pool.SetMetrics(reg)
}

// phase records one client-side latency phase (no-op without an
// attached registry).
func (cl *Client) phase(op, name string, d time.Duration, trace traceid.ID) {
	reg := cl.metrics.Load()
	if reg == nil {
		return
	}
	reg.OpAt(obs.PhasePrefix, "client.", op, ".", name).ObserveTrace(d, nil, trace)
}

// Retries reports how many retry attempts this client has performed.
func (cl *Client) Retries() int64 {
	return cl.retries.Load()
}

// Close drops every pooled connection.
func (cl *Client) Close() error {
	cl.pool.Close()
	return nil
}

// Server returns the federation name of the currently connected server.
func (cl *Client) Server() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.server
}

// Addr returns the address currently connected to (it changes after a
// federation redirect).
func (cl *Client) Addr() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.addr
}

// xfer is one logical call's state besides its args and its reply body:
// the stream sent after the request, where the stream that follows the
// response goes, and whether the call needs a conn of its own. A call
// that brings no stream of its own takes a pooled xfer (newXfer) and
// hands it back (free).
type xfer struct {
	// send is streamed after the request (nil = the op sends none). It is
	// read once.
	send io.Reader
	// to receives the reply's data stream. When nil the stream is
	// collected in memory instead, into one buffer allocated at the
	// length the reply announces, and left in buf.
	to io.Writer
	// rewound, when set, supplies to afresh for every attempt, positioned
	// at the start of the reply: a writer that can be taken back there
	// does not end the retries by having been written to.
	rewound func() io.Writer
	// mget receives a multiget's manifest, which announces that length;
	// nil reads a wire.SizeReply.
	mget []MultiGetResult
	// ticket rides on every attempt's request (GetWithTicket).
	ticket string

	// buf is the current attempt's in-memory result: own on the first
	// attempt, one of its own on a retry (Begin).
	buf *wire.Buffer
	own wire.Buffer
	// wrote counts the bytes handed to `to` (by the last attempt, when
	// rewound). Atomic because a call that timed out may still be inside
	// its last Write when it returns (wire.Sink).
	wrote atomic.Int64
	// exclusive leases each attempt a conn no other call shares
	// (wire.Pool.GetExclusive): one of ParallelGet's streams.
	exclusive bool
	// retried is set once an attempt has failed and another is made.
	retried bool
	// data is the reader Put sends its bytes through.
	data bytes.Reader
	// freed marks, under the framecanary build tag, an xfer its caller
	// has freed, which is then never lent again (package lend).
	freed bool
}

// xferPool lends xfers: one is in flight per call the process has
// outstanding.
var xferPool = lend.NewPool(64, func() *xfer { return new(xfer) })

// newXfer lends an empty xfer from the pool.
func newXfer() *xfer { return xferPool.Get() }

// free hands a pooled x back once its caller has read what it keeps
// (bytes). A call that failed, or failed once and was retried, may have
// left the connection's reader inside x — a sink its deadline abandoned
// (wire.Sink) — so its x is left to the GC instead. Freeing zeroes x,
// its own buffer with it, so the slice bytes handed the caller is never
// appended to again.
func (x *xfer) free(err error) {
	if err != nil || x.retried {
		return
	}
	*x = xfer{freed: lend.Canary}
	xferPool.Put(x)
}

// errFreed fails a use of an xfer after free.
var errFreed = errors.New("client: call state used after free")

// Begin directs one attempt's reply stream (wire.Sink). Every attempt
// collects into a buffer of its own, or into its writer rewound, so a
// retry starts clean whatever became of the attempt before it; a plain
// writer cannot be rewound, which is why retryable stops allowing
// retries once it has taken a byte. The first attempt's buffer is x's
// own; a retry's is new, because the attempt before it may still be
// writing into the one it had.
func (x *xfer) Begin(resp *wire.Response) (io.Writer, error) {
	if x.freed {
		return nil, lend.Stale("client: xfer", errFreed)
	}
	if x.rewound != nil {
		x.to = x.rewound()
		x.wrote.Store(0)
	}
	if x.to != nil {
		return x, nil
	}
	x.buf = &x.own
	if x.retried {
		x.buf = new(wire.Buffer)
	}
	if x.mget == nil {
		if err := x.buf.Presize(resp.Body); err != nil {
			return nil, err
		}
		return x.buf, nil
	}
	size, err := manifest(resp.Body, x.mget)
	if err != nil {
		return nil, err
	}
	x.buf.Grow(size)
	return x.buf, nil
}

// Write passes reply bytes on to the caller's writer.
func (x *xfer) Write(p []byte) (int, error) {
	if x.freed {
		return 0, lend.Stale("client: xfer", errFreed)
	}
	n, err := x.to.Write(p)
	x.wrote.Add(int64(n))
	return n, err
}

// retryable narrows resilience.Retryable to what can be done twice: a
// call may be re-attempted only while no reply byte has reached a writer
// that cannot be rewound.
func (x *xfer) retryable(err error) bool {
	return x.wrote.Load() == 0 && resilience.Retryable(err)
}

// bytes returns the in-memory result of the last attempt.
func (x *xfer) bytes() []byte {
	if x.buf == nil {
		return nil
	}
	return x.buf.Bytes()
}

// none is the out of a call whose reply body is not read.
var none *struct{}

// call performs one logical call of op with its bulk-data half described
// by x. args are encoded once, into a pooled frame that every attempt
// sends, and neither they nor out escape: the reply body is decoded into
// out (none: not read) before the response's frame goes back to the
// pool.
func call[A, R any](cl *Client, op string, args A, x *xfer, out *R) error {
	start := time.Now()
	bp := wire.GetFrame()
	defer wire.PutFrame(bp)
	raw, err := wire.AppendBody(*bp, &args)
	*bp = raw
	if err != nil {
		return err
	}
	res, err := cl.do(op, raw, x, time.Since(start))
	if err != nil {
		return err
	}
	defer res.Release()
	if out != nil {
		if err := wire.DecodeBody(res.Resp.Body, out); err != nil {
			return types.E(op, "", err)
		}
	}
	return nil
}

// ask performs one logical call that moves no stream either way, in a
// pooled xfer, and returns its reply by value: a method that passed a
// pointer to its own variable instead is often inlined into its
// caller's package, and there the pointer made the variable escape.
func ask[R, A any](cl *Client, op string, args A) (R, error) {
	var out R
	err := exec(cl, op, args, &out)
	return out, err
}

// exec is ask with the reply decoded into out (none: not read).
func exec[A, R any](cl *Client, op string, args A, out *R) error {
	x := newXfer()
	err := call(cl, op, args, x, out)
	x.free(err)
	return err
}

// fetch performs one logical call whose reply stream is collected in
// memory, and returns the stream. A call that failed returns no bytes:
// the conn's reader may still be filling its buffer (wire.Sink).
func fetch[A any](cl *Client, op string, args A) ([]byte, error) {
	x := newXfer()
	if err := call(cl, op, args, x, none); err != nil {
		return nil, err
	}
	data := x.bytes()
	x.free(nil)
	return data, nil
}

// Call performs one logical call of an op that moves no bulk data, for
// callers that know the op by its table row rather than by a method
// here: args is the op's argument struct, out receives the reply.
func (cl *Client) Call(op string, args, out any) error {
	if out == nil {
		return exec(cl, op, args, none)
	}
	return exec(cl, op, args, &out)
}

// do performs the attempts of one logical call: args are its encoded
// arguments, ser the time encoding them took and x its bulk-data half.
// It returns the last attempt's answer for the caller to decode and
// release. Each
// logical call mints one trace ID, kept across redirect and retry
// attempts, so the servers involved all record it under the same trace.
//
// Idempotent operations that fail with a retryable error (offline,
// timeout, transport) are retried under the client's backoff policy; a
// transport error additionally reconnects first, since the conn is
// poisoned mid-protocol. Mutating ops get exactly one attempt — a lost
// response does not prove the mutation was lost — and a reply stream
// that has reached the caller's writer ends the retries too.
func (cl *Client) do(op string, args []byte, x *xfer, ser time.Duration) (*wire.CallResult, error) {
	trace := traceid.New()
	cl.phase(op, obs.PhaseSerialize, ser, trace)
	cl.mu.Lock()
	cl.lastTrace = trace
	timeout, policy := cl.timeout, cl.retry
	sleep, randf := cl.sleep, cl.randf
	cl.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if !wire.Idempotent(op) {
		policy.MaxAttempts = 1
	}
	// attempt rides in wire.Request.Attempt so the serving server can
	// record a retry event on the span of each re-attempt — client-side
	// retries become visible in the trace without a client-side ring.
	attempt := 0
	r := resilience.Retrier{
		Policy: policy, Sleep: sleep, Rand: randf, Deadline: deadline,
		OnRetry: func(int, error) { cl.retries.Add(1); attempt++; x.retried = true },
	}
	if x.to != nil {
		r.Retryable = x.retryable
	}
	var res *wire.CallResult
	err := r.Do(func() (err error) {
		// A transport error evicted the failed conn inside callOnce, so
		// the next attempt's checkout dials a clean connection —
		// reconnect-on-transport-error lives in the pool now.
		res, err = cl.callRedirect(op, args, x, trace, attempt, deadline)
		return err
	})
	return res, err
}

// callRedirect performs one attempt, following federation redirects.
func (cl *Client) callRedirect(op string, args []byte, x *xfer, trace traceid.ID, attempt int, deadline time.Time) (*wire.CallResult, error) {
	addr := cl.Addr()
	for redirects := 0; ; redirects++ {
		res, err := cl.callOnce(addr, op, args, x, trace, attempt, deadline)
		if err != nil {
			return nil, err
		}
		redirect := res.Redirect
		if redirect == nil {
			return res, nil
		}
		if redirects >= 4 || x.send != nil {
			// Servers redirect reads only; a body already sent is spent.
			return nil, types.E(op, redirect.Addr, types.ErrInvalid)
		}
		// Transparent federation redirect: switch addresses and retry
		// (the pool dials the new server on checkout — single sign-on
		// means the same credential works on every zone server). The
		// switch sticks so later calls start at the owning server.
		addr = redirect.Addr
		cl.mu.Lock()
		cl.addr = addr
		cl.mu.Unlock()
	}
}

// callOnce sends the request once and returns its answer: a redirect,
// or a success response whose body the caller decodes before it releases
// it. A failure response is released here and returned as its error.
func (cl *Client) callOnce(addr, op string, args []byte, x *xfer, trace traceid.ID, attempt int, deadline time.Time) (*wire.CallResult, error) {
	req := wire.Request{Op: op, Args: args, Ticket: x.ticket, Trace: trace, Attempt: attempt}
	// The wire budget tells the server chain how long this call may take;
	// the Mux enforces it locally so a stalled server cannot hang the
	// client past it.
	if err := req.SetBudget(deadline); err != nil {
		return nil, err
	}
	coStart := time.Now()
	get := cl.pool.Get
	if x.exclusive {
		get = cl.pool.GetExclusive
	}
	m, err := get(addr)
	cl.phase(op, obs.PhasePoolCheckout, time.Since(coStart), trace)
	if err != nil {
		return nil, err
	}
	callStart := time.Now()
	res, err := m.CallTo(&req, x.send, x, deadline)
	cl.phase(op, obs.PhaseMuxInflight, time.Since(callStart), trace)
	// A conn the call broke is evicted; one a call timeout left healthy
	// stays (the late response is discarded by ID).
	cl.pool.Put(m)
	if err != nil {
		return nil, types.E(op, "", err)
	}
	cl.mu.Lock()
	cl.server = m.Server()
	cl.mu.Unlock()
	if res.Redirect != nil {
		return res, nil
	}
	if err := res.Check(op, false); err != nil {
		res.Release()
		return nil, err
	}
	return res, nil
}

// ---- Scommand-style API ----

// Mkdir creates a collection (Smkdir).
func (cl *Client) Mkdir(path string) error {
	return exec(cl, wire.OpMkdir, wire.PathArgs{Path: path}, none)
}

// RmColl removes an empty collection (Srmdir).
func (cl *Client) RmColl(path string) error {
	return exec(cl, wire.OpRmColl, wire.PathArgs{Path: path}, none)
}

// List lists a collection (Sls).
func (cl *Client) List(path string) ([]types.Stat, error) {
	return ask[[]types.Stat](cl, wire.OpList, wire.PathArgs{Path: path})
}

// Stat describes a path.
func (cl *Client) Stat(path string) (types.Stat, error) {
	return ask[types.Stat](cl, wire.OpStat, wire.PathArgs{Path: path})
}

// GetObject fetches the full catalog record of an object.
func (cl *Client) GetObject(path string) (types.DataObject, error) {
	return ask[types.DataObject](cl, wire.OpGetObject, wire.PathArgs{Path: path})
}

// PutOpts parameterise Put.
type PutOpts struct {
	Resource  string
	Container string
	DataType  string
	Meta      []types.AVU
}

// Put ingests data at path (Sput).
func (cl *Client) Put(path string, data []byte, opts PutOpts) (types.DataObject, error) {
	x := newXfer()
	x.data.Reset(data)
	x.send = &x.data
	return cl.put(path, x, opts)
}

// PutFrom ingests the stream r at path: the bytes go from r to the
// socket through one pooled chunk, so an object of any size is sent in
// fixed memory. An ingest is sent exactly once, never retried.
func (cl *Client) PutFrom(path string, r io.Reader, opts PutOpts) (types.DataObject, error) {
	x := newXfer()
	x.send = r
	return cl.put(path, x, opts)
}

// put ingests x's stream at path, in x, a pooled xfer.
func (cl *Client) put(path string, x *xfer, opts PutOpts) (types.DataObject, error) {
	var out types.DataObject
	args := wire.IngestArgs{
		Path: path, Resource: opts.Resource, Container: opts.Container,
		DataType: opts.DataType, Meta: opts.Meta,
	}
	err := call(cl, wire.OpIngest, args, x, &out)
	x.free(err)
	return out, err
}

// Reput replaces an object's contents, keeping its metadata.
func (cl *Client) Reput(path string, data []byte) error {
	return cl.ReputFrom(path, bytes.NewReader(data))
}

// ReputFrom is Reput with the new contents streamed from r.
func (cl *Client) ReputFrom(path string, r io.Reader) error {
	return call(cl, wire.OpReingest, wire.PathArgs{Path: path}, &xfer{send: r}, none)
}

// Get retrieves an object's contents (Sget) into one buffer allocated at
// the size the server announces.
func (cl *Client) Get(path string) ([]byte, error) {
	return fetch(cl, wire.OpGet, wire.PathArgs{Path: path})
}

// GetTo retrieves an object's contents into w and returns the bytes
// written: the stream goes from the socket to w through one pooled
// chunk, so an object of any size is received in fixed memory. Because
// w cannot be rewound, the call is retried only while nothing has been
// written to it.
//
// w is written by the connection's reader, which this client's other
// calls on that connection wait on too: a slow w slows them. With a
// timeout set, a w that blocks past it fails the call on time, but the
// Write in progress is left to return by itself — w is not written
// again after that, and is the caller's to reuse only once it has.
func (cl *Client) GetTo(path string, w io.Writer) (int64, error) {
	x := &xfer{to: w}
	err := call(cl, wire.OpGet, wire.PathArgs{Path: path}, x, none)
	return x.wrote.Load(), err
}

// GetRange reads length bytes at offset; length < 0 reads to the end.
func (cl *Client) GetRange(path string, offset, length int64) ([]byte, error) {
	return fetch(cl, wire.OpReadRange, wire.RangeArgs{Path: path, Offset: offset, Length: length})
}

// GetRangeTo is GetRange streamed into w (see GetTo for the retry rule).
func (cl *Client) GetRangeTo(path string, offset, length int64, w io.Writer) (int64, error) {
	x := &xfer{to: w}
	err := call(cl, wire.OpReadRange, wire.RangeArgs{Path: path, Offset: offset, Length: length}, x, none)
	return x.wrote.Load(), err
}

// ParallelGet retrieves an object over streams concurrent connections
// (at most MaxStreams), each fetching a contiguous range — SRB's
// parallel bulk transfer. Each stream leases a pooled connection of its
// own for each attempt.
func (cl *Client) ParallelGet(path string, streams int) ([]byte, error) {
	st, err := cl.Stat(path)
	if err != nil {
		return nil, err
	}
	out := make(sliceAt, st.Size)
	if err := cl.parallelTo(path, st.Size, streams, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelGetTo is ParallelGet with every stream writing its range
// straight into w at the range's own offset — a file of any size is
// fetched in fixed memory. It returns the object's size.
func (cl *Client) ParallelGetTo(path string, streams int, w io.WriterAt) (int64, error) {
	st, err := cl.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size, cl.parallelTo(path, st.Size, streams, w)
}

// sliceAt is a byte slice as an io.WriterAt.
type sliceAt []byte

func (s sliceAt) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(s)) {
		return 0, io.ErrShortWrite
	}
	return copy(s[off:], p), nil
}

// getAt runs a get-style op with the reply written to w from off on. A
// position can be returned to, and writing the same bytes there again
// changes nothing, so the call keeps the retries a plain writer loses
// with its first byte. exclusive leases the call a conn of its own.
func getAt[A any](cl *Client, op string, args A, w io.WriterAt, off int64, exclusive bool) (int64, error) {
	x := &xfer{rewound: func() io.Writer { return io.NewOffsetWriter(w, off) }, exclusive: exclusive}
	err := call(cl, op, args, x, none)
	return x.wrote.Load(), err
}

// MaxStreams caps the streams of one parallel get. Each stream leases a
// connection of its own, which the pool's MaxConns does not hold back
// (wire.Pool.GetExclusive), so this cap is what bounds the goroutines and
// connections a single call starts.
const MaxStreams = 16

// streamCount is how many streams a parallel get of size bytes runs when
// asked for streams: at least one, at most MaxStreams, and no more than
// the object has bytes.
func streamCount(size int64, streams int) int {
	n := int64(min(max(streams, 1), MaxStreams))
	return int(max(min(n, size), 1))
}

func (cl *Client) parallelTo(path string, size int64, streams int, w io.WriterAt) error {
	streams = streamCount(size, streams)
	if streams == 1 {
		_, err := getAt(cl, wire.OpGet, wire.PathArgs{Path: path}, w, 0, false)
		return err
	}
	chunk := (size + int64(streams) - 1) / int64(streams)
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		off := int64(i) * chunk
		length := chunk
		if off+length > size {
			length = size - off
		}
		go func(off, length int64) {
			n, err := getAt(cl, wire.OpReadRange, wire.RangeArgs{Path: path, Offset: off, Length: length}, w, off, true)
			if err == nil && n != length {
				err = types.E("parallelget", path, fmt.Errorf("short range read (%d of %d)", n, length))
			}
			errs <- err
		}(off, length)
	}
	var first error
	for i := 0; i < streams; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Replicate adds a replica on resource (Sreplicate).
func (cl *Client) Replicate(path, resource string) (types.Replica, error) {
	return ask[types.Replica](cl, wire.OpReplicate, wire.ReplicateArgs{Path: path, Resource: resource})
}

// Delete removes an object (Srm).
func (cl *Client) Delete(path string) error {
	return exec(cl, wire.OpDelete, wire.PathArgs{Path: path}, none)
}

// DeleteReplica removes one replica.
func (cl *Client) DeleteReplica(path string, number int) error {
	return exec(cl, wire.OpDeleteReplica, wire.ReplicaArgs{Path: path, Number: number}, none)
}

// Move renames an object or collection (Smv).
func (cl *Client) Move(src, dst string) error {
	return exec(cl, wire.OpMove, wire.MoveArgs{Src: src, Dst: dst}, none)
}

// Copy copies an object or collection (Scp).
func (cl *Client) Copy(src, dst, resource string) error {
	return exec(cl, wire.OpCopy, wire.CopyArgs{Src: src, Dst: dst, Resource: resource}, none)
}

// Link creates a soft link (Sln).
func (cl *Client) Link(target, linkPath string) error {
	return exec(cl, wire.OpLink, wire.LinkArgs{Target: target, LinkPath: linkPath}, none)
}

// AddMeta attaches a metadata triplet.
func (cl *Client) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	return exec(cl, wire.OpAddMeta, wire.MetaArgs{Path: path, Class: int(class), AVU: avu}, none)
}

// GetMeta fetches one metadata class.
func (cl *Client) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	return ask[[]types.AVU](cl, wire.OpGetMeta, wire.GetMetaArgs{Path: path, Class: int(class)})
}

// Annotate adds commentary.
func (cl *Client) Annotate(path string, ann types.Annotation) error {
	return exec(cl, wire.OpAnnotate, wire.AnnotateArgs{Path: path, Ann: ann}, none)
}

// Annotations lists commentary.
func (cl *Client) Annotations(path string) ([]types.Annotation, error) {
	return ask[[]types.Annotation](cl, wire.OpAnnotations, wire.PathArgs{Path: path})
}

// Query runs a conjunctive metadata query.
func (cl *Client) Query(q mcat.Query) ([]mcat.Hit, error) {
	hits, _, err := cl.QueryPartial(q)
	return hits, err
}

// QueryPartial is Query with partial-result reporting: partial names
// the catalog shards (as "shard-N") that missed the scatter-gather
// deadline or were stale followers, whose hits are therefore missing.
func (cl *Client) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	out, err := ask[wire.QueryReply](cl, wire.OpQuery, wire.QueryArgs{Q: q})
	return out.Hits, out.Partial, err
}

// QueryAttrNames fetches the queryable attribute names under scope.
func (cl *Client) QueryAttrNames(scope string) ([]string, error) {
	return ask[[]string](cl, wire.OpQueryAttrs, wire.PathArgs{Path: scope})
}

// Chmod grants a permission level ("none", "read", "annotate", "write",
// "own", "curate") to a grantee.
func (cl *Client) Chmod(path, grantee, level string) error {
	return exec(cl, wire.OpChmod, wire.ChmodArgs{Path: path, Grantee: grantee, Level: level}, none)
}

// Lock places a "shared" or "exclusive" lock.
func (cl *Client) Lock(path, kind string, ttl time.Duration) error {
	return exec(cl, wire.OpLock, wire.LockArgs{Path: path, Kind: kind, TTLSeconds: int64(ttl / time.Second)}, none)
}

// Unlock removes the caller's lock.
func (cl *Client) Unlock(path string) error {
	return exec(cl, wire.OpUnlock, wire.PathArgs{Path: path}, none)
}

// Pin protects a replica from cache purging.
func (cl *Client) Pin(path, resource string, ttl time.Duration) error {
	return exec(cl, wire.OpPin, wire.PinArgs{Path: path, Resource: resource, TTLSeconds: int64(ttl / time.Second)}, none)
}

// Unpin removes the caller's pin.
func (cl *Client) Unpin(path, resource string) error {
	return exec(cl, wire.OpUnpin, wire.PinArgs{Path: path, Resource: resource}, none)
}

// Checkout takes an object out for editing.
func (cl *Client) Checkout(path string) error {
	return exec(cl, wire.OpCheckout, wire.PathArgs{Path: path}, none)
}

// Checkin stores new contents, preserving the old as a version.
func (cl *Client) Checkin(path string, data []byte, comment string) error {
	return cl.CheckinFrom(path, bytes.NewReader(data), comment)
}

// CheckinFrom is Checkin with the new contents streamed from r.
func (cl *Client) CheckinFrom(path string, r io.Reader, comment string) error {
	return call(cl, wire.OpCheckin, wire.CheckinArgs{Path: path, Comment: comment}, &xfer{send: r}, none)
}

// RegisterURL registers a URL object.
func (cl *Client) RegisterURL(path, url string) (types.DataObject, error) {
	return ask[types.DataObject](cl, wire.OpRegisterURL, wire.RegisterURLArgs{Path: path, URL: url})
}

// RegisterSQL registers a SQL query object.
func (cl *Client) RegisterSQL(path string, spec types.SQLSpec) (types.DataObject, error) {
	return ask[types.DataObject](cl, wire.OpRegisterSQL, wire.RegisterSQLArgs{Path: path, Spec: spec})
}

// ExecSQL executes a registered SQL object with an optional suffix.
func (cl *Client) ExecSQL(path, suffix string) ([]byte, error) {
	return fetch(cl, wire.OpExecSQL, wire.ExecSQLArgs{Path: path, Suffix: suffix})
}

// Invoke runs a method object with extra arguments.
func (cl *Client) Invoke(path string, args []string) ([]byte, error) {
	return fetch(cl, wire.OpInvoke, wire.InvokeArgs{Path: path, Args: args})
}

// MkContainer creates a container on a resource.
func (cl *Client) MkContainer(path, resource string) (types.DataObject, error) {
	return ask[types.DataObject](cl, wire.OpMkContainer, wire.ContainerArgs{Path: path, Resource: resource})
}

// SyncContainer refreshes dirty container replicas.
func (cl *Client) SyncContainer(path string) (int, error) {
	out, err := ask[wire.CountReply](cl, wire.OpSyncContainer, wire.PathArgs{Path: path})
	return out.N, err
}

// Extract runs a metadata extraction method on the server.
func (cl *Client) Extract(path, method, from string) (int, error) {
	out, err := ask[wire.CountReply](cl, wire.OpExtract, wire.ExtractArgs{Path: path, Method: method, From: from})
	return out.N, err
}

// IssueTicket mints a delegated-access ticket for path at the given
// level ("read", ...), valid for uses redemptions (negative =
// unlimited) and ttl. The caller must hold Own on the path.
func (cl *Client) IssueTicket(path, level string, uses int, ttl time.Duration) (string, error) {
	out, err := ask[wire.TicketReply](cl, wire.OpIssueTicket, wire.TicketArgs{
		Path: path, Level: level, Uses: uses, TTLSeconds: int64(ttl / time.Second),
	})
	return out.ID, err
}

// GetWithTicket retrieves an object using a delegated-access ticket,
// independent of the caller's own grants.
func (cl *Client) GetWithTicket(path, ticket string) ([]byte, error) {
	x := &xfer{ticket: ticket}
	err := call(cl, wire.OpGet, wire.PathArgs{Path: path}, x, none)
	return x.bytes(), err
}

// ShadowList lists entries inside a registered (shadow) directory.
func (cl *Client) ShadowList(path, rel string) ([]storage.FileInfo, error) {
	return ask[[]storage.FileInfo](cl, wire.OpShadowList, wire.ShadowArgs{Path: path, Rel: rel})
}

// ShadowOpen reads one file inside a shadow directory's cone.
func (cl *Client) ShadowOpen(path, rel string) ([]byte, error) {
	return fetch(cl, wire.OpShadowOpen, wire.ShadowArgs{Path: path, Rel: rel})
}

// AddUser registers an account with its password (administrators only).
func (cl *Client) AddUser(name, domain, password string, admin bool) error {
	return exec(cl, wire.OpAddUser, wire.AddUserArgs{Name: name, Domain: domain, Password: password, Admin: admin}, none)
}

// Audit queries the audit trail (administrators only); limit bounds
// the tail returned (0 = everything).
func (cl *Client) Audit(user, op, target string, limit int) ([]types.AuditRecord, error) {
	return ask[[]types.AuditRecord](cl, wire.OpAudit, wire.AuditArgs{User: user, Op: op, Target: target, Limit: limit})
}

// Resources lists the registered storage resources.
func (cl *Client) Resources() ([]types.Resource, error) {
	return ask[[]types.Resource](cl, wire.OpResources, struct{}{})
}

// LastTrace returns the trace ID of the most recent logical call, the
// handle the trace op (wire.OpTrace) takes for its span tree.
func (cl *Client) LastTrace() traceid.ID {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.lastTrace
}

// IncidentGet fetches one full incident bundle by index ID: meta plus
// every captured file (profiles, span trees, state snapshots).
func (cl *Client) IncidentGet(id string) (wire.IncidentGetReply, error) {
	return ask[wire.IncidentGetReply](cl, wire.OpIncidentGet, wire.IncidentGetArgs{ID: id})
}

// IncidentCapture triggers an on-demand incident capture on the
// connected server. The call blocks for the CPU profile window (~2s).
func (cl *Client) IncidentCapture(reason string) (wire.IncidentCaptureReply, error) {
	return ask[wire.IncidentCaptureReply](cl, wire.OpIncidentCapture, wire.IncidentCaptureArgs{Reason: reason})
}

// Scrub runs the anti-entropy scrubber over one object (write
// permission) or a collection subtree (admin only) and returns what it
// found and fixed.
func (cl *Client) Scrub(path string) (wire.ScrubReply, error) {
	return ask[wire.ScrubReply](cl, wire.OpScrub, wire.PathArgs{Path: path})
}

// Checksum verifies every replica of one object against the catalog
// checksum, returning a per-resource verdict without repairing.
func (cl *Client) Checksum(path string) (wire.ChecksumReply, error) {
	return ask[wire.ChecksumReply](cl, wire.OpChecksum, wire.PathArgs{Path: path})
}
