// Package client is the SRB client library: it speaks the wire
// protocol to any federated server, authenticates with
// challenge–response (the password never crosses the wire), follows
// federation redirects transparently, and offers the Scommand-style
// operation set plus parallel multi-stream bulk transfer.
package client

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
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
// by a bounded connection pool of multiplexed connections. Methods are
// safe for concurrent use; concurrent calls pipeline over shared
// connections instead of queueing, and ParallelGet opens dedicated
// connections for concurrent bulk streams.
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
	// history, when set, receives one per-server transfer observation
	// per logical call — the client-side feed of the peer observatory.
	history *obs.PeerHistory
	// metrics, when set, receives client-side latency-decomposition
	// phases (serialize, pool checkout, mux in-flight, dial, batch hold)
	// as phase.client.* ops, plus the connection pool's wire.pool.*
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

// SetPeerHistory attaches a transfer observatory table: every logical
// call then records its latency, payload bytes and transport outcome
// against the serving server's name (nil detaches).
func (cl *Client) SetPeerHistory(ph *obs.PeerHistory) {
	cl.mu.Lock()
	cl.history = ph
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

// xfer is the bulk-data half of one logical call: the stream sent after
// the request, and where the stream that follows the response goes.
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
	// announced extracts that length from the response body; nil reads a
	// wire.SizeReply.
	announced func(body []byte) (int64, error)

	buf *wire.Buffer // the current attempt's in-memory result
	// wrote counts the bytes handed to `to` (by the last attempt, when
	// rewound). Atomic because a call that timed out may still be inside
	// its last Write when it returns (wire.Sink).
	wrote atomic.Int64
	moved int64 // payload bytes moved either way, for the observatory
}

// Begin directs one attempt's reply stream (wire.Sink). Every attempt
// collects into a buffer of its own, or into its writer rewound, so a
// retry starts clean whatever became of the attempt before it; a plain
// writer cannot be rewound, which is why retryable stops allowing
// retries once it has taken a byte.
func (x *xfer) Begin(resp *wire.Response) (io.Writer, error) {
	if x.rewound != nil {
		x.to = x.rewound()
		x.wrote.Store(0)
	}
	if x.to != nil {
		return x, nil
	}
	if x.announced == nil {
		buf, err := wire.NewSizedBuffer(resp.Body)
		if err != nil {
			return nil, err
		}
		x.buf = buf
		return buf, nil
	}
	size, err := x.announced(resp.Body)
	if err != nil {
		return nil, err
	}
	x.buf = new(wire.Buffer)
	x.buf.Grow(size)
	return x.buf, nil
}

// Write passes reply bytes on to the caller's writer.
func (x *xfer) Write(p []byte) (int, error) {
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

// call performs one logical call that sends no data stream. The
// response body is decoded into out (when non-nil); a data stream, when
// the reply announces one, is returned.
func (cl *Client) call(op string, args any, out any) ([]byte, error) {
	var x xfer
	err := cl.do(op, args, &x, out, "")
	return x.bytes(), err
}

// Call performs one logical call of an op that moves no bulk data, for
// callers that know the op by its table row rather than by a method
// here: args is the op's argument struct, out receives the reply.
func (cl *Client) Call(op string, args, out any) error {
	_, err := cl.call(op, args, out)
	return err
}

// do performs one logical call with its bulk-data half described by x.
// Each logical call mints one trace ID, kept across redirect and retry
// attempts, so the servers involved all record it under the same trace.
//
// Idempotent operations that fail with a retryable error (offline,
// timeout, transport) are retried under the client's backoff policy; a
// transport error additionally reconnects first, since the conn is
// poisoned mid-protocol. Mutating ops get exactly one attempt — a lost
// response does not prove the mutation was lost — and a reply stream
// that has reached the caller's writer ends the retries too.
func (cl *Client) do(op string, args any, x *xfer, out any, ticket string) error {
	trace := traceid.New()
	cl.mu.Lock()
	cl.lastTrace = trace
	timeout, policy := cl.timeout, cl.retry
	sleep, randf, history := cl.sleep, cl.randf, cl.history
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
		OnRetry: func(int, error) { cl.retries.Add(1); attempt++ },
	}
	if x.to != nil {
		r.Retryable = x.retryable
	}
	start := time.Now()
	err := r.Do(func() error {
		// A transport error evicted the failed conn inside callOnce, so
		// the next attempt's checkout dials a clean connection —
		// reconnect-on-transport-error lives in the pool now.
		return cl.callRedirect(op, args, x, out, ticket, trace, attempt, deadline)
	})
	// Feed the observatory with the whole logical call (retries and
	// redirects included — that is the latency the user experienced).
	history.Record(cl.Server(), "", time.Since(start), x.moved, err != nil && resilience.Transport(err))
	return err
}

// callRedirect performs one attempt, following federation redirects.
func (cl *Client) callRedirect(op string, args any, x *xfer, out any, ticket string, trace traceid.ID, attempt int, deadline time.Time) error {
	addr := cl.Addr()
	for redirects := 0; ; redirects++ {
		redirect, err := cl.callOnce(addr, op, args, x, out, ticket, trace, attempt, deadline)
		if err != nil {
			return err
		}
		if redirect == nil {
			return nil
		}
		if redirects >= 4 || x.send != nil {
			// Servers redirect reads only; a body already sent is spent.
			return types.E(op, redirect.Addr, types.ErrInvalid)
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

func (cl *Client) callOnce(addr, op string, args any, x *xfer, out any, ticket string, trace traceid.ID, attempt int, deadline time.Time) (*wire.Redirect, error) {
	serStart := time.Now()
	// The arguments are copied into the request frame when it is written,
	// before CallTo returns: a stack buffer holds them until then.
	var scratch [512]byte
	raw, err := wire.AppendBody(scratch[:0], args)
	cl.phase(op, obs.PhaseSerialize, time.Since(serStart), trace)
	if err != nil {
		return nil, err
	}
	req := wire.Request{Op: op, Args: raw, Ticket: ticket, Trace: trace, Attempt: attempt}
	// The wire budget tells the server chain how long this call may take;
	// the Mux enforces it locally so a stalled server cannot hang the
	// client past it.
	if err := req.SetBudget(deadline); err != nil {
		return nil, err
	}
	coStart := time.Now()
	m, err := cl.pool.Get(addr)
	cl.phase(op, obs.PhasePoolCheckout, time.Since(coStart), trace)
	if err != nil {
		return nil, err
	}
	callStart := time.Now()
	res, err := m.CallTo(&req, x.send, x, deadline)
	cl.phase(op, obs.PhaseMuxInflight, time.Since(callStart), trace)
	if err != nil {
		// Evict only broken conns; a call timeout leaves the connection
		// healthy (the late response is discarded by ID).
		if m.Dead() {
			cl.pool.Fail(m)
		} else {
			cl.pool.Put(m)
		}
		return nil, types.E(op, "", err)
	}
	cl.pool.Put(m)
	cl.mu.Lock()
	cl.server = m.Server()
	cl.mu.Unlock()
	if res.Redirect != nil {
		return res.Redirect, nil
	}
	x.moved += res.SentLen + res.DataLen
	// The body is decoded into out, which copies what it keeps; then the
	// response's frame goes back to the pool.
	defer res.Release()
	if err := res.Check(op, false); err != nil {
		return nil, err
	}
	if out != nil {
		if err := wire.DecodeBody(res.Resp.Body, out); err != nil {
			return nil, types.E(op, "", err)
		}
	}
	return nil, nil
}

// ---- Scommand-style API ----

// Mkdir creates a collection (Smkdir).
func (cl *Client) Mkdir(path string) error {
	_, err := cl.call(wire.OpMkdir, wire.PathArgs{Path: path}, nil)
	return err
}

// RmColl removes an empty collection (Srmdir).
func (cl *Client) RmColl(path string) error {
	_, err := cl.call(wire.OpRmColl, wire.PathArgs{Path: path}, nil)
	return err
}

// List lists a collection (Sls).
func (cl *Client) List(path string) ([]types.Stat, error) {
	var out []types.Stat
	_, err := cl.call(wire.OpList, wire.PathArgs{Path: path}, &out)
	return out, err
}

// Stat describes a path.
func (cl *Client) Stat(path string) (types.Stat, error) {
	var out types.Stat
	_, err := cl.call(wire.OpStat, wire.PathArgs{Path: path}, &out)
	return out, err
}

// GetObject fetches the full catalog record of an object.
func (cl *Client) GetObject(path string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpGetObject, wire.PathArgs{Path: path}, &out)
	return out, err
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
	return cl.PutFrom(path, bytes.NewReader(data), opts)
}

// PutFrom ingests the stream r at path: the bytes go from r to the
// socket through one pooled chunk, so an object of any size is sent in
// fixed memory. An ingest is sent exactly once, never retried.
func (cl *Client) PutFrom(path string, r io.Reader, opts PutOpts) (types.DataObject, error) {
	var out types.DataObject
	args := wire.IngestArgs{
		Path: path, Resource: opts.Resource, Container: opts.Container,
		DataType: opts.DataType, Meta: opts.Meta,
	}
	err := cl.do(wire.OpIngest, args, &xfer{send: r}, &out, "")
	return out, err
}

// Reput replaces an object's contents, keeping its metadata.
func (cl *Client) Reput(path string, data []byte) error {
	return cl.ReputFrom(path, bytes.NewReader(data))
}

// ReputFrom is Reput with the new contents streamed from r.
func (cl *Client) ReputFrom(path string, r io.Reader) error {
	return cl.do(wire.OpReingest, wire.PathArgs{Path: path}, &xfer{send: r}, nil, "")
}

// Get retrieves an object's contents (Sget) into one buffer allocated at
// the size the server announces.
func (cl *Client) Get(path string) ([]byte, error) {
	return cl.call(wire.OpGet, wire.PathArgs{Path: path}, nil)
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
	err := cl.do(wire.OpGet, wire.PathArgs{Path: path}, x, nil, "")
	return x.wrote.Load(), err
}

// GetRange reads length bytes at offset; length < 0 reads to the end.
func (cl *Client) GetRange(path string, offset, length int64) ([]byte, error) {
	return cl.call(wire.OpReadRange, wire.RangeArgs{Path: path, Offset: offset, Length: length}, nil)
}

// GetRangeTo is GetRange streamed into w (see GetTo for the retry rule).
func (cl *Client) GetRangeTo(path string, offset, length int64, w io.Writer) (int64, error) {
	x := &xfer{to: w}
	err := cl.do(wire.OpReadRange, wire.RangeArgs{Path: path, Offset: offset, Length: length}, x, nil, "")
	return x.wrote.Load(), err
}

// ParallelGet retrieves an object over streams concurrent connections,
// each fetching a contiguous range — SRB's parallel bulk transfer.
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
// with its first byte.
func (cl *Client) getAt(op string, args any, w io.WriterAt, off int64) (int64, error) {
	x := &xfer{rewound: func() io.Writer { return io.NewOffsetWriter(w, off) }}
	err := cl.do(op, args, x, nil, "")
	return x.wrote.Load(), err
}

func (cl *Client) parallelTo(path string, size int64, streams int, w io.WriterAt) error {
	if streams < 1 {
		streams = 1
	}
	if int64(streams) > size {
		streams = int(size)
	}
	if streams <= 1 || size == 0 {
		_, err := cl.getAt(wire.OpGet, wire.PathArgs{Path: path}, w, 0)
		return err
	}
	chunk := (size + int64(streams) - 1) / int64(streams)
	errs := make(chan error, streams)
	cl.mu.Lock()
	timeout, retry := cl.timeout, cl.retry
	cl.mu.Unlock()
	for i := 0; i < streams; i++ {
		off := int64(i) * chunk
		length := chunk
		if off+length > size {
			length = size - off
		}
		go func(off, length int64) {
			// Each stream is its own authenticated connection and
			// inherits the parent's resilience knobs.
			sub, err := DialWith(cl.Addr(), cl.user, cl.password, cl.dial)
			if err != nil {
				errs <- err
				return
			}
			defer sub.Close()
			sub.SetTimeout(timeout)
			sub.SetRetryPolicy(retry)
			n, err := sub.getAt(wire.OpReadRange, wire.RangeArgs{Path: path, Offset: off, Length: length}, w, off)
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
	var out types.Replica
	_, err := cl.call(wire.OpReplicate, wire.ReplicateArgs{Path: path, Resource: resource}, &out)
	return out, err
}

// Delete removes an object (Srm).
func (cl *Client) Delete(path string) error {
	_, err := cl.call(wire.OpDelete, wire.PathArgs{Path: path}, nil)
	return err
}

// DeleteReplica removes one replica.
func (cl *Client) DeleteReplica(path string, number int) error {
	_, err := cl.call(wire.OpDeleteReplica, wire.ReplicaArgs{Path: path, Number: number}, nil)
	return err
}

// Move renames an object or collection (Smv).
func (cl *Client) Move(src, dst string) error {
	_, err := cl.call(wire.OpMove, wire.MoveArgs{Src: src, Dst: dst}, nil)
	return err
}

// Copy copies an object or collection (Scp).
func (cl *Client) Copy(src, dst, resource string) error {
	_, err := cl.call(wire.OpCopy, wire.CopyArgs{Src: src, Dst: dst, Resource: resource}, nil)
	return err
}

// Link creates a soft link (Sln).
func (cl *Client) Link(target, linkPath string) error {
	_, err := cl.call(wire.OpLink, wire.LinkArgs{Target: target, LinkPath: linkPath}, nil)
	return err
}

// AddMeta attaches a metadata triplet.
func (cl *Client) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	_, err := cl.call(wire.OpAddMeta, wire.MetaArgs{Path: path, Class: int(class), AVU: avu}, nil)
	return err
}

// GetMeta fetches one metadata class.
func (cl *Client) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	var out []types.AVU
	_, err := cl.call(wire.OpGetMeta, wire.GetMetaArgs{Path: path, Class: int(class)}, &out)
	return out, err
}

// Annotate adds commentary.
func (cl *Client) Annotate(path string, ann types.Annotation) error {
	_, err := cl.call(wire.OpAnnotate, wire.AnnotateArgs{Path: path, Ann: ann}, nil)
	return err
}

// Annotations lists commentary.
func (cl *Client) Annotations(path string) ([]types.Annotation, error) {
	var out []types.Annotation
	_, err := cl.call(wire.OpAnnotations, wire.PathArgs{Path: path}, &out)
	return out, err
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
	var out wire.QueryReply
	_, err := cl.call(wire.OpQuery, wire.QueryArgs{Q: q}, &out)
	return out.Hits, out.Partial, err
}

// ShardPuller is the transport a follower pulls its leader's journal
// over (peer/admin only): each pull dials the leader as user afresh, so
// a dead leader fails the pull the way a dead peer would.
func ShardPuller(user, password string) shard.PullFunc {
	return func(peer string, shardIdx int, from shard.Position) (shard.PullResult, error) {
		cl, err := Dial(peer, user, password)
		if err != nil {
			return shard.PullResult{}, err
		}
		defer cl.Close()
		var out wire.ShardPullReply
		_, err = cl.call(wire.OpShardPull, wire.ShardPullArgs{Shard: shardIdx, From: from}, &out)
		return out.PullResult, err
	}
}

// QueryAttrNames fetches the queryable attribute names under scope.
func (cl *Client) QueryAttrNames(scope string) ([]string, error) {
	var out []string
	_, err := cl.call(wire.OpQueryAttrs, wire.PathArgs{Path: scope}, &out)
	return out, err
}

// Chmod grants a permission level ("none", "read", "annotate", "write",
// "own", "curate") to a grantee.
func (cl *Client) Chmod(path, grantee, level string) error {
	_, err := cl.call(wire.OpChmod, wire.ChmodArgs{Path: path, Grantee: grantee, Level: level}, nil)
	return err
}

// Lock places a "shared" or "exclusive" lock.
func (cl *Client) Lock(path, kind string, ttl time.Duration) error {
	_, err := cl.call(wire.OpLock, wire.LockArgs{Path: path, Kind: kind, TTLSeconds: int64(ttl / time.Second)}, nil)
	return err
}

// Unlock removes the caller's lock.
func (cl *Client) Unlock(path string) error {
	_, err := cl.call(wire.OpUnlock, wire.PathArgs{Path: path}, nil)
	return err
}

// Pin protects a replica from cache purging.
func (cl *Client) Pin(path, resource string, ttl time.Duration) error {
	_, err := cl.call(wire.OpPin, wire.PinArgs{Path: path, Resource: resource, TTLSeconds: int64(ttl / time.Second)}, nil)
	return err
}

// Unpin removes the caller's pin.
func (cl *Client) Unpin(path, resource string) error {
	_, err := cl.call(wire.OpUnpin, wire.PinArgs{Path: path, Resource: resource}, nil)
	return err
}

// Checkout takes an object out for editing.
func (cl *Client) Checkout(path string) error {
	_, err := cl.call(wire.OpCheckout, wire.PathArgs{Path: path}, nil)
	return err
}

// Checkin stores new contents, preserving the old as a version.
func (cl *Client) Checkin(path string, data []byte, comment string) error {
	return cl.CheckinFrom(path, bytes.NewReader(data), comment)
}

// CheckinFrom is Checkin with the new contents streamed from r.
func (cl *Client) CheckinFrom(path string, r io.Reader, comment string) error {
	return cl.do(wire.OpCheckin, wire.CheckinArgs{Path: path, Comment: comment}, &xfer{send: r}, nil, "")
}

// RegisterURL registers a URL object.
func (cl *Client) RegisterURL(path, url string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpRegisterURL, wire.RegisterURLArgs{Path: path, URL: url}, &out)
	return out, err
}

// RegisterSQL registers a SQL query object.
func (cl *Client) RegisterSQL(path string, spec types.SQLSpec) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpRegisterSQL, wire.RegisterSQLArgs{Path: path, Spec: spec}, &out)
	return out, err
}

// ExecSQL executes a registered SQL object with an optional suffix.
func (cl *Client) ExecSQL(path, suffix string) ([]byte, error) {
	return cl.call(wire.OpExecSQL, wire.ExecSQLArgs{Path: path, Suffix: suffix}, nil)
}

// Invoke runs a method object with extra arguments.
func (cl *Client) Invoke(path string, args []string) ([]byte, error) {
	return cl.call(wire.OpInvoke, wire.InvokeArgs{Path: path, Args: args}, nil)
}

// MkContainer creates a container on a resource.
func (cl *Client) MkContainer(path, resource string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpMkContainer, wire.ContainerArgs{Path: path, Resource: resource}, &out)
	return out, err
}

// SyncContainer refreshes dirty container replicas.
func (cl *Client) SyncContainer(path string) (int, error) {
	var out wire.CountReply
	_, err := cl.call(wire.OpSyncContainer, wire.PathArgs{Path: path}, &out)
	return out.N, err
}

// Extract runs a metadata extraction method on the server.
func (cl *Client) Extract(path, method, from string) (int, error) {
	var out wire.CountReply
	_, err := cl.call(wire.OpExtract, wire.ExtractArgs{Path: path, Method: method, From: from}, &out)
	return out.N, err
}

// IssueTicket mints a delegated-access ticket for path at the given
// level ("read", ...), valid for uses redemptions (negative =
// unlimited) and ttl. The caller must hold Own on the path.
func (cl *Client) IssueTicket(path, level string, uses int, ttl time.Duration) (string, error) {
	var out wire.TicketReply
	_, err := cl.call(wire.OpIssueTicket, wire.TicketArgs{
		Path: path, Level: level, Uses: uses, TTLSeconds: int64(ttl / time.Second),
	}, &out)
	return out.ID, err
}

// GetWithTicket retrieves an object using a delegated-access ticket,
// independent of the caller's own grants.
func (cl *Client) GetWithTicket(path, ticket string) ([]byte, error) {
	x := &xfer{}
	err := cl.do(wire.OpGet, wire.PathArgs{Path: path}, x, nil, ticket)
	return x.bytes(), err
}

// ShadowList lists entries inside a registered (shadow) directory.
func (cl *Client) ShadowList(path, rel string) ([]storage.FileInfo, error) {
	var out []storage.FileInfo
	_, err := cl.call(wire.OpShadowList, wire.ShadowArgs{Path: path, Rel: rel}, &out)
	return out, err
}

// ShadowOpen reads one file inside a shadow directory's cone.
func (cl *Client) ShadowOpen(path, rel string) ([]byte, error) {
	return cl.call(wire.OpShadowOpen, wire.ShadowArgs{Path: path, Rel: rel}, nil)
}

// AddUser registers an account with its password (administrators only).
func (cl *Client) AddUser(name, domain, password string, admin bool) error {
	_, err := cl.call(wire.OpAddUser, wire.AddUserArgs{Name: name, Domain: domain, Password: password, Admin: admin}, nil)
	return err
}

// Audit queries the audit trail (administrators only); limit bounds
// the tail returned (0 = everything).
func (cl *Client) Audit(user, op, target string, limit int) ([]types.AuditRecord, error) {
	var out []types.AuditRecord
	_, err := cl.call(wire.OpAudit, wire.AuditArgs{User: user, Op: op, Target: target, Limit: limit}, &out)
	return out, err
}

// Resources lists the registered storage resources.
func (cl *Client) Resources() ([]types.Resource, error) {
	var out []types.Resource
	_, err := cl.call(wire.OpResources, struct{}{}, &out)
	return out, err
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
	var out wire.IncidentGetReply
	_, err := cl.call(wire.OpIncidentGet, wire.IncidentGetArgs{ID: id}, &out)
	return out, err
}

// IncidentCapture triggers an on-demand incident capture on the
// connected server. The call blocks for the CPU profile window (~2s).
func (cl *Client) IncidentCapture(reason string) (wire.IncidentCaptureReply, error) {
	var out wire.IncidentCaptureReply
	_, err := cl.call(wire.OpIncidentCapture, wire.IncidentCaptureArgs{Reason: reason}, &out)
	return out, err
}

// Scrub runs the anti-entropy scrubber over one object (write
// permission) or a collection subtree (admin only) and returns what it
// found and fixed.
func (cl *Client) Scrub(path string) (wire.ScrubReply, error) {
	var out wire.ScrubReply
	_, err := cl.call(wire.OpScrub, wire.PathArgs{Path: path}, &out)
	return out, err
}

// Checksum verifies every replica of one object against the catalog
// checksum, returning a per-resource verdict without repairing.
func (cl *Client) Checksum(path string) (wire.ChecksumReply, error) {
	var out wire.ChecksumReply
	_, err := cl.call(wire.OpChecksum, wire.PathArgs{Path: path}, &out)
	return out, err
}
