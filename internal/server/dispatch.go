package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/audit"
	"gosrb/internal/chunk"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/storage"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// dispatch times one wire operation under a span: a missing trace ID is
// minted here (this server originates the request), an inbound one is
// kept — proxied requests carry it onward, so one user action shows up
// under the same ID on every federation hop. The outcome (handler error
// via ss.fail, or transport error) is attributed to the per-op metrics,
// the trace ring and the log.
//
// Read-your-own-telemetry: everything a request records — its op
// histogram sample, its span in the trace ring, its usage row, its log
// line — is recorded before the last frame of its reply is written. A
// client that has its reply therefore already finds that request in
// every telemetry surface of this server. For a plain reply the last
// frame is the response; for a streamed one it is the closing DataEnd,
// written under the same hold of the conn's write lock as the header
// and data frames before it.
func (s *Server) dispatch(ss *session, req *wire.Request) error {
	if req.Trace == "" {
		req.Trace = obs.NewTraceID()
	}
	// The request's time budget starts counting here; federation hops
	// forward only what remains of it.
	if req.TimeoutMillis > 0 {
		ss.deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
	}
	// The caller's span ID (set by a federating server, never by a plain
	// client) becomes this span's parent, so every hop's record
	// reassembles into one tree. A positive Attempt marks a client-side
	// retry of the same logical call.
	sp := obs.StartSpanFrom(req.Trace, req.Span, req.Op)
	// Backdate the span to when the reader loop enqueued the request, so
	// queue.wait + dispatch partition the span's wall clock exactly and
	// queue pressure shows up in the trace, not as mystery latency before
	// it.
	queueWait := time.Since(ss.enqueued)
	sp.Start = ss.enqueued
	sp.Phase(obs.PhaseQueueWait, queueWait)
	ss.span = sp
	if req.Attempt > 0 {
		sp.Event(obs.EventRetry, fmt.Sprintf("client attempt %d", req.Attempt+1))
	}
	err := s.dispatchOp(ss, req)
	ss.finishInbound()
	if err != nil && !ss.streaming {
		// The handler could not even stage a reply (its body would not
		// marshal): say so rather than leave the client waiting.
		ss.fail(err)
		err = nil
	}
	opErr := ss.opErr
	if opErr == nil {
		opErr = err
	}
	s.record(ss, req, sp, queueWait, opErr)
	// A streamed reply has held the conn's write lock since its header;
	// a plain one takes it now, for its single frame.
	if !ss.streaming {
		ss.w.mu.Lock()
	}
	defer ss.w.mu.Unlock()
	switch {
	case ss.w.err != nil:
		// The conn already failed, under this reply or a pipelined
		// neighbour's: nothing more can be written.
		return ss.w.err
	case ss.aborted != nil:
		// A stream whose source failed after the OK header cannot turn
		// into an error response: drop the connection, visibly.
		s.broker.Metrics().Counter("server.stream.aborted").Inc()
		s.Logger.Errorf("op %s user=%s remote=%s trace=%s: stream aborted after %d bytes: %v",
			req.Op, ss.user+ss.peer, ss.remote, req.Trace, ss.bytesOut, ss.aborted)
		ss.w.drop(ss.aborted)
		return nil
	case ss.streaming:
		return ss.w.write(func(c *wire.Conn) error { return c.WriteMsg(wire.MsgDataEnd, nil) })
	case ss.redir != nil:
		return ss.w.write(func(c *wire.Conn) error { return c.WriteJSON(wire.MsgRedirect, ss.redir) })
	default:
		ss.staged.ID = ss.reqID
		return ss.w.write(func(c *wire.Conn) error { return c.WriteJSON(wire.MsgResponse, ss.staged) })
	}
}

// record files one finished request in every telemetry surface: the op
// histogram, the trace ring, the phase histograms, the usage table and
// the log. dispatch calls it before the reply's last frame is written.
func (s *Server) record(ss *session, req *wire.Request, sp *obs.Span, queueWait time.Duration, opErr error) {
	reg := s.broker.Metrics()
	if ss.expired() {
		reg.Counter("server.deadline.exceeded").Inc()
		sp.Event(obs.EventDeadline, "budget exhausted")
	}
	if ss.sendDur > 0 {
		sp.Phase(obs.PhaseWireSend, ss.sendDur)
	}
	elapsed := sp.Elapsed()
	sp.Phase(obs.PhaseDispatch, elapsed-queueWait)
	reg.Op("server."+req.Op).Observe(elapsed, opErr)
	sp.End(reg.Traces(), s.name, ss.remote, opErr)
	reg.RecordPhases("server", req.Op, req.Trace, sp.Events())
	ss.span = nil
	if ss.acctUser != "" {
		reg.Usage().Record(ss.acctUser, collectionOf(req.Args), req.Trace, req.Op,
			opErr != nil, ss.bytesIn, ss.bytesOut, elapsed)
	}
	if thr := time.Duration(s.slowOp.Load()); thr > 0 && elapsed >= thr {
		// Outlier: log the whole local span tree while the ring still
		// holds it, so the slow hop's causes (retries, breaker trips,
		// failovers) are in the log even if nobody fetches the trace.
		reg.Counter("server.slowops").Inc()
		var tree strings.Builder
		obs.WriteTree(&tree, obs.AssembleTree(reg.Traces().ForTrace(req.Trace)))
		s.Logger.Infof("slow op %s took %s (threshold %s) trace=%s\n%s",
			req.Op, elapsed, thr, req.Trace, tree.String())
	}
	if opErr != nil {
		s.Logger.Infof("op %s user=%s remote=%s trace=%s: %v",
			req.Op, ss.user+ss.peer, ss.remote, req.Trace, opErr)
	} else {
		s.Logger.Debugf("op %s user=%s remote=%s trace=%s ok",
			req.Op, ss.user+ss.peer, ss.remote, req.Trace)
	}
}

// dispatchOp executes one request and produces exactly one reply through
// the session: a staged response or redirect, or a begun stream. It
// resolves the caller, looks the op up in the table, checks the row's
// gate, and runs the row's handler, which decodes the arguments and does
// the work. Handler errors become error responses; only transport
// failures propagate and drop the connection.
func (s *Server) dispatchOp(ss *session, req *wire.Request) error {
	user, err := ss.effectiveUser(req)
	if err != nil {
		return ss.fail(err)
	}
	// Every resolved request is accounted to its effective user (the
	// asserted end user on peer hops), keyed by the op's collection.
	ss.acctUser = user
	// A request whose budget already ran out (it sat queued behind a
	// slow one, or a hop forwarded a sliver) fails before any work; an
	// inbound stream it never read is drained by dispatch.
	if ss.expired() {
		return ss.fail(types.E(req.Op, "", types.ErrTimeout))
	}
	op := ops[req.Op]
	if op == nil {
		return ss.fail(types.E(req.Op, "", types.ErrUnsupported))
	}
	switch op.spec.Gate {
	case wire.GateAdmin:
		if !s.broker.Cat.IsAdmin(user) {
			return ss.fail(types.E(req.Op, "", types.ErrPermission))
		}
	case wire.GatePeerOrAdmin:
		if !ss.isPeer && !s.broker.Cat.IsAdmin(user) {
			return ss.fail(types.E(req.Op, "", types.ErrPermission))
		}
	}
	return op.run(call{s: s, ss: ss, b: s.broker, user: user, req: req})
}

// call is what a handler gets besides its decoded arguments. It is
// passed by value, so serving a request allocates nothing for it.
type call struct {
	s    *Server
	ss   *session
	b    *core.Broker
	user string // the effective user
	req  *wire.Request
}

// handler serves one op: it decodes the request's arguments and replies
// through the session.
type handler func(c call) error

// via builds the handler of an op that replies through the session
// itself: a stream, a redirect, or a peer's reply relayed untouched. fn
// stages its own failures (ss.fail); what it returns is a transport
// error.
func via[A any](fn func(c call, a A) error) handler {
	return func(c call) error {
		a, err := wire.DecodeArgs[A](c.req.Args)
		if err != nil {
			return c.ss.fail(err)
		}
		return fn(c, a)
	}
}

// get builds the handler of an op that replies with a value: decode, one
// call, reply.
func get[A, R any](fn func(c call, a A) (R, error)) handler {
	return via(func(c call, a A) error {
		r, err := fn(c, a)
		if err != nil {
			return c.ss.fail(err)
		}
		return c.ss.reply(r)
	})
}

// do builds the handler of an op that replies with nothing: decode, one
// call, empty reply.
func do[A any](fn func(c call, a A) error) handler {
	return get(func(c call, a A) (struct{}, error) { return struct{}{}, fn(c, a) })
}

// feed builds the handler of a status feed's wire op from its report
// row. A client-facing request reaches the zone (grid and trace cover
// every peer); a peer-forwarded one answers for this server only, which
// bounds a gather to one hop.
func feed(r *report.Report) handler {
	return func(c call) error {
		env := c.s.env(nil)
		if !c.ss.isPeer {
			env.Zone = reach{s: c.s, user: c.user, deadline: c.ss.deadline, sp: c.ss.span}
		}
		rep, err := r.Serve(env, c.req.Args)
		if err != nil {
			return c.ss.fail(err)
		}
		return c.ss.reply(rep)
	}
}

// op is one row of the server's table: the op's static spec and its
// handler.
type op struct {
	spec *wire.OpSpec
	run  handler
}

// ops is the server's op table: every row of wire's table joined to its
// one handler — from the handlers below, or derived from the status
// feed the op serves. A wire op with no handler or two, or a handler for
// an op wire does not define, is a programming error caught at start-up.
var ops = func() map[string]*op {
	feeds := map[string]handler{}
	for _, r := range report.All {
		if r.Op != "" {
			feeds[r.Op] = feed(r)
		}
	}
	m := make(map[string]*op, len(wire.Specs()))
	for i := range wire.Specs() {
		spec := &wire.Specs()[i]
		h, f := handlers[spec.Name], feeds[spec.Name]
		if (h == nil) == (f == nil) {
			panic("server: op " + spec.Name + " needs exactly one handler")
		}
		if h == nil {
			h = f
		}
		m[spec.Name] = &op{spec: spec, run: h}
	}
	if len(m) != len(handlers)+len(feeds) {
		panic("server: a handler is registered for an op wire does not define")
	}
	return m
}()

// handlers holds the handler of every op that is not a status feed. The
// arms that are one broker call are one line; the rest name a function
// below.
var handlers = map[string]handler{
	wire.OpMkdir:       do(func(c call, a wire.PathArgs) error { return c.b.Mkdir(c.user, a.Path) }),
	wire.OpRmColl:      do(func(c call, a wire.PathArgs) error { return c.b.RmColl(c.user, a.Path) }),
	wire.OpList:        get(func(c call, a wire.PathArgs) ([]types.Stat, error) { return c.b.List(c.user, a.Path) }),
	wire.OpStat:        get(func(c call, a wire.PathArgs) (types.Stat, error) { return c.b.StatPath(c.user, a.Path) }),
	wire.OpGetObject:   get(func(c call, a wire.PathArgs) (types.DataObject, error) { return c.b.Cat.GetObject(a.Path) }),
	wire.OpIngest:      via(ingest),
	wire.OpReingest:    do(func(c call, a wire.PathArgs) error { return c.b.ReingestFrom(c.user, a.Path, c.ss.in) }),
	wire.OpGet:         via(getObject),
	wire.OpIssueTicket: get(issueTicket),
	wire.OpReadRange:   via(readRange),
	wire.OpReplicate:   get(replicate),
	wire.OpIngestReplica: get(func(c call, a wire.ReplicateArgs) (types.Replica, error) {
		return c.b.IngestReplicaFrom(c.user, a.Path, a.Resource, c.ss.in)
	}),
	wire.OpDelete: do(func(c call, a wire.PathArgs) error { return c.b.Delete(c.user, a.Path) }),
	wire.OpDeleteReplica: do(func(c call, a wire.ReplicaArgs) error {
		return c.b.DeleteReplica(c.user, a.Path, types.ReplicaNumber(a.Number))
	}),
	wire.OpMove: do(func(c call, a wire.MoveArgs) error { return c.b.Move(c.user, a.Src, a.Dst) }),
	wire.OpCopy: do(func(c call, a wire.CopyArgs) error { return c.b.Copy(c.user, a.Src, a.Dst, a.Resource) }),
	wire.OpLink: do(func(c call, a wire.LinkArgs) error { return c.b.Link(c.user, a.Target, a.LinkPath) }),
	wire.OpAddMeta: do(func(c call, a wire.MetaArgs) error {
		return c.b.AddMeta(c.user, a.Path, types.MetaClass(a.Class), a.AVU)
	}),
	wire.OpGetMeta: get(func(c call, a wire.GetMetaArgs) ([]types.AVU, error) {
		return c.b.GetMeta(c.user, a.Path, types.MetaClass(a.Class))
	}),
	wire.OpAnnotate:    do(func(c call, a wire.AnnotateArgs) error { return c.b.Annotate(c.user, a.Path, a.Ann) }),
	wire.OpAnnotations: get(func(c call, a wire.PathArgs) ([]types.Annotation, error) { return c.b.Annotations(c.user, a.Path) }),
	wire.OpQuery:       get(query),
	wire.OpQueryAttrs:  get(func(c call, a wire.PathArgs) ([]string, error) { return c.b.QueryAttrNames(c.user, a.Path), nil }),
	wire.OpChmod:       do(chmod),
	wire.OpLock:        do(lock),
	wire.OpUnlock:      do(func(c call, a wire.PathArgs) error { return c.b.Unlock(c.user, a.Path) }),
	wire.OpPin: do(func(c call, a wire.PinArgs) error {
		return c.b.Pin(c.user, a.Path, a.Resource, time.Duration(a.TTLSeconds)*time.Second)
	}),
	wire.OpUnpin:    do(func(c call, a wire.PinArgs) error { return c.b.Unpin(c.user, a.Path, a.Resource) }),
	wire.OpCheckout: do(func(c call, a wire.PathArgs) error { return c.b.Checkout(c.user, a.Path) }),
	wire.OpCheckin:  do(func(c call, a wire.CheckinArgs) error { return c.b.CheckinFrom(c.user, a.Path, c.ss.in, a.Comment) }),
	wire.OpRegisterURL: get(func(c call, a wire.RegisterURLArgs) (types.DataObject, error) {
		return c.b.RegisterURL(c.user, a.Path, a.URL)
	}),
	wire.OpRegisterSQL: get(func(c call, a wire.RegisterSQLArgs) (types.DataObject, error) {
		return c.b.RegisterSQL(c.user, a.Path, a.Spec)
	}),
	wire.OpExecSQL: via(execSQL),
	wire.OpInvoke:  via(func(c call, a wire.InvokeArgs) error { return c.replyData(c.b.InvokeMethod(c.user, a.Path, a.Args)) }),
	wire.OpMkContainer: get(func(c call, a wire.ContainerArgs) (types.DataObject, error) {
		return c.b.CreateContainer(c.user, a.Path, a.Resource)
	}),
	wire.OpSyncContainer: get(func(c call, a wire.PathArgs) (wire.CountReply, error) {
		n, err := c.b.SyncContainer(c.user, a.Path)
		return wire.CountReply{N: n}, err
	}),
	wire.OpExtract: get(func(c call, a wire.ExtractArgs) (wire.CountReply, error) {
		n, err := c.b.ExtractMeta(c.user, a.Path, a.Method, a.From)
		return wire.CountReply{N: n}, err
	}),
	wire.OpShadowList: get(func(c call, a wire.ShadowArgs) ([]storage.FileInfo, error) {
		return c.b.ShadowList(c.user, a.Path, a.Rel)
	}),
	wire.OpShadowOpen:      via(func(c call, a wire.ShadowArgs) error { return c.replyData(c.b.ShadowOpen(c.user, a.Path, a.Rel)) }),
	wire.OpAddUser:         do(addUser),
	wire.OpAudit:           get(auditTail),
	wire.OpResources:       get(func(c call, _ struct{}) ([]types.Resource, error) { return c.b.Cat.Resources(), nil }),
	wire.OpShardPull:       get(shardPull),
	wire.OpIncidentGet:     get(incidentGet),
	wire.OpIncidentCapture: get(incidentCapture),
	wire.OpScrub: get(func(c call, a wire.PathArgs) (wire.ScrubReply, error) {
		rpt, err := c.b.Scrub(c.user, a.Path, c.ss.span)
		return wire.ScrubReply{Server: c.s.name, Report: rpt}, err
	}),
	wire.OpChecksum: get(func(c call, a wire.PathArgs) (wire.ChecksumReply, error) {
		o, verdicts, err := c.b.VerifyChecksums(c.user, a.Path)
		return wire.ChecksumReply{Path: o.Path(), Checksum: o.Checksum, Verdicts: verdicts}, err
	}),
	wire.OpBulkPut:  get(bulkPut),
	wire.OpMultiGet: via(multiGet),
	wire.OpBulkStat: get(bulkStat),
}

// replyData streams data, or stages the error that came in its place.
func (c call) replyData(data []byte, err error) error {
	if err != nil {
		return c.ss.fail(err)
	}
	return c.ss.replyData(data)
}

// ingest stores a new object from the request's inbound stream. A
// remote target resource federates by proxy: the owning server performs
// the ingest and its reply is relayed untouched.
func ingest(c call, a wire.IngestArgs) error {
	if owner := c.s.resourceOwner(a.Resource); owner != "" && !c.ss.isPeer {
		body, err := c.s.proxyIngest(owner, c.user, c.req, c.ss.in, c.ss.deadline, c.ss.span)
		if err != nil {
			return c.ss.fail(err)
		}
		return c.ss.rawReply(body)
	}
	o, err := c.b.Ingest(c.user, core.IngestOpts{
		Path: a.Path, Reader: c.ss.in, Resource: a.Resource,
		Container: a.Container, DataType: a.DataType, Meta: a.Meta, Span: c.ss.span,
	})
	if err != nil {
		return c.ss.fail(err)
	}
	return c.ss.reply(o)
}

// getObject streams an object from its open replica, or federates the
// read to the peer that holds it.
func getObject(c call, a wire.PathArgs) error {
	user := c.user
	// A valid ticket lets the holder read with the issuer's
	// authority — delegated access independent of ACL grants.
	if c.req.Ticket != "" {
		level, issuer, terr := c.s.tickets.Redeem(c.req.Ticket, a.Path)
		if terr != nil {
			return c.ss.fail(terr)
		}
		if l, lerr := acl.ParseLevel(level); lerr == nil && l >= acl.Read {
			user = issuer
		}
	}
	if owner := c.s.localityOf(a.Path); owner != "" && !c.ss.isPeer {
		return c.s.federate(c.ss, owner, user, c.req)
	}
	f, size, err := c.b.OpenGet(user, a.Path, c.ss.span)
	if err != nil {
		return c.ss.fail(err)
	}
	defer f.Close()
	return c.ss.sendStream(wire.SizeReply{Size: size}, &sourceReader{r: f})
}

func issueTicket(c call, a wire.TicketArgs) (wire.TicketReply, error) {
	// Only a user holding Own may delegate access to a path.
	if c.b.Cat.EffectiveLevel(a.Path, c.user) < acl.Own {
		return wire.TicketReply{}, types.E("issueticket", a.Path, types.ErrPermission)
	}
	if _, err := acl.ParseLevel(a.Level); err != nil {
		return wire.TicketReply{}, types.E("issueticket", a.Level, types.ErrInvalid)
	}
	ttl := time.Duration(a.TTLSeconds) * time.Second
	if ttl <= 0 {
		ttl = time.Hour
	}
	tk, err := c.s.tickets.Issue(c.user, a.Path, a.Level, a.Uses, time.Now().Add(ttl))
	if err != nil {
		return wire.TicketReply{}, err
	}
	return wire.TicketReply{ID: tk.ID}, nil
}

func query(c call, a wire.QueryArgs) (wire.QueryReply, error) {
	qstart := time.Now()
	hits, partial, err := c.b.QueryPartial(c.user, a.Q)
	// On a sharded catalog the whole call is the scatter-gather
	// fan-out; the router's own phase ops attribute the merge tail.
	if sh, ok := c.b.Cat.(interface{ N() int }); err == nil && ok && sh.N() > 1 {
		c.ss.span.Phase(obs.PhaseShardFanout, time.Since(qstart))
	}
	return wire.QueryReply{Hits: hits, Partial: partial}, err
}

func chmod(c call, a wire.ChmodArgs) error {
	level, err := acl.ParseLevel(a.Level)
	if err != nil {
		return types.E("chmod", a.Level, types.ErrInvalid)
	}
	return c.b.Chmod(c.user, a.Path, a.Grantee, level)
}

func lock(c call, a wire.LockArgs) error {
	kind, err := parseLockKind(a.Kind)
	if err != nil {
		return err
	}
	return c.b.Lock(c.user, a.Path, kind, time.Duration(a.TTLSeconds)*time.Second)
}

func execSQL(c call, a wire.ExecSQLArgs) error {
	if owner := c.s.sqlOwner(a.Path); owner != "" && !c.ss.isPeer {
		return c.s.federate(c.ss, owner, c.user, c.req)
	}
	return c.replyData(c.b.ExecuteSQL(c.user, a.Path, a.Suffix))
}

// addUser registers an account; the row's gate has admitted an
// administrator.
func addUser(c call, a wire.AddUserArgs) error {
	if a.Name == "" || a.Password == "" {
		return types.E("adduser", a.Name, types.ErrInvalid)
	}
	domain := a.Domain
	if domain == "" {
		domain = "local"
	}
	if err := c.b.Cat.AddUser(types.User{Name: a.Name, Domain: domain, Admin: a.Admin}); err != nil {
		return err
	}
	c.s.authn.Register(a.Name, a.Password)
	c.b.Cat.AuditLog().Op(c.user, "adduser", a.Name, true, domain)
	return nil
}

func auditTail(c call, a wire.AuditArgs) ([]types.AuditRecord, error) {
	recs := c.b.Cat.AuditLog().Query(audit.Filter{User: a.User, Op: a.Op, Target: a.Target, Trace: a.Trace})
	if a.Limit > 0 && len(recs) > a.Limit {
		recs = recs[len(recs)-a.Limit:]
	}
	return recs, nil
}

// shardPull serves one shard's replication stream. It exposes the whole
// catalog, which is why the row's gate admits only peer daemons and
// administrators.
func shardPull(c call, a wire.ShardPullArgs) (wire.ShardPullReply, error) {
	rt, ok := c.b.Cat.(interface {
		Pull(int, uint64) (shard.PullResult, error)
	})
	if !ok {
		return wire.ShardPullReply{}, types.E("shardpull", "", types.ErrUnsupported)
	}
	res, err := rt.Pull(a.Shard, a.After)
	return wire.ShardPullReply{Server: c.s.name, Entries: res.Entries, Snapshot: res.Snapshot, Seq: res.Seq}, err
}

func bulkStat(c call, a wire.BulkStatArgs) (wire.BulkStatReply, error) {
	c.s.observeBatch(len(a.Paths))
	rep := wire.BulkStatReply{Server: c.s.name}
	for _, p := range a.Paths {
		item := wire.BulkStatItem{Path: p}
		if st, err := c.b.StatPath(c.user, p); err != nil {
			item.ErrKind, item.ErrMsg = wire.KindOf(err), err.Error()
		} else {
			item.OK, item.Stat = true, st
		}
		rep.Items = append(rep.Items, item)
	}
	return rep, nil
}

// observeBatch records a batch op's item count in the batch-size
// histogram (count encoded as microseconds in the pow-2 buckets).
func (s *Server) observeBatch(n int) {
	s.broker.Metrics().Op("server.batch.items").Observe(time.Duration(n)*time.Microsecond, nil)
}

// bulkPut ingests a batch in one round trip. The manifest must
// account for the whole data stream byte-for-byte; items then succeed
// or fail independently — each ingest is atomic per item, so a failed
// item writes no partial rows and cannot tear down its batch-mates.
// Items whose target resource lives on a peer are proxied item by item.
//
// The batch is held whole before any item is ingested, because a
// manifest that disagrees with the stream must fail the batch with
// nothing stored. The buffer grows with the bytes that arrive and stops
// at the manifest's total: a client cannot make it larger by declaring
// a size, nor by sending more than it declared.
func bulkPut(c call, a wire.BulkPutArgs) (wire.BulkPutReply, error) {
	s, ss, user := c.s, c.ss, c.user
	rep := wire.BulkPutReply{Server: s.name}
	var total int64
	for _, it := range a.Items {
		if it.Size < 0 {
			return rep, types.E(wire.OpBulkPut, it.Path, types.ErrInvalid)
		}
		total += it.Size
	}
	var batch wire.Buffer
	got, err := chunk.Copy(&batch, io.LimitReader(ss.in, total+1))
	if err != nil {
		return rep, types.E(wire.OpBulkPut, "", err)
	}
	if got != total {
		carried := fmt.Sprint(got)
		if got > total {
			carried = "more" // reading stopped one byte past the manifest
		}
		return rep, types.E(wire.OpBulkPut, "",
			fmt.Errorf("manifest declares %d bytes, stream carries %s: %w", total, carried, types.ErrInvalid))
	}
	stream := batch.Bytes()
	s.observeBatch(len(a.Items))
	off := int64(0)
	for _, it := range a.Items {
		data := stream[off : off+it.Size : off+it.Size]
		off += it.Size
		st := wire.BulkItemStatus{Path: it.Path, OK: true}
		var err error
		if owner := s.resourceOwner(it.Resource); owner != "" && !ss.isPeer {
			ireq := &wire.Request{Op: wire.OpIngest, Trace: c.req.Trace}
			ireq.Args, err = json.Marshal(wire.IngestArgs{
				Path: it.Path, Resource: it.Resource, Container: it.Container,
				DataType: it.DataType, Meta: it.Meta,
			})
			if err == nil {
				_, err = s.proxyIngest(owner, user, ireq, bytes.NewReader(data), ss.deadline, ss.span)
			}
		} else {
			_, err = s.broker.Ingest(user, core.IngestOpts{
				Path: it.Path, Data: data, Resource: it.Resource,
				Container: it.Container, DataType: it.DataType, Meta: it.Meta,
			})
		}
		if err != nil {
			st.OK = false
			st.ErrKind, st.ErrMsg = wire.KindOf(err), err.Error()
		}
		rep.Results = append(rep.Results, st)
	}
	return rep, nil
}

// multiGet fetches a batch of objects and replies with a manifest
// of per-item outcomes followed by the successful items' bytes in
// request order (the manifest's sizes let the client slice the stream
// back apart). Items fail independently; remote-owned items are proxied
// like a single get. Each item is read into one buffer of its own size,
// and the reply is framed from those buffers through a pooled chunk —
// the batch is never concatenated.
func multiGet(c call, a wire.MultiGetArgs) error {
	s, ss, user := c.s, c.ss, c.user
	rep := wire.MultiGetReply{Server: s.name}
	s.observeBatch(len(a.Paths))
	items := make(chunk.Slices, 0, len(a.Paths))
	for _, p := range a.Paths {
		item := wire.MultiGetItem{Path: p}
		var data []byte
		var err error
		if owner := s.localityOf(p); owner != "" && !ss.isPeer {
			greq := &wire.Request{Op: wire.OpGet, Trace: c.req.Trace}
			greq.Args, err = json.Marshal(wire.PathArgs{Path: p})
			if err == nil {
				if addr, ok := s.PeerAddr(owner); ok {
					data, err = s.proxyGetBytes(owner, addr, user, greq, ss.deadline, ss.span)
				} else {
					err = types.E(wire.OpGet, owner, types.ErrOffline)
				}
			}
		} else {
			data, err = s.broker.GetTraced(user, p, ss.span)
		}
		if err != nil {
			item.ErrKind, item.ErrMsg = wire.KindOf(err), err.Error()
		} else {
			item.OK, item.Size = true, int64(len(data))
			items = append(items, data)
		}
		rep.Items = append(rep.Items, item)
	}
	return ss.sendStream(rep, &items)
}

// proxyGetBytes is proxyGet into one buffer allocated at the size the
// peer announces. Each attempt fills a buffer of its own, so a retry
// simply starts over.
func (s *Server) proxyGetBytes(peerName, addr, user string, req *wire.Request, deadline time.Time, sp *obs.Span) ([]byte, error) {
	var sink sizedSink
	if err := s.proxyGet(peerName, addr, user, req, deadline, sp, &sink, nil); err != nil {
		return nil, err
	}
	return sink.buf.Bytes(), nil
}

// sizedSink collects a reply stream into a fresh buffer of the size its
// wire.SizeReply header announces.
type sizedSink struct{ buf *wire.Buffer }

func (k *sizedSink) Begin(resp *wire.Response) (io.Writer, error) {
	buf, err := wire.NewSizedBuffer(resp.Body)
	if err != nil {
		return nil, err
	}
	k.buf = buf
	return buf, nil
}

// readRange serves the parallel-transfer primitive: length bytes of the
// object from offset, streamed from the open replica (or federated to
// the peer that holds it).
func readRange(c call, a wire.RangeArgs) error {
	ss := c.ss
	if owner := c.s.localityOf(a.Path); owner != "" && !ss.isPeer {
		return c.s.federate(ss, owner, c.user, c.req)
	}
	if a.Offset < 0 {
		return ss.fail(types.E(wire.OpReadRange, a.Path, types.ErrInvalid))
	}
	f, size, err := c.b.OpenRead(c.user, a.Path)
	if err != nil {
		return ss.fail(err)
	}
	defer f.Close()
	length := a.Length
	if length < 0 || a.Offset+length > size {
		length = size - a.Offset
	}
	if length < 0 {
		length = 0 // offset at or past the end: an empty range
	}
	return ss.sendStream(wire.SizeReply{Size: length},
		&sourceReader{r: io.NewSectionReader(f, a.Offset, length)})
}

// replicate performs a replication that may cross server
// boundaries: source bytes are streamed from wherever a clean replica
// lives, and the owning server of the target resource stores the copy.
func replicate(c call, a wire.ReplicateArgs) (types.Replica, error) {
	s, ss, user := c.s, c.ss, c.user
	targetOwner := s.resourceOwner(a.Resource)
	sourceOwner := s.localityOf(a.Path)
	if targetOwner == "" && sourceOwner == "" {
		// Fully local.
		return s.broker.Replicate(user, a.Path, a.Resource)
	}
	if ss.isPeer {
		// Peers only delegate the final local step; refuse loops.
		return types.Replica{}, types.E("replicate", a.Path, types.ErrInvalid)
	}
	// Open the source bytes: locally when possible, else via the holder.
	var src io.Reader
	if sourceOwner == "" {
		f, _, err := s.broker.OpenGet(user, a.Path, ss.span)
		if err != nil {
			return types.Replica{}, err
		}
		defer f.Close()
		src = f
	} else {
		req := &wire.Request{Op: wire.OpGet}
		req.Args, _ = json.Marshal(wire.PathArgs{Path: a.Path})
		addr, ok := s.PeerAddr(sourceOwner)
		if !ok {
			return types.Replica{}, types.E("replicate", sourceOwner, types.ErrOffline)
		}
		// The holder pushes the stream at us while the store below pulls
		// it: a pipe joins the two without buffering. Bytes handed to the
		// pipe are gone, so only a failure before the first one retries.
		pr, pw := io.Pipe()
		tw := &touchWriter{w: pw}
		done := make(chan struct{})
		go func() {
			defer close(done)
			pw.CloseWithError(s.proxyGet(sourceOwner, addr, user, req, ss.deadline, ss.span,
				tw, func() bool { return !tw.touched.Load() }))
		}()
		// Closing the read end fails the fetch's next write, so it winds
		// down even when the store gave up early; wait for it to.
		defer func() { pr.Close(); <-done }()
		src = pr
	}
	if targetOwner == "" {
		// Target local: store directly.
		return s.broker.IngestReplicaFrom(user, a.Path, a.Resource, src)
	}
	// Target remote: the owning peer stores the replica.
	req := &wire.Request{Op: wire.OpIngestReplica, OnBehalf: user}
	req.Args, _ = json.Marshal(wire.ReplicateArgs{Path: a.Path, Resource: a.Resource})
	addr, ok := s.PeerAddr(targetOwner)
	if !ok {
		return types.Replica{}, types.E("replicate", targetOwner, types.ErrOffline)
	}
	var body json.RawMessage
	err := s.peerDo(targetOwner, addr, ss.deadline, req, ss.span, true, func(pc *peerConn) error {
		b, err := pc.roundTrip(req, src, nil)
		body = b
		return err
	})
	if err != nil {
		return types.Replica{}, err
	}
	var rep types.Replica
	if err := json.Unmarshal(body, &rep); err != nil {
		return types.Replica{}, err
	}
	return rep, nil
}

// touchWriter remembers whether anything has been written through it;
// as a wire.Sink it takes any reply stream. The mark is set before the
// write and read across goroutines: a peer call that timed out may still
// be inside its last Write (wire.Sink), and that counts.
type touchWriter struct {
	w       io.Writer
	touched atomic.Bool
}

func (t *touchWriter) Begin(*wire.Response) (io.Writer, error) { return t, nil }

func (t *touchWriter) Write(p []byte) (int, error) {
	t.touched.Store(true)
	return t.w.Write(p)
}

// sqlOwner names the peer owning the database resource behind a SQL
// object, or "" when local.
func (s *Server) sqlOwner(path string) string {
	o, err := s.broker.Cat.GetObject(path)
	if err != nil || o.Kind != types.KindSQL || o.SQL == nil {
		return ""
	}
	return s.resourceOwner(o.SQL.Resource)
}

// proxyIngest relays an ingest request (with its data) to the owning
// peer. Ingest mutates, so there is exactly one attempt.
func (s *Server) proxyIngest(peerName, user string, req *wire.Request, data io.Reader, deadline time.Time, sp *obs.Span) ([]byte, error) {
	addr, ok := s.PeerAddr(peerName)
	if !ok {
		return nil, types.E(req.Op, peerName, types.ErrOffline)
	}
	fwd := *req
	fwd.OnBehalf = user
	var body []byte
	err := s.peerDo(peerName, addr, deadline, &fwd, sp, true, func(pc *peerConn) error {
		b, err := pc.roundTrip(&fwd, data, nil)
		body = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// collectionOf derives the usage-accounting key from a request's args:
// the parent collection of the op's primary path (Src for two-path
// ops). Ops that carry no grid path account under "-".
func collectionOf(args json.RawMessage) string {
	var a struct{ Path, Src string }
	if len(args) > 0 {
		_ = json.Unmarshal(args, &a)
	}
	p := a.Path
	if p == "" {
		p = a.Src
	}
	if p == "" || !strings.HasPrefix(p, "/") {
		return "-"
	}
	return types.Parent(p)
}
