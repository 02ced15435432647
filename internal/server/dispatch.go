package server

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/audit"
	"gosrb/internal/chunk"
	"gosrb/internal/core"
	"gosrb/internal/lend"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/storage"
	"gosrb/internal/traceid"
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
func (s *Server) dispatch(ss *session) error {
	req := &ss.req
	// The request's frame goes back to the pool when dispatch ends: the
	// handler decoded req.Args, copying what it keeps, long before.
	defer ss.releaseFrame()
	if req.Trace == 0 {
		req.Trace = traceid.New()
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
	sp := &ss.spanBuf
	sp.Open(req.Trace, req.Span, req.Op)
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
	// Answered: this slot comes free as soon as the last frame is out.
	ss.w.unanswered.Add(-1)
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
		return ss.w.write(func(c *wire.Conn) error { return c.WriteRedirect(ss.redir) })
	default:
		ss.staged.ID = ss.reqID
		return ss.w.write(func(c *wire.Conn) error { return c.WriteResponse(&ss.staged) })
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
	reg.OpAt("server.", req.Op).Observe(elapsed, opErr)
	events := sp.End(reg.Traces(), s.name, ss.remote, opErr)
	reg.RecordPhases("server", req.Op, req.Trace, events)
	ss.span = nil
	if ss.acctUser != "" {
		// The usage key is the parent collection of the path the decoded
		// arguments address; ops that address none account under "-".
		coll := "-"
		if strings.HasPrefix(ss.acctPath, "/") {
			coll = types.Parent(ss.acctPath)
		}
		reg.Usage().Record(ss.acctUser, coll, req.Trace, req.Op,
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
	} else if s.Logger.Enabled(obs.LevelDebug) {
		// Guarded: boxing the arguments costs every request even when the
		// line is not emitted.
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
// error. The arguments are decoded once, here, and also give the request
// its usage key.
func via[A any](fn func(c call, a A) error) handler {
	return func(c call) error {
		a, err := wire.DecodeArgs[A](c.req.Args)
		if err != nil {
			return c.ss.fail(err)
		}
		c.ss.acctPath = argsPath(&a)
		return fn(c, a)
	}
}

// argsPath is the grid path decoded arguments address: their Path field,
// or Src for the two-path ops; "" when they carry neither. The hot
// argument types are read directly, which keeps them on the stack; the
// rest by reflection, on a copy.
func argsPath[A any](a *A) string {
	switch x := any(a).(type) {
	case *wire.PathArgs:
		return x.Path
	case *wire.IngestArgs:
		return x.Path
	case *wire.RangeArgs:
		return x.Path
	case *wire.MetaArgs:
		return x.Path
	case *wire.GetMetaArgs:
		return x.Path
	case *wire.AnnotateArgs:
		return x.Path
	case *wire.QueryArgs, *wire.MultiGetArgs, *wire.BulkStatArgs, *struct{}:
		return ""
	}
	v := reflect.ValueOf(*a)
	if v.Kind() != reflect.Struct {
		return ""
	}
	for _, name := range [...]string{"Path", "Src"} {
		if f := v.FieldByName(name); f.Kind() == reflect.String && f.String() != "" {
			return f.String()
		}
	}
	return ""
}

// get builds the handler of an op that replies with a value: decode, one
// call, reply.
func get[A, R any](fn func(c call, a A) (R, error)) handler {
	return via(func(c call, a A) error {
		r, err := fn(c, a)
		if err != nil {
			return c.ss.fail(err)
		}
		return reply(c.ss, &r)
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
		return reply(c.ss, &rep)
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
	wire.OpList:        via(list),
	wire.OpStat:        get(func(c call, a wire.PathArgs) (types.Stat, error) { return c.b.StatPath(c.user, a.Path) }),
	wire.OpGetObject:   get(func(c call, a wire.PathArgs) (types.DataObject, error) { return c.b.GetObject(c.user, a.Path) }),
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
	wire.OpQuery:       via(query),
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
		body, err := c.s.peerCall(owner, c.user, c.req, c.ss.in, nil, c.ss.deadline, c.ss.span, nil)
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
	return reply(c.ss, &o)
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
	row := c.b.Lookup(a.Path)
	if !c.ss.isPeer {
		if owner := c.b.Replicas().Owner(&row.Obj); owner != "" {
			return c.s.federate(c.ss, owner, user, c.req)
		}
	}
	h := &c.ss.get
	size, err := c.b.OpenGet(h, user, &row, c.ss.span)
	if err != nil {
		return c.ss.fail(err)
	}
	defer h.Close()
	return sendStream(c.ss, &wire.SizeReply{Size: size}, c.ss.source(h))
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

// list lists into the slot's kept buffer (session.stats) and encodes
// the reply from it.
func list(c call, a wire.PathArgs) error {
	st, err := c.b.AppendList(c.ss.stats[:0], c.user, a.Path)
	if err != nil {
		return c.ss.fail(err)
	}
	body := st
	if len(body) == 0 {
		body = nil // an empty collection lists as nil, as ListColl's does
	}
	err = reply(c.ss, &body)
	c.ss.stats = keep(st)
	return err
}

// query answers into the slot's kept answer (session.ans) and encodes
// the reply from it.
func query(c call, a wire.QueryArgs) error {
	qstart := time.Now()
	ans := &c.ss.ans
	hits := ans.Hits // the buffer, which QueryInto gives up for nil when nothing matches
	partial, err := c.b.QueryInto(ans, c.user, a.Q)
	// On a sharded catalog the whole call is the scatter-gather
	// fan-out; the router's own phase ops attribute the merge tail.
	if sh, ok := c.b.Cat.(interface{ N() int }); err == nil && ok && sh.N() > 1 {
		c.ss.span.Phase(obs.PhaseShardFanout, time.Since(qstart))
	}
	if err != nil {
		err = c.ss.fail(err)
	} else {
		err = reply(c.ss, &wire.QueryReply{Hits: ans.Hits, Partial: partial})
	}
	if ans.Hits == nil {
		ans.Hits = hits
	}
	ans.Hits, ans.Cols, ans.Vals = keep(ans.Hits), keep(ans.Cols), keep(ans.Vals)
	return err
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
	c.b.Audit.Op(c.user, "adduser", a.Name, true, domain)
	return nil
}

func auditTail(c call, a wire.AuditArgs) ([]types.AuditRecord, error) {
	recs := c.b.Audit.Query(audit.Filter{User: a.User, Op: a.Op, Target: a.Target, Trace: a.Trace})
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
		Pull(int, shard.Position) (shard.PullResult, error)
	})
	if !ok {
		return wire.ShardPullReply{}, types.E("shardpull", "", types.ErrUnsupported)
	}
	res, err := rt.Pull(a.Shard, a.From)
	return wire.ShardPullReply{Server: c.s.name, PullResult: res}, err
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
// nothing stored. It is held in a chunk.Spool, which grows with the
// bytes that arrive and stops at the manifest's total: a client cannot
// make it larger by declaring a size, nor by sending more than it
// declared. Each item reads its own section of the spool, so an item
// refused before it reads its bytes cannot shift its neighbours'.
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
	var batch chunk.Spool
	defer batch.Release()
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
	s.observeBatch(len(a.Items))
	off := int64(0)
	for _, it := range a.Items {
		data := io.NewSectionReader(&batch, off, it.Size)
		off += it.Size
		st := wire.BulkItemStatus{Path: it.Path, OK: true}
		var err error
		if owner := s.resourceOwner(it.Resource); owner != "" && !ss.isPeer {
			ireq := &wire.Request{Op: wire.OpIngest, Trace: c.req.Trace}
			ireq.Args, err = wire.AppendBody(nil, &wire.IngestArgs{
				Path: it.Path, Resource: it.Resource, Container: it.Container,
				DataType: it.DataType, Meta: it.Meta,
			})
			if err == nil {
				_, err = s.peerCall(owner, user, ireq, data, nil, ss.deadline, ss.span, nil)
			}
		} else {
			_, err = s.broker.Ingest(user, core.IngestOpts{
				Path: it.Path, Reader: data, Resource: it.Resource,
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
// back apart). Items fail independently.
//
// Remote items cross the WAN once per owner, not once per item: each
// owning peer is sent one multiget of its paths, the owners run
// concurrently, and each owner's reply is received into a chunk.Spool.
// That reply is held, not relayed, because an owner that dies mid-stream
// must fail its own items and no others, and the client's manifest
// cannot go out before every owner's stream is complete. Each path is
// looked up once: the row decides its owner, and a local item is opened
// from it there and then, before the owners are asked. Local items are
// opened, not read: their bytes stream from the replicas into the reply
// through the pooled chunk, so no local item is held whole. A local open
// that fails fails its own item.
//
// The call's bookkeeping — the reply's items, the parts, the owners with
// their places, paths and request frames, the reader over the parts — is
// one pooled mget. Once the reply is sent, the spool of every owner whose
// call succeeded goes back to the pool, and the mget goes back when every
// owner's call succeeded on one stream (finish). Otherwise both are
// dropped to the GC: a call that timed out may leave its last sink call
// running (wire.Sink), into the owner's spool and the owner itself, and
// either put back under it would corrupt another request.
func multiGet(c call, a wire.MultiGetArgs) error {
	s, ss := c.s, c.ss
	s.observeBatch(len(a.Paths))
	m := getMget(len(a.Paths))
	m.rep.Server = s.name
	defer m.finish(c.b.Metrics())
	for i, p := range a.Paths {
		m.rep.Items[i].Path = p
		m.parts[i].path = p
		row := c.b.Lookup(p)
		if !ss.isPeer {
			if owner := c.b.Replicas().Owner(&row.Obj); owner != "" {
				ob := m.batchFor(owner)
				ob.idx = append(ob.idx, i)
				ob.paths = append(ob.paths, p)
				continue
			}
		}
		size, err := c.b.OpenGet(&m.parts[i].h, c.user, &row, ss.span)
		if err != nil {
			m.rep.Items[i].ErrKind, m.rep.Items[i].ErrMsg = wire.KindOf(err), err.Error()
			continue
		}
		m.rep.Items[i].OK, m.rep.Items[i].Size = true, size
		m.parts[i].f, m.parts[i].left = &m.parts[i].h, size
	}
	if owners := m.owners; len(owners) > 0 {
		// The first owner runs inline: a one-owner batch spawns nothing.
		for i := range owners[1:] {
			ob := &owners[1+i]
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				ob.fetch(c)
			}()
		}
		owners[0].fetch(c)
		m.wg.Wait()
	}
	for i := range m.owners {
		m.owners[i].fill(m.rep.Items, m.parts)
	}
	m.src = batchReader{parts: m.parts}
	return sendStream(ss, &m.rep, ss.source(&m.src))
}

// mget is one multiget's bookkeeping, lent from mgets.
type mget struct {
	rep    wire.MultiGetReply
	parts  []batchPart
	owners []ownerBatch
	wg     sync.WaitGroup // the owners fetched beside the first
	src    batchReader
}

// mgets lends mgets: a multiget makes none for its bookkeeping. One is
// in flight per multiget being served.
var mgets = lend.NewPool(8, func() *mget { return new(mget) })

// maxPooledMget caps a pooled mget's buffers, in items: an mget a large
// batch grew past it goes to the GC.
const maxPooledMget = 1024

// getMget lends an mget sized for n items, the paths the request holds.
func getMget(n int) *mget {
	m := mgets.Get()
	if cap(m.parts) < n {
		m.rep.Items, m.parts = make([]wire.MultiGetItem, n), make([]batchPart, n)
	}
	m.rep.Items, m.parts = m.rep.Items[:n], m.parts[:n]
	return m
}

// finish closes the local items' readers and releases the spools of the
// owners whose calls succeeded. It recycles m only when every owner's
// call succeeded on its first stream, for then no sink call can still
// be running into it, and m stayed within maxPooledMget; an m held back
// for an owner's sake is counted in server.multiget.dropped.
func (m *mget) finish(reg *obs.Registry) {
	settled := true
	for i := range m.owners {
		ob := &m.owners[i]
		if ob.err == nil {
			ob.spool.Release()
		}
		settled = settled && ob.err == nil && ob.streams <= 1
	}
	for i := range m.parts {
		if m.parts[i].f != nil {
			m.parts[i].f.Close()
		}
	}
	if !settled {
		reg.Counter("server.multiget.dropped").Inc()
	}
	if !settled || cap(m.parts) > maxPooledMget {
		return
	}
	clear(m.rep.Items)
	clear(m.parts)
	for i := range m.owners {
		ob := &m.owners[i]
		clear(ob.paths)
		*ob = ownerBatch{idx: ob.idx[:0], paths: ob.paths[:0], args: ob.args[:0], own: ob.own}
	}
	m.rep = wire.MultiGetReply{Items: m.rep.Items[:0]}
	m.parts, m.owners, m.src = m.parts[:0], m.owners[:0], batchReader{}
	mgets.Put(m)
}

// ownerBatch is the share of a multiget one peer holds: its paths, their
// places in the request, the frame its request is encoded in, and its
// answer.
type ownerBatch struct {
	peer  string
	idx   []int
	paths []string
	args  []byte
	rep   wire.MultiGetReply
	spool *chunk.Spool
	err   error
	// streams counts the reply streams Begin took, one per attempt that
	// got a manifest. The first is received into own.
	streams int
	own     chunk.Spool
}

// batchFor finds peer's batch among m's owners, adding it when new. The
// pointer is good until the next call.
func (m *mget) batchFor(peer string) *ownerBatch {
	for i := range m.owners {
		if m.owners[i].peer == peer {
			return &m.owners[i]
		}
	}
	if len(m.owners) < cap(m.owners) {
		// A recycled owner keeps its buffers.
		m.owners = m.owners[:len(m.owners)+1]
	} else {
		m.owners = append(m.owners, ownerBatch{})
	}
	ob := &m.owners[len(m.owners)-1]
	ob.peer = peer
	return ob
}

// fetch sends the owner its paths as one multiget, under the idempotent
// retry, and holds the manifest it answers with to the request.
func (ob *ownerBatch) fetch(c call) {
	req := &wire.Request{Op: wire.OpMultiGet, Trace: c.req.Trace}
	if ob.args, ob.err = wire.AppendBody(ob.args[:0], &wire.MultiGetArgs{Paths: ob.paths}); ob.err != nil {
		return
	}
	req.Args = ob.args
	if _, ob.err = c.s.peerCall(ob.peer, c.user, req, nil, ob, c.ss.deadline, c.ss.span, nil); ob.err != nil {
		return
	}
	ob.err = ob.check()
}

// Begin decodes the owner's manifest and receives the stream behind it
// into a spool (wire.Sink). Nothing is presized from the manifest's
// sizes: a peer's announced length buys it no memory, only the bytes it
// sends do. Each attempt starts from a fresh spool, so a retry never
// sees a torn one, nor a chunk an abandoned attempt may still write to:
// the first attempt's is ob's own, a retry's is new.
func (ob *ownerBatch) Begin(resp *wire.Response) (io.Writer, error) {
	ob.streams++
	ob.rep = wire.MultiGetReply{}
	if err := wire.DecodeBody(resp.Body, &ob.rep); err != nil {
		return nil, err
	}
	ob.spool = &ob.own
	if ob.streams > 1 {
		ob.spool = new(chunk.Spool)
	}
	return ob.spool, nil
}

// check accepts a manifest that names exactly the requested paths, in
// the requested order, with sizes that account for the stream received.
func (ob *ownerBatch) check() error {
	left := ob.spool.Len()
	ok := len(ob.rep.Items) == len(ob.paths)
	for j := 0; ok && j < len(ob.paths); j++ {
		it := &ob.rep.Items[j]
		ok = it.Path == ob.paths[j] && (!it.OK || 0 <= it.Size && it.Size <= left)
		if ok && it.OK {
			left -= it.Size
		}
	}
	if !ok || left != 0 {
		return types.E(wire.OpMultiGet, ob.peer, fmt.Errorf("manifest does not answer the request: %w", types.ErrInvalid))
	}
	return nil
}

// fill puts the owner's answer in the request's places: each item as the
// peer reported it, its bytes a section of the owner's spool; or, when
// the call failed as a whole, its error on every one of them.
func (ob *ownerBatch) fill(items []wire.MultiGetItem, parts []batchPart) {
	if ob.err != nil {
		kind, msg := wire.KindOf(ob.err), ob.err.Error()
		for _, i := range ob.idx {
			items[i].ErrKind, items[i].ErrMsg = kind, msg
		}
		return
	}
	off := int64(0)
	for j, i := range ob.idx {
		items[i] = ob.rep.Items[j]
		if items[i].OK {
			parts[i].spool, parts[i].off, parts[i].left = ob.spool, off, items[i].Size
			off += items[i].Size
		}
	}
}

// batchPart is one item of a multiget's stream: a local item's open
// replica, or a remote item's place in its owner's spool, and how many
// of its bytes are still owed. A local item's handle is held in its part,
// so opening it makes no object.
type batchPart struct {
	path  string
	h     core.GetHandle
	f     storage.ReadFile // &h once a local item is open, else nil
	spool *chunk.Spool
	off   int64
	left  int64
}

// batchReader reads a multiget's items end to end, each exactly as long
// as its manifest entry: a source that ends short fails the read, so the
// bytes of the items after it can never slide into its place.
type batchReader struct{ parts []batchPart }

func (b *batchReader) Read(p []byte) (int, error) {
	for len(b.parts) > 0 && b.parts[0].left == 0 {
		b.parts = b.parts[1:]
	}
	if len(b.parts) == 0 {
		return 0, io.EOF
	}
	pt := &b.parts[0]
	if int64(len(p)) > pt.left {
		p = p[:pt.left]
	}
	if pt.f == nil {
		// check vouched that the spool holds every byte the part owes.
		n, err := pt.spool.ReadAt(p, pt.off)
		pt.off, pt.left = pt.off+int64(n), pt.left-int64(n)
		return n, err
	}
	n, err := pt.f.Read(p)
	pt.left -= int64(n)
	if err == io.EOF {
		err = nil
		if pt.left > 0 {
			err = types.E(wire.OpMultiGet, pt.path, fmt.Errorf("source ended %d bytes short: %w", pt.left, io.ErrUnexpectedEOF))
		}
	}
	return n, err
}

// readRange serves the parallel-transfer primitive: length bytes of the
// object from offset, streamed from the open replica (or federated to
// the peer that holds it).
func readRange(c call, a wire.RangeArgs) error {
	ss := c.ss
	row := c.b.Lookup(a.Path)
	if !ss.isPeer {
		if owner := c.b.Replicas().Owner(&row.Obj); owner != "" {
			return c.s.federate(ss, owner, c.user, c.req)
		}
	}
	if a.Offset < 0 {
		return ss.fail(types.E(wire.OpReadRange, a.Path, types.ErrInvalid))
	}
	f, size, err := c.b.OpenRead(c.user, &row)
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
	return sendStream(ss, &wire.SizeReply{Size: length},
		ss.source(io.NewSectionReader(f, a.Offset, length)))
}

// replicate performs a replication that may cross server
// boundaries: source bytes are streamed from wherever a clean replica
// lives, and the owning server of the target resource stores the copy.
func replicate(c call, a wire.ReplicateArgs) (types.Replica, error) {
	s, ss, user := c.s, c.ss, c.user
	targetOwner := s.resourceOwner(a.Resource)
	row := c.b.Lookup(a.Path)
	sourceOwner := c.b.Replicas().Owner(&row.Obj)
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
		var h core.GetHandle
		if _, err := s.broker.OpenGet(&h, user, &row, ss.span); err != nil {
			return types.Replica{}, err
		}
		defer h.Close()
		src = &h
	} else {
		req := &wire.Request{Op: wire.OpGet}
		req.Args, _ = wire.AppendBody(nil, &wire.PathArgs{Path: a.Path})
		// The holder pushes the stream at us while the store below pulls
		// it: a pipe joins the two without buffering. Bytes handed to the
		// pipe are gone, so only a failure before the first one retries.
		pr, pw := io.Pipe()
		tw := &touchWriter{w: pw}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, err := s.peerCall(sourceOwner, user, req, nil, tw, ss.deadline, ss.span,
				func() bool { return !tw.touched.Load() })
			pw.CloseWithError(err)
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
	req := &wire.Request{Op: wire.OpIngestReplica}
	req.Args, _ = wire.AppendBody(nil, &wire.ReplicateArgs{Path: a.Path, Resource: a.Resource})
	body, err := s.peerCall(targetOwner, user, req, src, nil, ss.deadline, ss.span, nil)
	if err != nil {
		return types.Replica{}, err
	}
	var rep types.Replica
	if err := wire.DecodeBody(body, &rep); err != nil {
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
