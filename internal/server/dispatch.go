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
	var queueWait time.Duration
	if !ss.enqueued.IsZero() {
		// Pipelined request: backdate the span to when the reader loop
		// enqueued it, so queue.wait + dispatch partition the span's wall
		// clock exactly and queue pressure shows up in the trace, not as
		// mystery latency before it.
		queueWait = time.Since(ss.enqueued)
		sp.Start = ss.enqueued
		sp.Phase(obs.PhaseQueueWait, queueWait)
	}
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
// the session: a staged response or redirect, or a begun stream.
// Handler errors become error responses; only transport failures
// propagate and drop the connection.
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
	b := s.broker
	switch req.Op {
	case wire.OpMkdir:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Mkdir(user, a.Path); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpRmColl:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.RmColl(user, a.Path); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpList:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		stats, err := b.List(user, a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(stats)

	case wire.OpStat:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		st, err := b.StatPath(user, a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(st)

	case wire.OpGetObject:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		o, err := b.Cat.GetObject(a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(o)

	case wire.OpIngest:
		a, err := decode[wire.IngestArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		// A remote target resource federates by proxy: the owning
		// server performs the ingest.
		if owner := s.resourceOwner(a.Resource); owner != "" && !ss.isPeer {
			body, err := s.proxyIngest(owner, user, req, ss.in, ss.deadline, ss.span)
			if err != nil {
				return ss.fail(err)
			}
			return ss.rawReply(body)
		}
		opts := toIngestOpts(a, ss.in)
		opts.Span = ss.span
		o, err := b.Ingest(user, opts)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(o)

	case wire.OpReingest:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.ReingestFrom(user, a.Path, ss.in); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpGet:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		// A valid ticket lets the holder read with the issuer's
		// authority — delegated access independent of ACL grants.
		if req.Ticket != "" {
			level, issuer, terr := s.tickets.Redeem(req.Ticket, a.Path)
			if terr != nil {
				return ss.fail(terr)
			}
			if l, lerr := acl.ParseLevel(level); lerr == nil && l >= acl.Read {
				user = issuer
			}
		}
		if owner := s.localityOf(a.Path); owner != "" && !ss.isPeer {
			return s.federate(ss, owner, user, req)
		}
		f, size, err := b.OpenGet(user, a.Path, ss.span)
		if err != nil {
			return ss.fail(err)
		}
		defer f.Close()
		return ss.sendStream(wire.SizeReply{Size: size}, &sourceReader{r: f})

	case wire.OpIssueTicket:
		a, err := decode[wire.TicketArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		// Only a user holding Own may delegate access to a path.
		if b.Cat.EffectiveLevel(a.Path, user) < acl.Own {
			return ss.fail(types.E("issueticket", a.Path, types.ErrPermission))
		}
		if _, err := acl.ParseLevel(a.Level); err != nil {
			return ss.fail(types.E("issueticket", a.Level, types.ErrInvalid))
		}
		ttl := time.Duration(a.TTLSeconds) * time.Second
		if ttl <= 0 {
			ttl = time.Hour
		}
		tk, err := s.tickets.Issue(user, a.Path, a.Level, a.Uses, time.Now().Add(ttl))
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.TicketReply{ID: tk.ID})

	case wire.OpReadRange:
		a, err := decode[wire.RangeArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if owner := s.localityOf(a.Path); owner != "" && !ss.isPeer {
			return s.federate(ss, owner, user, req)
		}
		return s.readRange(ss, user, a)

	case wire.OpReplicate:
		a, err := decode[wire.ReplicateArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rep, err := s.handleReplicate(user, ss, a)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(rep)

	case wire.OpIngestReplica:
		a, err := decode[wire.ReplicateArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rep, err := b.IngestReplicaFrom(user, a.Path, a.Resource, ss.in)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(rep)

	case wire.OpDelete:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Delete(user, a.Path); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpDeleteReplica:
		a, err := decode[wire.ReplicaArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.DeleteReplica(user, a.Path, types.ReplicaNumber(a.Number)); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpMove:
		a, err := decode[wire.MoveArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Move(user, a.Src, a.Dst); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpCopy:
		a, err := decode[wire.CopyArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Copy(user, a.Src, a.Dst, a.Resource); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpLink:
		a, err := decode[wire.LinkArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Link(user, a.Target, a.LinkPath); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpAddMeta:
		a, err := decode[wire.MetaArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.AddMeta(user, a.Path, types.MetaClass(a.Class), a.AVU); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpGetMeta:
		a, err := decode[wire.GetMetaArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		avus, err := b.GetMeta(user, a.Path, types.MetaClass(a.Class))
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(avus)

	case wire.OpAnnotate:
		a, err := decode[wire.AnnotateArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Annotate(user, a.Path, a.Ann); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpAnnotations:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		anns, err := b.Annotations(user, a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(anns)

	case wire.OpQuery:
		a, err := decode[wire.QueryArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		qstart := time.Now()
		hits, partial, err := b.QueryPartial(user, a.Q)
		if err != nil {
			return ss.fail(err)
		}
		// On a sharded catalog the whole call is the scatter-gather
		// fan-out; the router's own phase ops attribute the merge tail.
		if sh, ok := b.Cat.(interface{ N() int }); ok && sh.N() > 1 {
			ss.span.Phase(obs.PhaseShardFanout, time.Since(qstart))
		}
		return ss.reply(wire.QueryReply{Hits: hits, Partial: partial})

	case wire.OpQueryAttrs:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(b.QueryAttrNames(user, a.Path))

	case wire.OpChmod:
		a, err := decode[wire.ChmodArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		level, err := acl.ParseLevel(a.Level)
		if err != nil {
			return ss.fail(types.E("chmod", a.Level, types.ErrInvalid))
		}
		if err := b.Chmod(user, a.Path, a.Grantee, level); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpLock:
		a, err := decode[wire.LockArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		kind, err := parseLockKind(a.Kind)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Lock(user, a.Path, kind, time.Duration(a.TTLSeconds)*time.Second); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpUnlock:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Unlock(user, a.Path); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpPin:
		a, err := decode[wire.PinArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Pin(user, a.Path, a.Resource, time.Duration(a.TTLSeconds)*time.Second); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpUnpin:
		a, err := decode[wire.PinArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Unpin(user, a.Path, a.Resource); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpCheckout:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.Checkout(user, a.Path); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpCheckin:
		a, err := decode[wire.CheckinArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if err := b.CheckinFrom(user, a.Path, ss.in, a.Comment); err != nil {
			return ss.fail(err)
		}
		return ss.reply(struct{}{})

	case wire.OpRegisterURL:
		a, err := decode[wire.RegisterURLArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		o, err := b.RegisterURL(user, a.Path, a.URL)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(o)

	case wire.OpRegisterSQL:
		a, err := decode[wire.RegisterSQLArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		o, err := b.RegisterSQL(user, a.Path, a.Spec)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(o)

	case wire.OpExecSQL:
		a, err := decode[wire.ExecSQLArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if owner := s.sqlOwner(a.Path); owner != "" && !ss.isPeer {
			return s.federate(ss, owner, user, req)
		}
		data, err := b.ExecuteSQL(user, a.Path, a.Suffix)
		if err != nil {
			return ss.fail(err)
		}
		return ss.replyData(data)

	case wire.OpInvoke:
		a, err := decode[wire.InvokeArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		data, err := b.InvokeMethod(user, a.Path, a.Args)
		if err != nil {
			return ss.fail(err)
		}
		return ss.replyData(data)

	case wire.OpMkContainer:
		a, err := decode[wire.ContainerArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		o, err := b.CreateContainer(user, a.Path, a.Resource)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(o)

	case wire.OpSyncContainer:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		n, err := b.SyncContainer(user, a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.CountReply{N: n})

	case wire.OpExtract:
		a, err := decode[wire.ExtractArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		n, err := b.ExtractMeta(user, a.Path, a.Method, a.From)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.CountReply{N: n})

	case wire.OpShadowList:
		a, err := decode[wire.ShadowArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		infos, err := b.ShadowList(user, a.Path, a.Rel)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(infos)

	case wire.OpShadowOpen:
		a, err := decode[wire.ShadowArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		data, err := b.ShadowOpen(user, a.Path, a.Rel)
		if err != nil {
			return ss.fail(err)
		}
		return ss.replyData(data)

	case wire.OpAddUser:
		a, err := decode[wire.AddUserArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if !b.Cat.IsAdmin(user) {
			return ss.fail(types.E("adduser", a.Name, types.ErrPermission))
		}
		if a.Name == "" || a.Password == "" {
			return ss.fail(types.E("adduser", a.Name, types.ErrInvalid))
		}
		domain := a.Domain
		if domain == "" {
			domain = "local"
		}
		if err := b.Cat.AddUser(types.User{Name: a.Name, Domain: domain, Admin: a.Admin}); err != nil {
			return ss.fail(err)
		}
		s.authn.Register(a.Name, a.Password)
		b.Cat.AuditLog().Op(user, "adduser", a.Name, true, domain)
		return ss.reply(struct{}{})

	case wire.OpAudit:
		a, err := decode[wire.AuditArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if !b.Cat.IsAdmin(user) {
			return ss.fail(types.E("audit", "", types.ErrPermission))
		}
		recs := b.Cat.AuditLog().Query(audit.Filter{User: a.User, Op: a.Op, Target: a.Target, Trace: a.Trace})
		if a.Limit > 0 && len(recs) > a.Limit {
			recs = recs[len(recs)-a.Limit:]
		}
		return ss.reply(recs)

	case wire.OpTrace:
		a, err := decode[wire.TraceArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		if a.ID == "" {
			return ss.fail(types.E("trace", "", types.ErrInvalid))
		}
		// Client-facing requests fan out to every peer so the reply
		// covers all hops of a federated operation; peer-forwarded
		// requests answer from the local ring only.
		return ss.reply(s.gatherTrace(user, a.ID, !ss.isPeer))

	case wire.OpUsage:
		a, err := decode[wire.UsageArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		entries := s.broker.Metrics().Usage().Snapshot()
		if a.User != "" || a.Collection != "" {
			kept := entries[:0]
			for _, e := range entries {
				if a.User != "" && e.User != a.User {
					continue
				}
				if a.Collection != "" && e.Collection != a.Collection {
					continue
				}
				kept = append(kept, e)
			}
			entries = kept
		}
		return ss.reply(wire.UsageReply{Server: s.name, Entries: entries})

	case wire.OpResources:
		return ss.reply(b.Cat.Resources())

	case wire.OpServerStats:
		return ss.reply(s.stats())

	case wire.OpOpStats:
		return ss.reply(s.Telemetry())

	case wire.OpRepairStatus:
		return ss.reply(s.repairStatus())

	case wire.OpShards:
		if _, err := decode[wire.ShardsArgs](req); err != nil {
			return ss.fail(err)
		}
		if rt, ok := b.Cat.(interface{ Statuses() []shard.Status }); ok {
			return ss.reply(wire.ShardsReply{Server: s.name, Shards: rt.Statuses()})
		}
		// Monolithic catalog: report the single implicit leader shard so
		// `srb shards` works against any daemon.
		st := b.Cat.Stats()
		return ss.reply(wire.ShardsReply{Server: s.name, Shards: []shard.Status{{
			Role: string(shard.Leader), Objects: st.Objects,
			Collections: st.Collections, MetaEntries: st.MetaEntries,
		}}})

	case wire.OpShardPull:
		a, err := decode[wire.ShardPullArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		// The replication stream exposes the whole catalog, so only
		// peer daemons and administrators may pull it.
		if !ss.isPeer && !b.Cat.IsAdmin(user) {
			return ss.fail(types.E("shardpull", "", types.ErrPermission))
		}
		rt, ok := b.Cat.(interface {
			Pull(int, uint64) (shard.PullResult, error)
		})
		if !ok {
			return ss.fail(types.E("shardpull", "", types.ErrUnsupported))
		}
		res, err := rt.Pull(a.Shard, a.After)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.ShardPullReply{
			Server: s.name, Entries: res.Entries,
			Snapshot: res.Snapshot, Seq: res.Seq,
		})

	case wire.OpGridStat:
		a, err := decode[wire.GridStatArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		window := time.Duration(a.WindowSeconds) * time.Second
		// Client-facing requests fan out to every peer for the grid
		// view; peer-forwarded (or explicitly local) requests answer
		// from the local ring only, bounding the gather to one hop.
		fanout := !ss.isPeer && !a.LocalOnly
		return ss.reply(s.gatherGridStat(user, window, fanout, ss.deadline, ss.span))

	case wire.OpAlerts:
		if _, err := decode[wire.AlertsArgs](req); err != nil {
			return ss.fail(err)
		}
		return ss.reply(s.alerts())

	case wire.OpIncidents:
		if _, err := decode[wire.IncidentsArgs](req); err != nil {
			return ss.fail(err)
		}
		return ss.reply(s.incidents())

	case wire.OpIncidentGet:
		a, err := decode[wire.IncidentGetArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rep, err := s.incidentGet(a.ID)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(rep)

	case wire.OpIncidentCapture:
		a, err := decode[wire.IncidentCaptureArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rep, err := s.incidentCapture(a.Reason)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(rep)

	case wire.OpPeers:
		if _, err := decode[wire.PeersArgs](req); err != nil {
			return ss.fail(err)
		}
		return ss.reply(s.peersReply())

	case wire.OpHeat:
		if _, err := decode[wire.HeatArgs](req); err != nil {
			return ss.fail(err)
		}
		return ss.reply(s.heat())

	case wire.OpScrub:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rpt, err := s.broker.Scrub(user, a.Path, ss.span)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.ScrubReply{Server: s.name, Report: rpt})

	case wire.OpChecksum:
		a, err := decode[wire.PathArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		o, verdicts, err := s.broker.VerifyChecksums(user, a.Path)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(wire.ChecksumReply{Path: o.Path(), Checksum: o.Checksum, Verdicts: verdicts})

	case wire.OpBulkPut:
		a, err := decode[wire.BulkPutArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		rep, err := s.handleBulkPut(user, ss, a, ss.in, req)
		if err != nil {
			return ss.fail(err)
		}
		return ss.reply(rep)

	case wire.OpMultiGet:
		a, err := decode[wire.MultiGetArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		return s.handleMultiGet(user, ss, a, req)

	case wire.OpBulkStat:
		a, err := decode[wire.BulkStatArgs](req)
		if err != nil {
			return ss.fail(err)
		}
		s.observeBatch(len(a.Paths))
		rep := wire.BulkStatReply{Server: s.name}
		for _, p := range a.Paths {
			item := wire.BulkStatItem{Path: p}
			if st, err := b.StatPath(user, p); err != nil {
				item.ErrKind, item.ErrMsg = wire.KindOf(err), err.Error()
			} else {
				item.OK, item.Stat = true, st
			}
			rep.Items = append(rep.Items, item)
		}
		return ss.reply(rep)

	default:
		return ss.fail(types.E(req.Op, "", types.ErrUnsupported))
	}
}

// observeBatch records a batch op's item count in the batch-size
// histogram (count encoded as microseconds in the pow-2 buckets).
func (s *Server) observeBatch(n int) {
	s.broker.Metrics().Op("server.batch.items").Observe(time.Duration(n)*time.Microsecond, nil)
}

// handleBulkPut ingests a batch in one round trip. The manifest must
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
func (s *Server) handleBulkPut(user string, ss *session, a wire.BulkPutArgs, body io.Reader, req *wire.Request) (wire.BulkPutReply, error) {
	rep := wire.BulkPutReply{Server: s.name}
	var total int64
	for _, it := range a.Items {
		if it.Size < 0 {
			return rep, types.E(wire.OpBulkPut, it.Path, types.ErrInvalid)
		}
		total += it.Size
	}
	var batch wire.Buffer
	got, err := chunk.Copy(&batch, io.LimitReader(body, total+1))
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
			ireq := &wire.Request{Op: wire.OpIngest, Trace: req.Trace}
			ireq.Args, err = jsonMarshal(wire.IngestArgs{
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

// handleMultiGet fetches a batch of objects and replies with a manifest
// of per-item outcomes followed by the successful items' bytes in
// request order (the manifest's sizes let the client slice the stream
// back apart). Items fail independently; remote-owned items are proxied
// like a single get. Each item is read into one buffer of its own size,
// and the reply is framed from those buffers through a pooled chunk —
// the batch is never concatenated.
func (s *Server) handleMultiGet(user string, ss *session, a wire.MultiGetArgs, req *wire.Request) error {
	rep := wire.MultiGetReply{Server: s.name}
	s.observeBatch(len(a.Paths))
	items := make(chunk.Slices, 0, len(a.Paths))
	for _, p := range a.Paths {
		item := wire.MultiGetItem{Path: p}
		var data []byte
		var err error
		if owner := s.localityOf(p); owner != "" && !ss.isPeer {
			greq := &wire.Request{Op: wire.OpGet, Trace: req.Trace}
			greq.Args, err = jsonMarshal(wire.PathArgs{Path: p})
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

// toIngestOpts converts wire args.
func toIngestOpts(a wire.IngestArgs, body io.Reader) core.IngestOpts {
	return core.IngestOpts{
		Path: a.Path, Reader: body, Resource: a.Resource,
		Container: a.Container, DataType: a.DataType, Meta: a.Meta,
	}
}

// readRange serves the parallel-transfer primitive: length bytes of the
// object from offset, streamed from the open replica.
func (s *Server) readRange(ss *session, user string, a wire.RangeArgs) error {
	if a.Offset < 0 {
		return ss.fail(types.E(wire.OpReadRange, a.Path, types.ErrInvalid))
	}
	f, size, err := s.broker.OpenRead(user, a.Path)
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

// handleReplicate performs a replication that may cross server
// boundaries: source bytes are streamed from wherever a clean replica
// lives, and the owning server of the target resource stores the copy.
func (s *Server) handleReplicate(user string, ss *session, a wire.ReplicateArgs) (types.Replica, error) {
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
		req.Args, _ = jsonMarshal(wire.PathArgs{Path: a.Path})
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
	req.Args, _ = jsonMarshal(wire.ReplicateArgs{Path: a.Path, Resource: a.Resource})
	addr, ok := s.PeerAddr(targetOwner)
	if !ok {
		return types.Replica{}, types.E("replicate", targetOwner, types.ErrOffline)
	}
	var body json.RawMessage
	err := s.peerDo(targetOwner, addr, ss.deadline, req, ss.span, true, func(pc *peerConn) error {
		b, err := pc.roundTripIngest(req, src)
		body = b
		return err
	})
	if err != nil {
		return types.Replica{}, err
	}
	var rep types.Replica
	if err := jsonUnmarshal(body, &rep); err != nil {
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
		b, err := pc.roundTripIngest(&fwd, data)
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

// jsonMarshal / jsonUnmarshal keep the handler bodies terse.
func jsonMarshal(v any) ([]byte, error)   { return json.Marshal(v) }
func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }
