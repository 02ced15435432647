package report

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// All is the report table, in the order srb's usage text lists it.
var All = []*Report{
	define(Report{Name: "opstats", Op: wire.OpOpStats,
		Help: "server telemetry: op counts, latency quantiles, byte totals, pools, recent traces (bare `stat` is an alias)"},
		nil, opStats, opStatsDoc),
	define(Report{Name: "grid", Verb: "top", Op: wire.OpGridStat, Params: []string{"-grid", "-window=", "-sort=", "-phases"},
		Help: "windowed rates and p50/p95/p99 from the rollup ring; -grid merges every zone member (dead peers flagged unreachable, not fatal); -sort rate|p99|errors orders the op table (default: name); -phases shows the per-phase latency decomposition instead"},
		gridArgs, grid, gridDoc),
	define(Report{Name: "phases"}, phasesArgs, phases, phasesDoc),
	define(Report{Name: "alerts", Op: wire.OpAlerts,
		Help: "SLO rule standings and the bounded fire/resolve alert log"},
		nil, alerts, alertsDoc),
	define(Report{Name: "incidents", Verb: "incident list", Op: wire.OpIncidents,
		Help: "flight recorder bundle index"},
		nil, incidents, incidentsDoc),
	define(Report{Name: "peers", Op: wire.OpPeers, Text: true,
		Help: "peer transfer observatory: EWMA latency/bandwidth and success rate per federation peer and resource"},
		nil, peers, peersDoc),
	define(Report{Name: "pool"}, nil, pool, poolDoc),
	define(Report{Name: "trace", Op: wire.OpTrace, Text: true, Params: []string{"id", "-waterfall"},
		Help: "span tree of a recent operation, gathered from every zone server; -waterfall (or `why <id>`) draws where each microsecond went instead: queue wait, catalog lookup, storage, federation hop..."},
		traceArgs, trace, traceDoc),
	define(Report{Name: "usage", Op: wire.OpUsage, Text: true, Params: []string{"user", "collection"},
		Help: "per-user/collection usage accounting"},
		usageArgs, usage, usageDoc),
	define(Report{Name: "repair", Verb: "repair status", Op: wire.OpRepairStatus,
		Help: "background repair engine: queue backlog, worker health, job runs"},
		nil, repairStatus, repairDoc),
	define(Report{Name: "shards", Op: wire.OpShards,
		Help: "catalog shards: role, replication position, staleness, entry counts, replication lag (bytes/seconds)"},
		nil, shards, shardsDoc),
	define(Report{Name: "heat", Op: wire.OpHeat, Text: true,
		Help: "heat observatory: hot-key/hot-object top-K, per-shard replication lag, per-shard heat and its imbalance"},
		nil, heat, heatDoc),
	define(Report{Name: "stats", Op: wire.OpServerStats, Help: "server statistics"},
		nil, serverStats, serverStatsDoc),
}

// f1 and f2 format a float at one and two decimals.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// sortedKeys returns the keys of m that keep holds, sorted.
func sortedKeys[V any](m map[string]V, keep func(V) bool) []string {
	var keys []string
	for k, v := range m {
		if keep == nil || keep(v) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// opStats snapshots the broker registry. Audit-ring drops and breaker
// states are folded in as gauges just before, so every surface reports
// them.
func opStats(env Env, _ struct{}) (wire.OpStatsReply, error) {
	reg := env.Broker.Metrics()
	reg.Gauge("audit.dropped").Set(env.Broker.Audit.Dropped())
	env.Broker.Breakers().Publish()
	rep := wire.OpStatsReply{Server: env.Name, Snapshot: reg.Snapshot()}
	if env.Pool != nil {
		p := env.Pool()
		rep.PeerPool = &p
	}
	return rep, nil
}

func poolLine(name string, p wire.PoolStats) string {
	return fmt.Sprintf("%s pool: %d conn(s), %d idle, dialed=%d evicted=%d reaped=%d",
		name, p.Conns, p.Idle, p.Dialed, p.Evicted, p.Reaped)
}

func opStatsDoc(st wire.OpStatsReply, _ url.Values) (d Doc) {
	s := st.Snapshot
	head := "server: " + st.Server
	if s.Version != "" {
		head += "  version: " + s.Version
	}
	d.line("%s  uptime: %.0fs", head, s.UptimeSeconds)
	if ops := sortedKeys(s.Ops, func(o obs.OpSnapshot) bool { return o.Count > 0 }); len(ops) > 0 {
		t := table("", "op", "count", "errors", "p50(us)", "p90(us)", "p99(us)")
		for _, name := range ops {
			o := s.Ops[name]
			t.row(name, o.Count, o.Errors, f1(o.P50Micros), f1(o.P90Micros), f1(o.P99Micros))
		}
		d = append(d, t)
	}
	t := table("counters and gauges:", "name", "value")
	for _, name := range sortedKeys(s.Counters, func(v int64) bool { return v != 0 }) {
		t.row(name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges, nil) {
		t.row(name, s.Gauges[name])
	}
	if len(t.Rows) > 0 {
		d = append(d, t)
	}
	if st.PeerPool != nil {
		d.line("%s", poolLine("federation", *st.PeerPool))
	}
	if st.ClientPool != nil {
		d.line("%s", poolLine("client", *st.ClientPool))
	}
	if show := s.Traces; len(show) > 0 {
		if len(show) > 10 {
			show = show[len(show)-10:]
		}
		t := table(fmt.Sprintf("recent traces (%d):", len(s.Traces)), "trace", "op", "server", "us", "error")
		for _, tr := range show {
			t.row(tr.Trace, tr.Op, tr.Server, tr.Micros, tr.Err)
		}
		d = append(d, t)
	}
	return d
}

func serverStats(env Env, _ struct{}) (wire.StatsReply, error) {
	st := env.Broker.Cat.Stats()
	return wire.StatsReply{
		Server: env.Name, Objects: st.Objects, Collections: st.Collections,
		Resources: st.Resources, Users: st.Users,
	}, nil
}

func serverStatsDoc(st wire.StatsReply, _ url.Values) Doc {
	t := table("server: "+st.Server, "objects", "collections", "resources", "users")
	t.row(st.Objects, st.Collections, st.Resources, st.Users)
	return Doc{t}
}

func usageArgs(p url.Values) (wire.UsageArgs, error) {
	return wire.UsageArgs{User: p.Get("user"), Collection: p.Get("collection")}, nil
}

func usage(env Env, a wire.UsageArgs) (wire.UsageReply, error) {
	rep := wire.UsageReply{Server: env.Name}
	for _, e := range env.Broker.Metrics().Usage().Snapshot() {
		if (a.User == "" || e.User == a.User) && (a.Collection == "" || e.Collection == a.Collection) {
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}

func usageDoc(rep wire.UsageReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	if len(rep.Entries) == 0 {
		d.line("no accounted operations yet")
		return d
	}
	t := table("", "USER", "COLLECTION", "OPS", "ERRS", "BYTES_IN", "BYTES_OUT", "AVG_MS", "LAST_OP", "LAST_TRACE")
	for _, e := range rep.Entries {
		avgMS := float64(0)
		if e.Ops > 0 {
			avgMS = float64(e.TotalMicros) / float64(e.Ops) / 1000
		}
		t.row(e.User, e.Collection, e.Ops, e.Errors, e.BytesIn, e.BytesOut, f2(avgMS), e.LastOp, e.LastTrace)
	}
	return append(d, t)
}

// traceArgs reads the trace ID a person gave — `srb trace`, `srb why`,
// the admin /trace/{id} route — through traceid.Parse, refusing a
// malformed one as invalid. The empty string is no ID, which trace
// refuses.
func traceArgs(p url.Values) (wire.TraceArgs, error) {
	id, err := traceid.Parse(p.Get("id"))
	if err != nil {
		return wire.TraceArgs{}, types.E("trace", "", fmt.Errorf("%w: %w", err, types.ErrInvalid))
	}
	return wire.TraceArgs{ID: id}, nil
}

// trace collects every retained span of one trace: this daemon's ring
// and, through the zone, each peer's.
func trace(env Env, a wire.TraceArgs) (wire.TraceReply, error) {
	if a.ID == 0 {
		return wire.TraceReply{}, types.E("trace", "", types.ErrInvalid)
	}
	spans := env.Broker.Metrics().Traces().ForTrace(a.ID)
	if env.Zone != nil {
		spans = append(spans, env.Zone.TraceSpans(a.ID)...)
	}
	return wire.TraceReply{Server: env.Name, Spans: spans}, nil
}

// traceDoc draws the spans as a tree or, with the "waterfall" parameter,
// as a phase waterfall: each phase's share of its span's wall time,
// sub-phases indented under their parent, and the unattributed
// remainder called out.
func traceDoc(rep wire.TraceReply, p url.Values) (d Doc) {
	servers := map[string]bool{}
	for _, r := range rep.Spans {
		servers[r.Server] = true
	}
	d.line("trace %s: %d spans across %d server(s)", p.Get("id"), len(rep.Spans), len(servers))
	var drawn strings.Builder
	if tree := obs.AssembleTree(rep.Spans); p.Get("waterfall") == "1" {
		obs.WriteWaterfall(&drawn, tree)
	} else {
		obs.WriteTree(&drawn, tree)
	}
	d.line("%s", strings.TrimRight(drawn.String(), "\n"))
	return d
}

func alerts(env Env, _ struct{}) (wire.AlertsReply, error) {
	rep := wire.AlertsReply{Server: env.Name}
	if ev := env.Broker.SLO(); ev != nil {
		rep.Enabled = true
		rep.Rules = ev.Status()
		rep.Alerts = ev.AlertLog().Recent(0)
	}
	return rep, nil
}

func alertsDoc(rep wire.AlertsReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	if !rep.Enabled {
		d.line("slo: no rules declared (start the daemon with -slo-rules)")
		return d
	}
	t := table("", "RULE", "STATE", "BURN%", "SOURCE")
	for _, r := range rep.Rules {
		state := "ok"
		if r.Violating {
			state = "VIOLATING"
		}
		t.row(r.Rule, state, fmt.Sprintf("%.0f", r.BurnPct), r.Raw)
	}
	d = append(d, t)
	if len(rep.Alerts) == 0 {
		d.line("alert log: empty")
		return d
	}
	t = table(fmt.Sprintf("alert log (%d transition(s)):", len(rep.Alerts)), "AT", "EVENT", "RULE", "DETAIL")
	for _, a := range rep.Alerts {
		kind := "RESOLVED"
		if a.Firing {
			kind = "FIRED"
		}
		t.row(a.At.Format("15:04:05"), kind, a.Rule, a.Detail)
	}
	return append(d, t)
}

func incidents(env Env, _ struct{}) (wire.IncidentsReply, error) {
	rep := wire.IncidentsReply{Server: env.Name}
	if ir := env.Broker.Incidents(); ir != nil {
		rep.Enabled = true
		rep.Incidents = ir.List()
	}
	return rep, nil
}

// Bundle fetches one incident bundle's meta and, when name is set, that
// member's bytes — what the admin port and MySRB serve as downloads.
func Bundle(env Env, id, name string) (obs.IncidentMeta, []byte, error) {
	ir := env.Broker.Incidents()
	if ir == nil {
		return obs.IncidentMeta{}, nil, fmt.Errorf("flight recorder disabled (no -telemetry-dir)")
	}
	meta, files, err := ir.Get(id)
	if err != nil {
		return meta, nil, err
	}
	data, ok := files[name]
	if name != "" && !ok {
		return meta, nil, fmt.Errorf("no file %q in bundle %s", name, id)
	}
	return meta, data, nil
}

func incidentsDoc(rep wire.IncidentsReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	switch {
	case !rep.Enabled:
		d.line("flight recorder: disabled (start the daemon with -telemetry-dir)")
	case len(rep.Incidents) == 0:
		d.line("no incidents captured")
	default:
		t := table("", "CAPTURED", "RULE", "REASON", "FILES", "ID")
		for _, m := range rep.Incidents {
			t.row(m.At.Format(time.RFC3339), m.Rule, m.Reason, len(m.Files), m.ID)
		}
		d = append(d, t)
	}
	return d
}

func peers(env Env, _ struct{}) (wire.PeersReply, error) {
	return wire.PeersReply{Server: env.Name, Peers: env.Broker.Metrics().Peers().Snapshot()}, nil
}

func peersDoc(rep wire.PeersReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	if len(rep.Peers) == 0 {
		d.line("no transfer history recorded")
		return d
	}
	t := table("", "PEER", "RESOURCE", "OPS", "ERRS", "BYTES", "EWMA_MS", "EWMA_MBPS", "SUCC%")
	for _, p := range rep.Peers {
		t.row(p.Peer, p.Resource, p.Ops, p.Errors, p.Bytes,
			f2(p.EWMALatMicros/1000), f2(p.EWMABytesPerSec/1e6), f1(p.SuccessPct))
	}
	return append(d, t)
}

// PoolReply reports a daemon's federation connection pool.
type PoolReply struct {
	Server   string
	PeerPool wire.PoolStats
}

func pool(env Env, _ struct{}) (PoolReply, error) {
	if env.Pool == nil {
		return PoolReply{}, types.E("pool", env.Name, fmt.Errorf("no federation pool on this daemon: %w", types.ErrNotFound))
	}
	return PoolReply{Server: env.Name, PeerPool: env.Pool()}, nil
}

func poolDoc(rep PoolReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	d.line("%s", poolLine("federation", rep.PeerPool))
	return d
}

// shardStatuses reports the catalog's shards; a monolithic catalog is
// its own single implicit leader shard, so the report works against any
// daemon.
func shardStatuses(env Env) []shard.Status {
	if rt, ok := env.Broker.Cat.(interface{ Statuses() []shard.Status }); ok {
		return rt.Statuses()
	}
	st := env.Broker.Cat.Stats()
	return []shard.Status{{
		Role: string(shard.Leader), Objects: st.Objects,
		Collections: st.Collections, MetaEntries: st.MetaEntries,
	}}
}

func shards(env Env, _ struct{}) (wire.ShardsReply, error) {
	return wire.ShardsReply{Server: env.Name, Shards: shardStatuses(env)}, nil
}

func shardsDoc(rep wire.ShardsReply, _ url.Values) (d Doc) {
	t := table(fmt.Sprintf("server: %s (%d shard(s))", rep.Server, len(rep.Shards)),
		"SHARD", "ROLE", "LEADER", "STALE", "APPLIED", "HEAD", "PULLFAILS", "REPLAG_B", "REPLAG_S",
		"OBJECTS", "COLLS", "META", "LAST_SYNC")
	for _, sh := range rep.Shards {
		stale, last := "", ""
		if sh.Stale {
			stale = "STALE"
		}
		if !sh.LastSync.IsZero() {
			last = sh.LastSync.Format(time.RFC3339)
		}
		t.row(sh.Shard, sh.Role, sh.Leader, stale, sh.Applied, sh.Head, sh.PullFails,
			sh.ReplagBytes, fmt.Sprintf("%.0f", sh.ReplagSeconds),
			sh.Objects, sh.Collections, sh.MetaEntries, last)
	}
	return append(d, t)
}

// heatRouter is the slice of the shard Router the heat report uses; a
// monolithic catalog lacks it and reports keys and objects only.
type heatRouter interface {
	Statuses() []shard.Status
	HeatJoin(rows []obs.HeatStat) ([]shard.ShardHeat, float64)
}

// heat builds the heat observatory: the top-K tables always; shard
// statuses and the join of key heat onto shard ownership, computed from
// the tables as they stand, only when the catalog is sharded.
func heat(env Env, _ struct{}) (wire.HeatReply, error) {
	reg := env.Broker.Metrics()
	rep := wire.HeatReply{
		Server:  env.Name,
		Keys:    reg.HeatKeys().Snapshot(),
		Objects: reg.HeatObjects().Snapshot(),
	}
	if rt, ok := env.Broker.Cat.(heatRouter); ok {
		rep.Shards = rt.Statuses()
		rep.ShardHeat, rep.Imbalance = rt.HeatJoin(rep.Keys)
	}
	return rep, nil
}

func heatTable(title, what string, rows []obs.HeatStat) Block {
	t := table(fmt.Sprintf("%s (top %d):", title, len(rows)), what, "COUNT", "SCORE", "BYTES")
	for _, k := range rows {
		t.row(k.Key, k.Count, f1(k.Score), k.Bytes)
	}
	return t
}

func heatDoc(rep wire.HeatReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	if len(rep.Keys) == 0 && len(rep.Objects) == 0 {
		d.line("no heat recorded yet")
	}
	if len(rep.Keys) > 0 {
		d = append(d, heatTable("hot catalog keys", "KEY", rep.Keys))
	}
	if len(rep.Objects) > 0 {
		d = append(d, heatTable("hot objects", "OBJECT", rep.Objects))
	}
	if len(rep.Shards) > 0 {
		t := table("shards:", "SHARD", "ROLE", "OBJECTS", "REPLAG_B", "REPLAG_S")
		for _, st := range rep.Shards {
			t.row(st.Shard, st.Role, st.Objects, st.ReplagBytes, fmt.Sprintf("%.0f", st.ReplagSeconds))
		}
		d = append(d, t)
	}
	if len(rep.ShardHeat) > 0 {
		t := table(fmt.Sprintf("shard heat (imbalance %.2fx):", rep.Imbalance), "SHARD", "SCORE", "HOT_KEYS", "OBJECTS")
		for _, sh := range rep.ShardHeat {
			t.row(sh.Shard, f1(sh.Score), sh.HotKeys, sh.Objects)
		}
		d = append(d, t)
	}
	return d
}

func repairStatus(env Env, _ struct{}) (wire.RepairStatusReply, error) {
	rep := wire.RepairStatusReply{Server: env.Name}
	eng := env.Broker.Repair()
	if eng == nil {
		return rep, nil
	}
	st := eng.Status()
	rep.Enabled = true
	rep.Status = wire.RepairStatus{
		Running: st.Running, Paused: st.Paused, Wedged: st.Wedged,
		Workers: st.Workers, WorkersAlive: st.WorkersAlive,
		Backlog: st.Backlog, OldestAge: st.OldestAge,
		Done: st.Done, Failed: st.Failed, Retries: st.Retries,
	}
	for _, j := range st.Jobs {
		rep.Status.Jobs = append(rep.Status.Jobs, wire.RepairJobStatus{
			Name: j.Name, Interval: j.Interval, Runs: j.Runs,
			Errors: j.Errors, LastRun: j.LastRun, LastErr: j.LastErr,
		})
	}
	return rep, nil
}

func repairDoc(rep wire.RepairStatusReply, _ url.Values) (d Doc) {
	d.line("server: %s", rep.Server)
	if !rep.Enabled {
		d.line("repair engine: not running")
		return d
	}
	st := rep.Status
	state := "running"
	switch {
	case st.Wedged:
		state = "WEDGED"
	case st.Paused:
		state = "paused"
	case !st.Running:
		state = "stopped"
	}
	d.line("state: %s (%d/%d workers alive)", state, st.WorkersAlive, st.Workers)
	d.line("backlog: %d task(s), oldest %s", st.Backlog, st.OldestAge.Truncate(time.Second))
	d.line("lifetime: %d done, %d failed, %d retries", st.Done, st.Failed, st.Retries)
	if len(st.Jobs) > 0 {
		t := table("", "JOB", "EVERY", "RUNS", "ERRORS", "LAST_RUN", "LAST_ERROR")
		for _, j := range st.Jobs {
			last := ""
			if !j.LastRun.IsZero() {
				last = j.LastRun.Format(time.RFC3339)
			}
			t.row(j.Name, j.Interval, j.Runs, j.Errors, last, j.LastErr)
		}
		d = append(d, t)
	}
	return d
}

// staleFraction: a member's window is flagged stale when its retained
// rollup history covers less than this fraction of the requested
// window (a just-started server, or retention shorter than the ask).
const staleFraction = 0.8

func gridArgs(p url.Values) (wire.GridStatArgs, error) {
	switch p.Get("sort") {
	case "", "rate", "p99", "errors":
	default:
		return wire.GridStatArgs{}, fmt.Errorf("bad -sort %q (want rate, p99 or errors)", p.Get("sort"))
	}
	window, err := Window(p)
	// The zone is gathered unless the caller says no: srb says no without
	// -grid, an HTTP route only on ?grid=0.
	return wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: p.Get("grid") == "0"}, err
}

func grid(env Env, a wire.GridStatArgs) (wire.GridStatReply, error) {
	window := time.Duration(a.WindowSeconds) * time.Second
	if a.LocalOnly {
		env.Zone = nil
	}
	return Grid(env, window), nil
}

// Grid builds the windowed view: this daemon's window, honestly flagged
// stale when the rollup ring does not span it yet, plus every zone
// peer's when the env reaches the zone, and the aggregate over the
// reachable members with quantiles recomputed from the merged buckets.
// An unreachable peer keeps its member slot with the error, so a
// partial aggregate is visibly partial.
func Grid(env Env, window time.Duration) wire.GridStatReply {
	if window <= 0 {
		window = defaultWindow
	}
	ws := env.Broker.Metrics().Window(window)
	members := []wire.GridMember{{
		Server: env.Name, Window: ws,
		Stale: ws.CoveredSeconds < staleFraction*ws.WindowSeconds,
	}}
	if env.Zone != nil {
		members = append(members, env.Zone.GridMembers(window)...)
	}
	wins := make([]obs.WindowStats, 0, len(members))
	for _, m := range members {
		if !m.Unreachable {
			wins = append(wins, m.Window)
		}
	}
	return wire.GridStatReply{
		Server:        env.Name,
		WindowSeconds: window.Seconds(),
		Members:       members,
		Grid:          obs.MergeWindows(wins),
	}
}

// opsTable draws one window's per-op rates, quantiles and latency
// distribution. sortKey orders the rows: "" by name, "rate" by ops/sec,
// "p99" by p99 latency, "errors" by windowed error rate (all
// descending).
func opsTable(title string, ws obs.WindowStats, sortKey string) Block {
	ops := sortedKeys(ws.Ops, func(o obs.WindowOp) bool { return o.Count > 0 })
	key := map[string]func(obs.WindowOp) float64{
		"rate":   func(o obs.WindowOp) float64 { return o.PerSec },
		"p99":    func(o obs.WindowOp) float64 { return o.P99Micros },
		"errors": func(o obs.WindowOp) float64 { return o.ErrorPct },
	}[sortKey]
	if key != nil {
		sort.SliceStable(ops, func(i, j int) bool { return key(ws.Ops[ops[i]]) > key(ws.Ops[ops[j]]) })
	}
	t := table(title, "op", "dist", "count", "per_sec", "err%", "p50(us)", "p95(us)", "p99(us)")
	for _, name := range ops {
		o := ws.Ops[name]
		t.row(name, latencySpark(o.Buckets), o.Count, f2(o.PerSec), f2(o.ErrorPct), f1(o.P50Micros), f1(o.P95Micros), f1(o.P99Micros))
	}
	return t
}

// gridDoc draws the merged aggregate, then each zone member with its
// own table — an unreachable or stale member visibly flagged rather than
// silently dropped.
func gridDoc(rep wire.GridStatReply, p url.Values) (d Doc) {
	d.line("grid via %s  window: %.0fs  members: %d", rep.Server, rep.WindowSeconds, len(rep.Members))
	if agg := opsTable("grid aggregate:", rep.Grid, p.Get("sort")); len(agg.Rows) > 0 {
		d = append(d, agg)
	} else {
		d.line("no op activity in the window")
	}
	if counters := sortedKeys(rep.Grid.Counters, nil); len(counters) > 0 {
		t := table("counters:", "name", "delta", "per_sec")
		for _, name := range counters {
			c := rep.Grid.Counters[name]
			t.row(name, c.Delta, f2(c.PerSec))
		}
		d = append(d, t)
	}
	for _, m := range rep.Members {
		covered := fmt.Sprintf("covered %.0fs of %.0fs", m.Window.CoveredSeconds, m.Window.WindowSeconds)
		status := "ok, " + covered
		switch {
		case m.Unreachable:
			status = "UNREACHABLE: " + m.Err
		case m.Stale:
			status = "stale, " + covered
		}
		if t := opsTable(m.Server+": "+status, m.Window, p.Get("sort")); len(rep.Members) > 1 && len(t.Rows) > 0 {
			d = append(d, t)
		} else {
			d.line("%s", t.Title)
		}
	}
	return d
}

// PhasesReply is the per-phase latency decomposition of a window: one
// row per (side, op, phase) histogram.
type PhasesReply struct {
	Server         string
	WindowSeconds  float64
	CoveredSeconds float64
	// ExemplarMicros is the answering daemon's tail-exemplar threshold
	// (zero when srb derived the rows from a grid reply).
	ExemplarMicros int64
	Phases         []obs.PhaseRow
}

// PhasesOf derives the decomposition from a grid reply: the phase.* ops
// RecordPhases folds into every window ride the grid's merged op table.
// CoveredSeconds is the answering daemon's own coverage.
func PhasesOf(g wire.GridStatReply) PhasesReply {
	rep := PhasesReply{Server: g.Server, WindowSeconds: g.WindowSeconds, Phases: obs.PhaseRows(g.Grid.Ops)}
	if len(g.Members) > 0 {
		rep.CoveredSeconds = g.Members[0].Window.CoveredSeconds
	}
	return rep
}

// phasesArgs is gridArgs with the other default: a daemon's own phases
// unless the zone is asked for.
func phasesArgs(p url.Values) (wire.GridStatArgs, error) {
	window, err := Window(p)
	return wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: p.Get("grid") != "1"}, err
}

func phases(env Env, a wire.GridStatArgs) (PhasesReply, error) {
	g, _ := grid(env, a)
	rep := PhasesOf(g)
	rep.ExemplarMicros = env.Broker.Metrics().ExemplarThreshold().Microseconds()
	return rep, nil
}

// phasesDoc draws the decomposition with each phase's share of its op's
// summed phase time, so the dominant phase stands out at a glance.
func phasesDoc(rep PhasesReply, _ url.Values) (d Doc) {
	d.line("Latency decomposition via %s  window: %.0fs  covered: %.0fs", rep.Server, rep.WindowSeconds, rep.CoveredSeconds)
	if len(rep.Phases) == 0 {
		d.line("no phase activity in the window (phases ride the rollup ring; is -rollup-interval enabled?)")
		return d
	}
	totals := make(map[string]int64, len(rep.Phases))
	for _, r := range rep.Phases {
		totals[r.Family+"."+r.Op] += r.TotalMicros
	}
	t := table("", "side", "op", "phase", "dist", "count", "total(us)", "share", "p50(us)", "p99(us)")
	for _, r := range rep.Phases {
		share := 0.0
		if total := totals[r.Family+"."+r.Op]; total > 0 {
			share = 100 * float64(r.TotalMicros) / float64(total)
		}
		t.row(r.Family, r.Op, r.Phase, latencySpark(r.Buckets), r.Count, r.TotalMicros, f1(share)+"%", f1(r.P50Micros), f1(r.P99Micros))
	}
	return append(d, t)
}
