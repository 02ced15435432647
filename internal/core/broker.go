// Package core implements the SRB broker: the component that realises
// the paper's storage-resource-brokering semantics over the MCAT
// catalog and the storage drivers. Every operation the Scommands, the
// federated server and the MySRB web interface offer is a method here,
// with access control, lock discipline and auditing enforced uniformly.
//
// The broker is fully usable in-process (the examples and tests drive
// it directly); internal/server exposes the same surface over the wire.
package core

import (
	"sync"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/audit"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/metadata"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
	"gosrb/internal/replica"
	"gosrb/internal/resilience"
	"gosrb/internal/sqlengine"
	"gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/urlfs"
	"gosrb/internal/types"
)

// CommandFunc is a proxy command executed by a registered method
// object. Commands are installed by an administrator, mirroring the
// paper's "users have to ask a SRB administrator to place an object in
// a, possibly remote, SRB bin directory".
type CommandFunc func(args []string) ([]byte, error)

// Broker brokers access to the data grid.
type Broker struct {
	// Cat is the metadata catalog, exposed for read-side integrations
	// (MySRB renders listings straight from it). It is the abstract
	// catalog contract: a monolithic *mcat.Catalog or the shard router.
	Cat shard.Catalog

	// Audit is this broker's audit trail (paper §2): every brokered
	// operation appends to it, and the server's audit op, MySRB and the
	// admin gauge read it. Two brokers on one catalog keep two trails.
	Audit *audit.Log

	rm      *replica.Manager
	extract *metadata.Registry
	fetcher *urlfs.Fetcher

	mu       sync.RWMutex
	drivers  map[string]storage.Driver
	dbs      map[string]*sqlengine.DB
	commands map[string]CommandFunc

	// containerMu serialises appends per container path.
	containerMu sync.Mutex
	contLocks   map[string]*sync.Mutex

	serverName string
	now        func() time.Time

	// metrics is the broker's telemetry registry; ops caches the hot
	// per-operation handles so recording stays a pointer deref.
	metrics *obs.Registry
	ops     brokerOps

	// breakers holds the per-target circuit breakers (one per federated
	// peer, one per storage resource) shared by the replica manager and
	// the server's federation paths.
	breakers *resilience.Set

	// repairEng, when attached, is the background maintenance engine
	// (async-replication queue drain + anti-entropy scrubbing). The
	// ingest path kicks it after enqueueing deferred fan-out; the
	// server's readiness, admin /repair and status surfaces read it.
	repairEng *repair.Engine

	// sloEval, when attached, is the SLO evaluator whose standings and
	// alert log the server's /alerts, /healthz and OpAlerts surfaces
	// read. nil when the daemon declared no rules.
	sloEval *obs.SLOEvaluator

	// incidents, when attached, is the flight recorder whose bundle
	// index the /incidents and OpIncidents surfaces read. nil when the
	// daemon runs without a telemetry dir.
	incidents *obs.IncidentRecorder
}

// brokerOps caches the per-operation metric handles. All fields may be
// nil (instrumentation disabled), which obs treats as no-ops.
type brokerOps struct {
	get, ingest, reingest, replicate, ingestReplica *obs.Op
	delete_, list, query                            *obs.Op
	mkContainer, syncContainer                      *obs.Op

	// heat is the hot-key table the dispatch path feeds (one record per
	// operation, keyed by the depth-2 routing prefix).
	heat *obs.HeatTable
}

func newBrokerOps(r *obs.Registry) brokerOps {
	return brokerOps{
		heat:          r.HeatKeys(),
		get:           r.Op("broker.get"),
		ingest:        r.Op("broker.ingest"),
		reingest:      r.Op("broker.reingest"),
		replicate:     r.Op("broker.replicate"),
		ingestReplica: r.Op("broker.ingestreplica"),
		delete_:       r.Op("broker.delete"),
		list:          r.Op("broker.list"),
		query:         r.Op("broker.query"),
		mkContainer:   r.Op("broker.mkcontainer"),
		syncContainer: r.Op("broker.synccontainer"),
	}
}

// New returns a broker over the catalog — a monolithic *mcat.Catalog
// or a sharded router; the broker cannot tell the difference.
// serverName identifies this broker's server in the federation
// (resources it owns carry it).
func New(cat shard.Catalog, serverName string) *Broker {
	b := &Broker{
		Cat:        cat,
		Audit:      audit.New(0),
		extract:    metadata.NewRegistry(),
		fetcher:    urlfs.NewFetcher(),
		drivers:    make(map[string]storage.Driver),
		dbs:        make(map[string]*sqlengine.DB),
		commands:   make(map[string]CommandFunc),
		contLocks:  make(map[string]*sync.Mutex),
		serverName: serverName,
		now:        time.Now,
		metrics:    obs.NewRegistry(),
	}
	b.ops = newBrokerOps(b.metrics)
	b.breakers = resilience.NewSet(resilience.DefaultBreakerConfig, b.metrics)
	b.rm = replica.NewManager(cat, b)
	b.rm.SetServer(serverName)
	b.rm.SetMetrics(b.metrics)
	b.rm.SetBreakers(b.breakers)
	return b
}

// SetRepair attaches the background maintenance engine. Call once at
// daemon startup, after SetMetrics, before serving traffic.
func (b *Broker) SetRepair(e *repair.Engine) {
	b.mu.Lock()
	b.repairEng = e
	b.mu.Unlock()
}

// Repair returns the attached maintenance engine (nil when the daemon
// runs without one, e.g. bare in-process brokers in tests).
func (b *Broker) Repair() *repair.Engine {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.repairEng
}

// SetSLO attaches the SLO evaluator. Call once at daemon startup.
func (b *Broker) SetSLO(e *obs.SLOEvaluator) {
	b.mu.Lock()
	b.sloEval = e
	b.mu.Unlock()
}

// SLO returns the attached evaluator (nil when no rules were declared).
func (b *Broker) SLO() *obs.SLOEvaluator {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.sloEval
}

// SetIncidents attaches the incident flight recorder. Call once at
// daemon startup.
func (b *Broker) SetIncidents(r *obs.IncidentRecorder) {
	b.mu.Lock()
	b.incidents = r
	b.mu.Unlock()
}

// Incidents returns the attached flight recorder (nil when the daemon
// runs without a telemetry dir).
func (b *Broker) Incidents() *obs.IncidentRecorder {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.incidents
}

// repairKick wakes the engine's dispatcher after an enqueue.
func (b *Broker) repairKick() {
	if e := b.Repair(); e != nil {
		e.Kick()
	}
}

// Breakers returns the broker's circuit-breaker set. The server
// consults it before federation hops; the replica manager consults it
// when choosing replicas, so reads fail over past tripped resources.
func (b *Broker) Breakers() *resilience.Set { return b.breakers }

// Metrics returns the broker's telemetry registry. srbd's admin
// endpoint, the OpStats wire op and the MySRB status page all render
// from its snapshot.
func (b *Broker) Metrics() *obs.Registry { return b.metrics }

// SetMetrics replaces the telemetry registry; nil disables broker
// instrumentation entirely (the overhead-benchmark baseline). Call it
// before mounting resources so drivers pick up the same registry.
func (b *Broker) SetMetrics(r *obs.Registry) {
	b.metrics = r
	b.ops = newBrokerOps(r)
	b.breakers = resilience.NewSet(resilience.DefaultBreakerConfig, r)
	b.rm.SetMetrics(r)
	b.rm.SetBreakers(b.breakers)
}

// SetHeatTracking switches hot-key/hot-object heat recording on or off
// while leaving the rest of the instrumentation in place — the isolated
// baseline the heat-overhead benchmark compares against.
func (b *Broker) SetHeatTracking(on bool) {
	if on {
		b.ops.heat = b.metrics.HeatKeys()
	} else {
		b.ops.heat = nil
	}
	b.rm.SetHeatTracking(on)
}

// ioMetricsFor names the per-driver byte counters for one resource.
func (b *Broker) ioMetricsFor(resource string) storage.IOMetrics {
	return storage.IOMetrics{
		BytesIn:  b.metrics.Counter("storage." + resource + ".bytes_in"),
		BytesOut: b.metrics.Counter("storage." + resource + ".bytes_out"),
		Reads:    b.metrics.Counter("storage." + resource + ".reads"),
		Writes:   b.metrics.Counter("storage." + resource + ".writes"),
		Errors:   b.metrics.Counter("storage." + resource + ".errors"),
	}
}

// SetClock overrides the time source (tests).
func (b *Broker) SetClock(now func() time.Time) { b.now = now }

// ServerName returns the federation name of this broker's server.
func (b *Broker) ServerName() string { return b.serverName }

// Replicas exposes the replica manager (benchmarks tune its policy).
func (b *Broker) Replicas() *replica.Manager { return b.rm }

// Extractors exposes the metadata extraction registry.
func (b *Broker) Extractors() *metadata.Registry { return b.extract }

// Fetcher exposes the URL fetcher (examples register mem:// content).
func (b *Broker) Fetcher() *urlfs.Fetcher { return b.fetcher }

// Driver implements replica.DriverMap.
func (b *Broker) Driver(resource string) (storage.Driver, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, ok := b.drivers[resource]
	if !ok {
		return nil, types.E("driver", resource, types.ErrNotFound)
	}
	return d, nil
}

// Database returns the SQL engine behind a database resource.
func (b *Broker) Database(resource string) (*sqlengine.DB, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	db, ok := b.dbs[resource]
	if !ok {
		return nil, types.E("database", resource, types.ErrNotFound)
	}
	return db, nil
}

// AddPhysicalResource registers a physical resource and its driver.
// Only administrators may register resources.
func (b *Broker) AddPhysicalResource(user, name string, class types.ResourceClass, driverName string, d storage.Driver) error {
	if !b.Cat.IsAdmin(user) {
		return types.E("addresource", name, types.ErrPermission)
	}
	err := b.Cat.AddResource(types.Resource{
		Name: name, Kind: types.ResourcePhysical, Class: class,
		Driver: driverName, Server: b.serverName,
	})
	if err != nil {
		return err
	}
	b.mount(name, d)
	b.audit(user, "addresource", name, true, driverName)
	return nil
}

// mount installs a driver under byte-level instrumentation — or bare
// when metrics are disabled, so the uninstrumented baseline pays no
// wrapper cost at all. The dbfs engine is captured from the raw driver
// before wrapping.
func (b *Broker) mount(name string, d storage.Driver) {
	b.mu.Lock()
	if b.metrics == nil {
		b.drivers[name] = d
	} else {
		b.drivers[name] = storage.Instrument(d, b.ioMetricsFor(name))
	}
	if db, ok := d.(*dbfs.FS); ok {
		b.dbs[name] = db.Database()
	}
	b.mu.Unlock()
}

// AddLogicalResource groups physical resources; storing into it
// replicates synchronously into every member (paper §5).
func (b *Broker) AddLogicalResource(user, name string, members []string) error {
	return b.AddLogicalResourcePolicy(user, name, members, "")
}

// AddLogicalResourcePolicy registers a logical resource with an
// explicit replication policy: "" or "sync" fans out on the write
// path, "async:k" lands k replicas synchronously and queues the rest
// for the repair engine.
func (b *Broker) AddLogicalResourcePolicy(user, name string, members []string, policy string) error {
	if !b.Cat.IsAdmin(user) {
		return types.E("addresource", name, types.ErrPermission)
	}
	err := b.Cat.AddResource(types.Resource{
		Name: name, Kind: types.ResourceLogical, Server: b.serverName, Members: members, ReplPolicy: policy,
	})
	if err != nil {
		return err
	}
	detail := "logical"
	if policy != "" {
		detail += " policy=" + policy
	}
	b.audit(user, "addresource", name, true, detail)
	return nil
}

// Remount installs the driver for a resource already present in the
// catalog — the restart path, when srbd reloads a catalog snapshot and
// re-attaches its local storage.
func (b *Broker) Remount(name string, d storage.Driver) error {
	if _, err := b.Cat.GetResource(name); err != nil {
		return err
	}
	b.mount(name, d)
	return nil
}

// RegisterCommand installs a proxy command under name. Administrators
// only, per the paper's security precaution.
func (b *Broker) RegisterCommand(user, name string, fn CommandFunc) error {
	if !b.Cat.IsAdmin(user) {
		return types.E("registercommand", name, types.ErrPermission)
	}
	b.mu.Lock()
	b.commands[name] = fn
	b.mu.Unlock()
	b.audit(user, "registercommand", name, true, "")
	return nil
}

// command resolves a proxy command.
func (b *Broker) command(name string) (CommandFunc, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	fn, ok := b.commands[name]
	return fn, ok
}

// contLock returns the append mutex for one container path.
func (b *Broker) contLock(path string) *sync.Mutex {
	b.containerMu.Lock()
	defer b.containerMu.Unlock()
	m, ok := b.contLocks[path]
	if !ok {
		m = &sync.Mutex{}
		b.contLocks[path] = m
	}
	return m
}

// audit records one operation outcome.
func (b *Broker) audit(user, op, target string, ok bool, detail string) {
	b.Audit.Op(user, op, target, ok, detail)
}

// auditTraced records one operation outcome stamped with the trace ID
// of the span the operation ran under (nil span = plain record), so
// the audit trail joins to the span-tree and usage-accounting streams.
func (b *Broker) auditTraced(sp *obs.Span, user, op, target string, ok bool, detail string) {
	b.Audit.OpTraced(sp.TraceID(), user, op, target, ok, detail)
}

// ---- permission and lock helpers ----

// need verifies the user's effective level on path.
func (b *Broker) need(user, path string, level acl.Level, op string) error {
	if b.Cat.EffectiveLevel(path, user) >= level {
		return nil
	}
	b.audit(user, op, path, false, "permission denied (need "+level.String()+")")
	return types.E(op, path, types.ErrPermission)
}

// writeBlocked reports whether locks or a checkout block writes by user.
func writeBlocked(o *types.DataObject, user string, now time.Time) bool {
	if o.Lock.Active(now) && o.Lock.Holder != user {
		return true
	}
	if o.CheckedOutBy != "" && o.CheckedOutBy != user {
		return true
	}
	return false
}

// readBlocked reports whether an exclusive lock blocks reads by user.
func readBlocked(o *types.DataObject, user string, now time.Time) bool {
	return o.Lock.Active(now) && o.Lock.Kind == types.LockExclusive && o.Lock.Holder != user
}

// checkWrite combines the ACL and lock checks for mutating an object.
func (b *Broker) checkWrite(user, path, op string) (types.DataObject, error) {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return o, types.E(op, path, types.ErrNotFound)
	}
	if err := b.need(user, path, acl.Write, op); err != nil {
		return o, err
	}
	if writeBlocked(&o, user, b.now()) {
		b.audit(user, op, path, false, "locked")
		return o, types.E(op, path, types.ErrLocked)
	}
	return o, nil
}

// Row is one catalog lookup of a path, made once per request and handed
// to every layer that needs the object: the server decides locality from
// it, and OpenGet and OpenRead check and open it without reading the
// catalog again.
type Row struct {
	// Path is the cleaned logical path.
	Path string
	// Obj is the object's row; zero when Err is set.
	Obj types.DataObject
	// Err is the lookup's error.
	Err error
	// start is when the lookup began: the mcat.lookup phase and the get's
	// latency run from here.
	start time.Time
}

// Lookup reads the object row at path once.
func (b *Broker) Lookup(path string) Row {
	r := Row{Path: types.CleanPath(path), start: time.Now()}
	r.Obj, r.Err = b.Cat.GetObject(r.Path)
	return r
}

// checkRead combines the ACL and lock checks for reading an object.
func (b *Broker) checkRead(user, path, op string) (types.DataObject, error) {
	r := b.Lookup(path)
	return r.Obj, b.checkReadRow(user, op, &r)
}

// checkReadRow is checkRead on a row already looked up. Links check
// against the resolved target per the paper ("The access control of the
// original object is inherited by the linked object").
func (b *Broker) checkReadRow(user, op string, r *Row) error {
	if r.Err != nil {
		return types.E(op, r.Path, types.ErrNotFound)
	}
	if r.Obj.Kind == types.KindLink {
		target, err := b.Cat.GetObject(r.Obj.LinkTarget)
		if err != nil {
			return types.E(op, r.Obj.LinkTarget, types.ErrNotFound)
		}
		if err := b.need(user, target.Path(), acl.Read, op); err != nil {
			return err
		}
		if readBlocked(&target, user, b.now()) {
			return types.E(op, r.Path, types.ErrLocked)
		}
		return nil
	}
	if err := b.need(user, r.Path, acl.Read, op); err != nil {
		return err
	}
	if readBlocked(&r.Obj, user, b.now()) {
		b.audit(user, op, r.Path, false, "locked")
		return types.E(op, r.Path, types.ErrLocked)
	}
	return nil
}
