package shard

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gosrb/internal/audit"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// DefaultQueryTimeout bounds each shard's slice of a scatter-gather
// query. A shard that cannot answer in time is reported as partial
// rather than stalling the whole query.
const DefaultQueryTimeout = 2 * time.Second

// Router is a sharded MCAT: N independent catalogs behind the single
// Catalog contract. Paths route by consistent hash of their two-level
// prefix; spine state is broadcast; queries scatter-gather. With N=1
// every method is a straight passthrough to the one catalog.
type Router struct {
	n      int
	admin  string
	domain string

	mu     sync.RWMutex // guards roles, staleness, sync bookkeeping
	m      *Map
	shards []*state

	qTimeout     time.Duration
	puller       PullFunc
	promoteAfter int
	logf         func(format string, args ...any)

	// Metrics are optional; counters stay nil until SetMetrics.
	mutations      []*obs.Counter
	singleQ        *obs.Counter
	scatterQ       *obs.Counter
	partialQ       *obs.Counter
	fanoutOp       *obs.Op
	mergeOp        *obs.Op
	pullOK         *obs.Counter
	pullFailed     *obs.Counter
	pullLines      *obs.Counter
	promotions     *obs.Counter
	replogFallback *obs.Counter
	replagEntries  []*obs.Gauge
	replagSeconds  []*obs.Gauge
	heatImbalance  *obs.Gauge
}

// state is one shard slot: its catalog, replication log and role.
type state struct {
	cat       *mcat.Catalog
	rl        *RepLog
	role      Role
	leader    string // peer name when role == Follower
	stale     bool   // behind its leader; queries report it as partial
	applied   uint64 // leader journal sequence applied so far
	pullFails int    // consecutive failed pulls (promotion trigger)
	lastSync  time.Time

	// Replication-lag bookkeeping (see replag in sync.go).
	seenHead uint64    // follower: newest leader sequence a pull reported
	ackSeq   uint64    // leader: newest sequence a follower acked by pulling past it
	lastPull time.Time // leader: when a follower last pulled this shard
}

// NewRouter builds an N-shard router of fresh catalogs. Shard i
// allocates object IDs ≡ i+1 (mod N) so IDs stay globally unique
// without coordination; with one shard allocation is the default dense
// sequence, byte-identical to a monolithic catalog.
func NewRouter(n int, admin, domain string) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{
		n:        n,
		admin:    admin,
		domain:   domain,
		m:        NewMap(n, DefaultVNodes),
		qTimeout: DefaultQueryTimeout,
		logf:     func(string, ...any) {},
	}
	for i := 0; i < n; i++ {
		c := mcat.New(admin, domain)
		if n > 1 {
			c.SetIDAlloc(int64(i+1), int64(n))
		}
		r.shards = append(r.shards, &state{cat: c, rl: NewRepLog(DefaultRepLogCap), role: Leader})
	}
	return r
}

// N returns the shard count.
func (r *Router) N() int { return r.n }

// Shard exposes the catalog behind slot i (tests and the store).
func (r *Router) Shard(i int) *mcat.Catalog { return r.shards[i].cat }

// Map returns the routing map.
func (r *Router) Map() *Map { return r.m }

// SetLogf installs a logger for replication events.
func (r *Router) SetLogf(f func(format string, args ...any)) {
	if f != nil {
		r.logf = f
	}
}

// SetQueryTimeout bounds each shard's slice of a scatter-gather query.
func (r *Router) SetQueryTimeout(d time.Duration) {
	if d > 0 {
		r.qTimeout = d
	}
}

// AttachJournal wires a journal into shard i: catalog mutations append
// to it and every appended line feeds the shard's replication log.
func (r *Router) AttachJournal(i int, j *mcat.Journal) {
	st := r.shards[i]
	j.SetObserver(func(line []byte) { st.rl.Append(line) })
	st.cat.SetJournal(j)
}

// EnableMemoryJournals attaches discard journals to every shard so the
// replication stream works without on-disk files (tests, benchmarks,
// in-process chaos rigs).
func (r *Router) EnableMemoryJournals() {
	for i := range r.shards {
		r.AttachJournal(i, mcat.NewJournal(io.Discard))
	}
}

// SetRepLogBase marks sequences 1..base as preceding every shard's
// replication log (see RepLog.SetBase). A persistent store calls this
// at every open with a boot-unique base so followers positioned in an
// earlier incarnation's window take the snapshot path.
func (r *Router) SetRepLogBase(base uint64) {
	for _, st := range r.shards {
		st.rl.SetBase(base)
	}
}

// SetMetrics registers the router's per-shard and query counters.
func (r *Router) SetMetrics(reg *obs.Registry) {
	r.mutations = make([]*obs.Counter, r.n)
	for i := 0; i < r.n; i++ {
		r.mutations[i] = reg.Counter(fmt.Sprintf("mcat.shard.%d.mutations", i))
	}
	r.singleQ = reg.Counter("mcat.shard.query.single")
	r.scatterQ = reg.Counter("mcat.shard.query.scatter")
	r.partialQ = reg.Counter("mcat.shard.query.partial")
	// Fan-out and merge durations are registered under the phase
	// namespace, so the latency-decomposition surfaces (`srb top
	// -phases`, the admin /phases page, the MySRB grid) break a sharded
	// query's wall time down without any extra plumbing.
	r.fanoutOp = reg.Op(obs.PhasePrefix + "server.query." + obs.PhaseShardFanout)
	r.mergeOp = reg.Op(obs.PhasePrefix + "server.query." + obs.PhaseShardMerge)
	r.pullOK = reg.Counter("mcat.shard.pull.ok")
	r.pullFailed = reg.Counter("mcat.shard.pull.fail")
	r.pullLines = reg.Counter("mcat.shard.pull.entries")
	r.promotions = reg.Counter("mcat.shard.promote")
	r.replogFallback = reg.Counter("mcat.shard.replog.fallback")
	appendErrs := reg.Counter("mcat.journal.append.errors")
	for _, st := range r.shards {
		st.cat.OnJournalError(func(error) { appendErrs.Inc() })
	}
	r.replagEntries = make([]*obs.Gauge, r.n)
	r.replagSeconds = make([]*obs.Gauge, r.n)
	for i := 0; i < r.n; i++ {
		r.replagEntries[i] = reg.Gauge(fmt.Sprintf("mcat.shard.%d.replag_entries", i))
		r.replagSeconds[i] = reg.Gauge(fmt.Sprintf("mcat.shard.%d.replag_seconds", i))
	}
	r.heatImbalance = reg.Gauge("mcat.shard.heat_imbalance_pct")
}

// ---- routing primitives ----

// homeIdx returns the shard slot owning a path.
func (r *Router) homeIdx(path string) int {
	if r.n == 1 {
		return 0
	}
	return r.m.ShardOfPath(path)
}

// home returns the catalog owning a path.
func (r *Router) home(path string) *mcat.Catalog {
	return r.shards[r.homeIdx(path)].cat
}

// writable checks that shard i accepts mutations: followers reject,
// naming their leader so the client can retry there.
func (r *Router) writable(i int, op, target string) error {
	r.mu.RLock()
	st := r.shards[i]
	role, leader := st.role, st.leader
	r.mu.RUnlock()
	if role == Follower {
		return types.E(op, target, fmt.Errorf("shard %d is a follower of %q: %w", i, leader, types.ErrReadOnly))
	}
	// A shard whose journal stopped taking appends holds mutations in
	// memory that a restart would lose; it serves reads and nothing else.
	if err := st.cat.JournalErr(); err != nil {
		return types.E(op, target, fmt.Errorf("shard %d journal append failing (%v): %w", i, err, types.ErrReadOnly))
	}
	if r.mutations != nil {
		r.mutations[i].Inc()
	}
	return nil
}

// writableAll checks every shard (broadcast mutations must reach all).
func (r *Router) writableAll(op, target string) error {
	for i := range r.shards {
		if err := r.writable(i, op, target); err != nil {
			return err
		}
	}
	return nil
}

// each applies fn to every shard and returns the first error. Spine
// state is identical everywhere so errors agree; applying to the rest
// even after a failure keeps them agreeing when they do not.
func (r *Router) each(fn func(c *mcat.Catalog) error) error {
	var first error
	for _, st := range r.shards {
		if err := fn(st.cat); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tolerateExists maps ErrExists to success (idempotent broadcasts).
func tolerateExists(err error) error {
	if errors.Is(err, types.ErrExists) {
		return nil
	}
	return err
}

// ---- users and groups (broadcast writes, shard-0 reads) ----

func (r *Router) AddUser(u types.User) error {
	if err := r.writableAll("adduser", u.Name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.AddUser(u) })
}

func (r *Router) GetUser(name string) (types.User, error) { return r.shards[0].cat.GetUser(name) }
func (r *Router) Users() []types.User                     { return r.shards[0].cat.Users() }

func (r *Router) DeleteUser(name string) error {
	if err := r.writableAll("deluser", name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.DeleteUser(name) })
}

func (r *Router) AddGroup(name string) error {
	if err := r.writableAll("addgroup", name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.AddGroup(name) })
}

func (r *Router) AddToGroup(group, user string) error {
	if err := r.writableAll("addtogroup", group); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.AddToGroup(group, user) })
}

func (r *Router) RemoveFromGroup(group, user string) error {
	if err := r.writableAll("rmfromgroup", group); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.RemoveFromGroup(group, user) })
}

func (r *Router) GroupsOf(user string) map[string]bool { return r.shards[0].cat.GroupsOf(user) }
func (r *Router) Groups() []types.Group                { return r.shards[0].cat.Groups() }
func (r *Router) IsAdmin(name string) bool             { return r.shards[0].cat.IsAdmin(name) }

// ---- resources (broadcast writes, shard-0 reads) ----

func (r *Router) AddResource(res types.Resource) error {
	if err := r.writableAll("addresource", res.Name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.AddResource(res) })
}

func (r *Router) GetResource(name string) (types.Resource, error) {
	return r.shards[0].cat.GetResource(name)
}

func (r *Router) Resources() []types.Resource { return r.shards[0].cat.Resources() }

func (r *Router) SetResourceOnline(name string, online bool) error {
	if err := r.writableAll("setonline", name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.SetResourceOnline(name, online) })
}

func (r *Router) SetResourcePolicy(name, policy string) error {
	if err := r.writableAll("replpolicy", name); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.SetResourcePolicy(name, policy) })
}

func (r *Router) ResolvePhysical(name string) ([]types.Resource, error) {
	return r.shards[0].cat.ResolvePhysical(name)
}

// DeleteResource broadcasts the removal. If a later shard refuses
// (e.g. a replica landed there between checks) the already-applied
// shards get the resource re-added so spine state stays uniform.
func (r *Router) DeleteResource(name string) error {
	if r.n == 1 {
		if err := r.writable(0, "delresource", name); err != nil {
			return err
		}
		return r.shards[0].cat.DeleteResource(name)
	}
	if err := r.writableAll("delresource", name); err != nil {
		return err
	}
	res, getErr := r.shards[0].cat.GetResource(name)
	var deleted []*mcat.Catalog
	for _, st := range r.shards {
		if err := st.cat.DeleteResource(name); err != nil {
			if getErr == nil {
				for _, c := range deleted {
					c.AddResource(res) // best-effort compensation
				}
			}
			return err
		}
		deleted = append(deleted, st.cat)
	}
	return nil
}

// ---- collections ----

func (r *Router) MkColl(path, owner string) error {
	path = types.CleanPath(path)
	if r.n > 1 && Spine(path) {
		if err := r.writableAll("mkcoll", path); err != nil {
			return err
		}
		return r.each(func(c *mcat.Catalog) error { return c.MkColl(path, owner) })
	}
	i := r.homeIdx(path)
	if err := r.writable(i, "mkcoll", path); err != nil {
		return err
	}
	return r.shards[i].cat.MkColl(path, owner)
}

func (r *Router) MkCollAll(path, owner string) error {
	path = types.CleanPath(path)
	if r.n == 1 {
		if err := r.writable(0, "mkcoll", path); err != nil {
			return err
		}
		return r.shards[0].cat.MkCollAll(path, owner)
	}
	for _, p := range append(types.Ancestors(path), path) {
		if p == "/" {
			continue
		}
		if Spine(p) {
			if err := r.writableAll("mkcoll", p); err != nil {
				return err
			}
			pp := p
			if err := r.each(func(c *mcat.Catalog) error { return tolerateExists(c.MkColl(pp, owner)) }); err != nil {
				return err
			}
			continue
		}
		// First deep ancestor: everything from here down shares one
		// home shard, which can create the rest in one call.
		i := r.homeIdx(p)
		if err := r.writable(i, "mkcoll", path); err != nil {
			return err
		}
		return r.shards[i].cat.MkCollAll(path, owner)
	}
	return nil
}

func (r *Router) GetColl(path string) (types.Collection, error) { return r.home(path).GetColl(path) }
func (r *Router) ResolveColl(path string) (string, error)       { return r.home(path).ResolveColl(path) }

// LinkColl registers a linked sub-collection. Across shards a link
// would make one subtree's state live on two partitions, so target and
// link must be deep paths sharing a home shard.
func (r *Router) LinkColl(target, linkPath, owner string) error {
	target, linkPath = types.CleanPath(target), types.CleanPath(linkPath)
	if r.n == 1 {
		if err := r.writable(0, "linkcoll", linkPath); err != nil {
			return err
		}
		return r.shards[0].cat.LinkColl(target, linkPath, owner)
	}
	ti, li := r.homeIdx(target), r.homeIdx(linkPath)
	if Spine(target) || Spine(linkPath) || ti != li {
		return types.E("linkcoll", linkPath, fmt.Errorf("link would cross shards (target on shard %d, link on shard %d): %w", ti, li, types.ErrUnsupported))
	}
	if err := r.writable(li, "linkcoll", linkPath); err != nil {
		return err
	}
	return r.shards[li].cat.LinkColl(target, linkPath, owner)
}

func (r *Router) ListColl(path string) ([]types.Stat, error) {
	path = types.CleanPath(path)
	if r.n == 1 || !Spine(path) {
		return r.home(path).ListColl(path)
	}
	// Spine collection: direct children scatter across shards.
	seen := make(map[string]types.Stat)
	var firstErr error
	found := false
	for _, st := range r.shards {
		out, err := st.cat.ListColl(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		found = true
		for _, s := range out {
			if _, ok := seen[s.Path]; !ok {
				seen[s.Path] = s
			}
		}
	}
	if !found {
		return nil, firstErr
	}
	var dirs, objs []string
	for p, s := range seen {
		if s.IsCollect {
			dirs = append(dirs, p)
		} else {
			objs = append(objs, p)
		}
	}
	sort.Strings(dirs)
	sort.Strings(objs)
	out := make([]types.Stat, 0, len(seen))
	for _, p := range dirs {
		out = append(out, seen[p])
	}
	for _, p := range objs {
		out = append(out, seen[p])
	}
	return out, nil
}

func (r *Router) DeleteColl(path string) error {
	path = types.CleanPath(path)
	if r.n == 1 || !Spine(path) {
		i := r.homeIdx(path)
		if err := r.writable(i, "rmcoll", path); err != nil {
			return err
		}
		return r.shards[i].cat.DeleteColl(path)
	}
	if err := r.writableAll("rmcoll", path); err != nil {
		return err
	}
	// A spine collection is empty only if it is empty on every shard.
	exists := false
	for _, st := range r.shards {
		if !st.cat.CollExists(path) {
			continue
		}
		exists = true
		if len(st.cat.SubColls(path)) > 0 || len(st.cat.ObjectsIn(path)) > 0 {
			return types.E("rmcoll", path, types.ErrNotEmpty)
		}
	}
	if !exists {
		return types.E("rmcoll", path, types.ErrNotFound)
	}
	return r.each(func(c *mcat.Catalog) error {
		err := c.DeleteColl(path)
		if errors.Is(err, types.ErrNotFound) {
			return nil
		}
		return err
	})
}

func (r *Router) CollExists(path string) bool { return r.home(path).CollExists(path) }

func (r *Router) SubColls(root string) []string {
	root = types.CleanPath(root)
	if r.n == 1 || !Spine(root) {
		return r.home(root).SubColls(root)
	}
	seen := make(map[string]bool)
	for _, st := range r.shards {
		for _, p := range st.cat.SubColls(root) {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ---- data objects ----

func (r *Router) RegisterObject(o *types.DataObject) (types.ObjectID, error) {
	i := r.homeIdx(types.Join(o.Collection, o.Name))
	if err := r.writable(i, "register", o.Name); err != nil {
		return 0, err
	}
	return r.shards[i].cat.RegisterObject(o)
}

func (r *Router) AdoptObject(o *types.DataObject) error {
	i := r.homeIdx(types.Join(o.Collection, o.Name))
	if err := r.writable(i, "adopt", o.Name); err != nil {
		return err
	}
	return r.shards[i].cat.AdoptObject(o)
}

func (r *Router) GetObject(path string) (types.DataObject, error) {
	return r.home(path).GetObject(path)
}

func (r *Router) ResolveObject(path string) (types.DataObject, error) {
	return r.home(path).ResolveObject(path)
}

// GetObjectByID scatters: migrated objects keep their original IDs, so
// the allocation stride cannot locate them arithmetically.
func (r *Router) GetObjectByID(id types.ObjectID) (types.DataObject, error) {
	if r.n == 1 {
		return r.shards[0].cat.GetObjectByID(id)
	}
	for _, st := range r.shards {
		o, err := st.cat.GetObjectByID(id)
		if err == nil {
			return o, nil
		}
		if !errors.Is(err, types.ErrNotFound) {
			return types.DataObject{}, err
		}
	}
	return types.DataObject{}, types.E("getbyid", fmt.Sprint(id), types.ErrNotFound)
}

func (r *Router) UpdateObject(path string, fn func(*types.DataObject) error) error {
	i := r.homeIdx(path)
	if err := r.writable(i, "update", path); err != nil {
		return err
	}
	return r.shards[i].cat.UpdateObject(path, fn)
}

func (r *Router) DeleteObject(path string) error {
	i := r.homeIdx(path)
	if err := r.writable(i, "delete", path); err != nil {
		return err
	}
	return r.shards[i].cat.DeleteObject(path)
}

func (r *Router) ObjectsIn(coll string) []types.DataObject {
	coll = types.CleanPath(coll)
	if r.n == 1 || !Spine(coll) {
		return r.home(coll).ObjectsIn(coll)
	}
	seen := make(map[string]types.DataObject)
	for _, st := range r.shards {
		for _, o := range st.cat.ObjectsIn(coll) {
			p := o.Path()
			if _, ok := seen[p]; !ok {
				seen[p] = o
			}
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]types.DataObject, 0, len(paths))
	for _, p := range paths {
		out = append(out, seen[p])
	}
	return out
}

func (r *Router) SubtreeObjects(root string) []string {
	root = types.CleanPath(root)
	if r.n == 1 || !Spine(root) {
		return r.home(root).SubtreeObjects(root)
	}
	return r.gatherPaths(func(c *mcat.Catalog) []string { return c.SubtreeObjects(root) })
}

func (r *Router) LinksTo(target string) []string {
	if r.n == 1 {
		return r.shards[0].cat.LinksTo(target)
	}
	return r.gatherPaths(func(c *mcat.Catalog) []string { return c.LinksTo(target) })
}

func (r *Router) ObjectsInContainer(containerPath string) []string {
	if r.n == 1 {
		return r.shards[0].cat.ObjectsInContainer(containerPath)
	}
	return r.gatherPaths(func(c *mcat.Catalog) []string { return c.ObjectsInContainer(containerPath) })
}

// gatherPaths unions sorted path lists from every shard.
func (r *Router) gatherPaths(fn func(c *mcat.Catalog) []string) []string {
	seen := make(map[string]bool)
	for _, st := range r.shards {
		for _, p := range fn(st.cat) {
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ---- repair queue (shard 0 is the queue's home) ----

func (r *Router) EnqueueRepair(t types.RepairTask) bool {
	if err := r.writable(0, "repairenq", t.Key); err != nil {
		return false
	}
	return r.shards[0].cat.EnqueueRepair(t)
}

func (r *Router) CompleteRepair(key string) bool {
	if err := r.writable(0, "repairdone", key); err != nil {
		return false
	}
	return r.shards[0].cat.CompleteRepair(key)
}

func (r *Router) NoteRepairAttempt(key string) int {
	if err := r.writable(0, "repairenq", key); err != nil {
		return 0
	}
	return r.shards[0].cat.NoteRepairAttempt(key)
}

func (r *Router) PendingRepairs() []types.RepairTask { return r.shards[0].cat.PendingRepairs() }

func (r *Router) RepairBacklog() (int, time.Time) { return r.shards[0].cat.RepairBacklog() }

// ---- accounting ----

// JournalErr returns the first journal append failure latched by any
// shard (see mcat.Catalog.JournalErr), or nil.
func (r *Router) JournalErr() error {
	for _, st := range r.shards {
		if err := st.cat.JournalErr(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Router) Stats() mcat.Stats {
	if r.n == 1 {
		return r.shards[0].cat.Stats()
	}
	s0 := r.shards[0].cat.Stats()
	out := mcat.Stats{Users: s0.Users, Resources: s0.Resources}
	collSet := make(map[string]bool)
	for _, st := range r.shards {
		cs := st.cat.Stats()
		out.Objects += cs.Objects
		out.MetaEntries += cs.MetaEntries
		for _, p := range st.cat.SubColls("/") {
			collSet[p] = true
		}
	}
	out.Collections = len(collSet) + 1 // spine and deep colls, plus the root
	return out
}

func (r *Router) AuditLog() *audit.Log { return r.shards[0].cat.AuditLog() }

func (r *Router) SetClock(now func() time.Time) {
	for _, st := range r.shards {
		st.cat.SetClock(now)
	}
}
