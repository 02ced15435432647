package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

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
	scatters     sync.Pool // of *scatter, sized for n shards (query.go)
	puller       PullFunc
	promoteAfter int
	// compact compacts shard i after a catch-up loads it (applyPull); a
	// Store with a snapshot path publishes the snapshot too.
	compact func(i int) error
	logf    func(format string, args ...any)

	// Metrics are optional; counters stay nil until SetMetrics.
	mutations     []*obs.Counter
	singleQ       *obs.Counter
	scatterQ      *obs.Counter
	partialQ      *obs.Counter
	fanoutOp      *obs.Op
	mergeOp       *obs.Op
	pullOK        *obs.Counter
	pullFailed    *obs.Counter
	pullLines     *obs.Counter
	pullSkipped   *obs.Counter
	pullSnapshots *obs.Counter
	promotions    *obs.Counter
	replagBytes   []*obs.Gauge
	replagSeconds []*obs.Gauge
	heatImbalance *obs.Gauge
}

// state is one shard slot: its catalog and replication role.
type state struct {
	cat       *mcat.Catalog
	role      Role
	leader    string   // peer name when role == Follower
	stale     bool     // behind its leader; queries report it as partial
	applied   Position // follower: where in the leader's journal it is
	pullFails int      // consecutive failed pulls (promotion trigger)
	lastSync  time.Time

	// Replication-lag bookkeeping (see replagOf in sync.go).
	acked    Position  // leader: the position the last pull came from
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
		r.shards = append(r.shards, &state{cat: c, role: Leader})
	}
	r.compact = func(i int) error { return r.shards[i].cat.Compact("") }
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

// AttachJournal attaches shard i's journal, which its followers read.
func (r *Router) AttachJournal(i int, j *mcat.Journal) { r.shards[i].cat.SetJournal(j) }

// EnableMemoryJournals attaches a memory journal to every shard (tests,
// in-process rigs, a daemon with no -journal).
func (r *Router) EnableMemoryJournals() {
	for i := range r.shards {
		r.AttachJournal(i, mcat.NewMemJournal())
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
	r.pullSkipped = reg.Counter("mcat.shard.pull.skipped")
	r.pullSnapshots = reg.Counter("mcat.shard.pull.snapshots")
	r.promotions = reg.Counter("mcat.shard.promote")
	appendErrs := reg.Counter("mcat.journal.append.errors")
	for _, st := range r.shards {
		st.cat.OnJournalError(func(error) { appendErrs.Inc() })
	}
	r.replagBytes = make([]*obs.Gauge, r.n)
	r.replagSeconds = make([]*obs.Gauge, r.n)
	for i := 0; i < r.n; i++ {
		r.replagBytes[i] = reg.Gauge(fmt.Sprintf("mcat.shard.%d.replag_bytes", i))
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

// everyShard is route's answer for broadcast state.
const everyShard = -1

// route names the shard a write belongs on, or everyShard. It is the
// one placement decision: live writes (write) and the boot-time
// reshard both ask it. Accounts, resources, and spine collections with
// their ACLs and structural rules are on every shard; the repair queue
// is on shard 0; everything else is on its path's home shard.
func (r *Router) route(op, path string) int {
	switch op {
	case "adduser", "deluser", "addgroup", "addtogroup", "rmfromgroup",
		"addresource", "setonline", "replpolicy", "setresourceacl":
		return everyShard
	case "repairenq", "repairdone":
		return 0
	case "mkcoll", "rmcoll":
		if Spine(path) {
			return everyShard
		}
	case "setacl", "structural", "delstructural":
		if r.spineColl(path) {
			return everyShard
		}
	}
	return r.homeIdx(path)
}

// spineColl reports whether path is a collection every shard mirrors —
// the root or a depth-1 collection — so its ACL and structural rules
// broadcast. An object directly under the root lives on its home shard
// alone.
func (r *Router) spineColl(path string) bool {
	return r.n > 1 && Spine(path) && r.home(path).CollExists(path)
}

// write places one catalog write: fn runs on the shard route names,
// once that shard accepts writes. Broadcast state needs every shard to
// accept; fn runs on the path's home shard first and reaches the others
// only if the home shard took it, so a refusal (an object there already
// holds a spine name) leaves no trace anywhere. Past the home shard the
// copies are identical, so their errors agree; applying to the rest
// even after a failure keeps them agreeing when they do not.
func (r *Router) write(op, path string, fn func(c *mcat.Catalog) error) error {
	i := r.route(op, path)
	if i != everyShard {
		if err := r.writable(i, op, path); err != nil {
			return err
		}
		return fn(r.shards[i].cat)
	}
	if err := r.writableAll(op, path); err != nil {
		return err
	}
	h := r.homeIdx(path)
	if err := fn(r.shards[h].cat); err != nil {
		return err
	}
	var first error
	for j, st := range r.shards {
		if j == h {
			continue
		}
		if err := fn(st.cat); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- users and groups (broadcast writes, shard-0 reads) ----

func (r *Router) AddUser(u types.User) error {
	return r.write("adduser", u.Name, func(c *mcat.Catalog) error { return c.AddUser(u) })
}

func (r *Router) GetUser(name string) (types.User, error) { return r.shards[0].cat.GetUser(name) }
func (r *Router) Users() []types.User                     { return r.shards[0].cat.Users() }

func (r *Router) DeleteUser(name string) error {
	return r.write("deluser", name, func(c *mcat.Catalog) error { return c.DeleteUser(name) })
}

func (r *Router) AddGroup(name string) error {
	return r.write("addgroup", name, func(c *mcat.Catalog) error { return c.AddGroup(name) })
}

func (r *Router) AddToGroup(group, user string) error {
	return r.write("addtogroup", group, func(c *mcat.Catalog) error { return c.AddToGroup(group, user) })
}

func (r *Router) RemoveFromGroup(group, user string) error {
	return r.write("rmfromgroup", group, func(c *mcat.Catalog) error { return c.RemoveFromGroup(group, user) })
}

func (r *Router) GroupsOf(user string) map[string]bool { return r.shards[0].cat.GroupsOf(user) }
func (r *Router) Groups() []types.Group                { return r.shards[0].cat.Groups() }
func (r *Router) IsAdmin(name string) bool             { return r.shards[0].cat.IsAdmin(name) }

// ---- resources (broadcast writes, shard-0 reads) ----

func (r *Router) AddResource(res types.Resource) error {
	return r.write("addresource", res.Name, func(c *mcat.Catalog) error { return c.AddResource(res) })
}

func (r *Router) GetResource(name string) (types.Resource, error) {
	return r.shards[0].cat.GetResource(name)
}

func (r *Router) Resources() []types.Resource { return r.shards[0].cat.Resources() }

func (r *Router) SetResourceOnline(name string, online bool) error {
	return r.write("setonline", name, func(c *mcat.Catalog) error { return c.SetResourceOnline(name, online) })
}

func (r *Router) SetResourcePolicy(name, policy string) error {
	return r.write("replpolicy", name, func(c *mcat.Catalog) error { return c.SetResourcePolicy(name, policy) })
}

func (r *Router) ResolvePhysical(name string) ([]types.Resource, error) {
	return r.shards[0].cat.ResolvePhysical(name)
}

// DeleteResource broadcasts the removal. If a later shard refuses
// (e.g. a replica landed there between checks) the already-applied
// shards get the resource re-added so spine state stays uniform.
func (r *Router) DeleteResource(name string) error {
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
	return r.write("mkcoll", path, func(c *mcat.Catalog) error { return c.MkColl(path, owner) })
}

func (r *Router) MkCollAll(path, owner string) error {
	path = types.CleanPath(path)
	for _, p := range append(types.Ancestors(path), path) {
		if p == "/" {
			continue
		}
		if !Spine(p) {
			// First deep ancestor: everything from here down shares one
			// home shard, which can create the rest in one call.
			return r.write("mkcoll", path, func(c *mcat.Catalog) error { return c.MkCollAll(path, owner) })
		}
		// A spine collection that exists is skipped; anything else
		// holding its name refuses the step.
		if err := r.write("mkcoll", p, func(c *mcat.Catalog) error {
			if c.CollExists(p) {
				return nil
			}
			return c.MkColl(p, owner)
		}); err != nil {
			return err
		}
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
	if ti, li := r.homeIdx(target), r.homeIdx(linkPath); r.n > 1 && (Spine(target) || Spine(linkPath) || ti != li) {
		return types.E("linkcoll", linkPath, fmt.Errorf("link would cross shards (target on shard %d, link on shard %d): %w", ti, li, types.ErrUnsupported))
	}
	return r.write("linkcoll", linkPath, func(c *mcat.Catalog) error { return c.LinkColl(target, linkPath, owner) })
}

// ListColl lists a collection's direct members, as the monolith does:
// AppendList into a fresh slice.
func (r *Router) ListColl(path string) ([]types.Stat, error) {
	return r.AppendList(nil, path)
}

// AppendList appends a collection's direct members to dst, collections
// first, then objects, each sorted by name. A deep collection is its
// home shard's to list. A spine collection's children scatter across
// shards, so every shard's listing is appended, then sorted and cut to
// one entry a path, the lowest-numbered shard's. On error dst comes back
// unchanged.
func (r *Router) AppendList(dst []types.Stat, path string) ([]types.Stat, error) {
	path = types.CleanPath(path)
	if r.n == 1 || !Spine(path) {
		return r.home(path).AppendList(dst, path)
	}
	start := len(dst)
	var firstErr error
	found := false
	for _, st := range r.shards {
		var err error
		if dst, err = st.cat.AppendList(dst, path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		found = true
	}
	if !found {
		return dst, firstErr
	}
	// Stable sorts keep each path's entries in shard order, so the
	// compaction keeps the lowest-numbered shard's.
	list := dst[start:]
	slices.SortStableFunc(list, func(a, b types.Stat) int { return strings.Compare(a.Path, b.Path) })
	list = slices.CompactFunc(list, func(a, b types.Stat) bool { return a.Path == b.Path })
	slices.SortStableFunc(list, func(a, b types.Stat) int {
		switch {
		case a.IsCollect == b.IsCollect:
			return 0
		case a.IsCollect:
			return -1
		default:
			return 1
		}
	})
	return dst[:start+len(list)], nil
}

func (r *Router) DeleteColl(path string) error {
	path = types.CleanPath(path)
	if r.n == 1 || !Spine(path) {
		return r.write("rmcoll", path, func(c *mcat.Catalog) error { return c.DeleteColl(path) })
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
	return r.write("rmcoll", path, func(c *mcat.Catalog) error {
		if err := c.DeleteColl(path); !errors.Is(err, types.ErrNotFound) {
			return err
		}
		return nil
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

func (r *Router) RegisterObject(o *types.DataObject) (id types.ObjectID, err error) {
	err = r.write("register", types.Join(o.Collection, o.Name), func(c *mcat.Catalog) (err error) {
		id, err = c.RegisterObject(o)
		return err
	})
	return id, err
}

// NewObjectID allocates on the shard the put will commit on, once it
// accepts writes, so a put a follower or a latched shard would refuse is
// refused before its bytes are stored.
func (r *Router) NewObjectID(path string) (id types.ObjectID, err error) {
	err = r.write("ingest", path, func(c *mcat.Catalog) (err error) {
		id, err = c.NewObjectID(path)
		return err
	})
	return id, err
}

func (r *Router) Ingest(path string, o *types.DataObject, meta []types.AVU) error {
	return r.write("ingest", path, func(c *mcat.Catalog) error { return c.Ingest(path, o, meta) })
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
	return r.write("update", path, func(c *mcat.Catalog) error { return c.UpdateObject(path, fn) })
}

func (r *Router) DeleteObject(path string) error {
	return r.write("delete", path, func(c *mcat.Catalog) error { return c.DeleteObject(path) })
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

func (r *Router) EnqueueRepair(t types.RepairTask) (added bool) {
	r.write("repairenq", t.Key, func(c *mcat.Catalog) error { added = c.EnqueueRepair(t); return nil })
	return added
}

func (r *Router) CompleteRepair(key string) (done bool) {
	r.write("repairdone", key, func(c *mcat.Catalog) error { done = c.CompleteRepair(key); return nil })
	return done
}

func (r *Router) NoteRepairAttempt(key string) (attempts int) {
	r.write("repairenq", key, func(c *mcat.Catalog) error { attempts = c.NoteRepairAttempt(key); return nil })
	return attempts
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

func (r *Router) SetClock(now func() time.Time) {
	for _, st := range r.shards {
		st.cat.SetClock(now)
	}
}
