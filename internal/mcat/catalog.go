// Package mcat implements the MCAT metadata catalog, the heart of the
// SRB data grid: the logical name space of collections and data
// objects, the registry of users, groups and storage resources, access
// control lists, the five classes of metadata with a conjunctive query
// engine, and annotations.
//
// The catalog is the single source of truth ("The SRB, in conjunction
// with the Metadata Catalog, supports location transparency by
// accessing data sets and resources based on their attributes rather
// than their names or physical locations"). Brokers hold no catalog
// state of their own; the audit trail is the broker's (core.Broker.Audit).
//
// All state lives behind one RWMutex with secondary indexes (by path,
// by collection, by metadata attribute) so that equality queries stay
// flat as the catalog grows to the paper's "millions of datasets".
package mcat

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// metaEntry is one stored metadata triplet with its class.
type metaEntry struct {
	Class types.MetaClass
	AVU   types.AVU
}

// Catalog is an MCAT instance. Safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex

	// tables is the catalog's state, which a snapshot load replaces
	// whole (see Load).
	tables

	// idOffset/idStride partition the object-ID space when several
	// catalogs share one namespace (shard i of N allocates IDs ≡ i+1
	// mod N). Zero stride means the default single-catalog allocation.
	idOffset types.ObjectID
	idStride types.ObjectID

	// journal, when attached, receives every mutation as an append-log
	// entry (see journal.go).
	journal *Journal
	// snapGen is the generation the snapshot Load last read names
	// (Resume).
	snapGen uint64
	// journalErr latches the first journal append failure (see
	// journalFailed); onJournalErr observes every one.
	journalErr   atomic.Pointer[error]
	onJournalErr func(error)

	now func() time.Time
}

// tables holds every row of a catalog with the indexes over them.
type tables struct {
	nextID  types.ObjectID
	objects map[string]*types.DataObject // logical path -> object
	byID    map[types.ObjectID]string    // id -> logical path
	colls   map[string]*types.Collection // logical path -> collection

	// children indexes the direct members of each collection:
	// childColls[parent] and childObjs[parent] map base name -> path.
	childColls map[string]map[string]string
	childObjs  map[string]map[string]string

	resources map[string]*types.Resource
	// self holds each physical resource as the one-member list
	// ResolvePhysical returns for it: shared and read-only, so a put
	// resolves its resource without making the list; a change to the
	// resource replaces the list.
	self   map[string][]types.Resource
	users  map[string]*types.User
	groups map[string]*types.Group

	acls map[string]acl.List // logical path (or "resource:<name>") -> ACL

	meta       map[string][]metaEntry // path -> metadata triplets
	structural map[string][]types.StructuralAttr
	annots     map[string][]types.Annotation
	fileMeta   map[string][]string // path -> logical paths of metadata-carrying files

	// attrIndex is the inverted metadata index: attribute name ->
	// value -> set of logical paths. Only queryable classes (user,
	// type) are indexed.
	attrIndex map[string]map[string]map[string]bool

	// repairs is the pending background-repair queue, keyed by
	// RepairTask.Key. Enqueue/complete are journaled so the queue
	// survives a daemon restart (see repair.go).
	repairs map[string]*types.RepairTask

	// canary fingerprints the stored object rows in a rowcanary build
	// (canary.go) and is empty otherwise.
	canary *rowCanary
}

// newTables returns tables holding only the root collection, root.
func newTables(root *types.Collection) tables {
	return tables{
		nextID:     1,
		objects:    make(map[string]*types.DataObject),
		byID:       make(map[types.ObjectID]string),
		colls:      map[string]*types.Collection{"/": root},
		childColls: make(map[string]map[string]string),
		childObjs:  make(map[string]map[string]string),
		resources:  make(map[string]*types.Resource),
		self:       make(map[string][]types.Resource),
		users:      make(map[string]*types.User),
		groups:     make(map[string]*types.Group),
		acls:       make(map[string]acl.List),
		meta:       make(map[string][]metaEntry),
		structural: make(map[string][]types.StructuralAttr),
		annots:     make(map[string][]types.Annotation),
		fileMeta:   make(map[string][]string),
		attrIndex:  make(map[string]map[string]map[string]bool),
		repairs:    make(map[string]*types.RepairTask),
		canary:     new(rowCanary),
	}
}

// New returns a catalog containing only the root collection, owned by
// the given administrator, and the administrator account itself.
func New(adminUser, adminDomain string) *Catalog {
	now := time.Now()
	c := &Catalog{
		tables: newTables(&types.Collection{Path: "/", Owner: adminUser, CreatedAt: now}),
		now:    time.Now,
	}
	c.users[adminUser] = &types.User{Name: adminUser, Domain: adminDomain, Admin: true, CreatedAt: now}
	return c
}

// SetClock overrides the time source (tests).
func (c *Catalog) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// SetIDAlloc partitions object-ID allocation: every ID handed out from
// now on satisfies id ≡ offset (mod stride). Shard i of an N-shard
// catalog uses (i+1, N) so IDs stay unique across shards without
// coordination. stride <= 1 restores the default dense allocation.
func (c *Catalog) SetIDAlloc(offset, stride int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stride <= 1 {
		c.idOffset, c.idStride = 0, 0
		return
	}
	c.idOffset = types.ObjectID(((offset % stride) + stride) % stride)
	c.idStride = types.ObjectID(stride)
	c.nextID = c.alignIDLocked(c.nextID)
}

// NextID returns the lowest ID the catalog may still hand out: every ID
// it ever allocated, a deleted object's included, is below it.
func (c *Catalog) NextID() types.ObjectID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextID
}

// ReserveIDs makes every ID handed out from now on at least min, so a
// catalog rebuilt from others' state never reissues an ID they handed
// out.
func (c *Catalog) ReserveIDs(min types.ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if min > c.nextID {
		c.nextID = c.alignIDLocked(min)
	}
}

// alignIDLocked returns the smallest id >= min in this catalog's ID
// class. With no stride configured it is the identity.
func (c *Catalog) alignIDLocked(min types.ObjectID) types.ObjectID {
	if c.idStride <= 1 {
		return min
	}
	rem := ((min-c.idOffset)%c.idStride + c.idStride) % c.idStride
	if rem == 0 {
		return min
	}
	return min + c.idStride - rem
}

// ---- users and groups ----

// AddUser registers a user.
func (c *Catalog) AddUser(u types.User) error {
	l := lend(Entry{Op: "adduser"})
	l.p.user = u
	l.e.User = &l.p.user
	return c.commitLine(l)
}

// GetUser returns a user by name.
func (c *Catalog) GetUser(name string) (types.User, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.users[name]
	if !ok {
		return types.User{}, types.E("getuser", name, types.ErrNotFound)
	}
	return *u, nil
}

// Users lists all users sorted by name.
func (c *Catalog) Users() []types.User {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.User, 0, len(c.users))
	for _, u := range c.users {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeleteUser removes a user account.
func (c *Catalog) DeleteUser(name string) error {
	return c.commit(Entry{Op: "deluser", Name: name})
}

// AddGroup creates an empty group.
func (c *Catalog) AddGroup(name string) error {
	return c.commit(Entry{Op: "addgroup", Group: name})
}

// AddToGroup adds a registered user to a group.
func (c *Catalog) AddToGroup(group, user string) error {
	return c.commit(Entry{Op: "addtogroup", Group: group, Member: user})
}

// RemoveFromGroup drops a user from a group.
func (c *Catalog) RemoveFromGroup(group, user string) error {
	return c.commit(Entry{Op: "rmfromgroup", Group: group, Member: user})
}

// GroupsOf returns the set of groups user belongs to.
func (c *Catalog) GroupsOf(user string) map[string]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.groupsOfLocked(user)
}

// groupsOfLocked returns nil for a user in no group, the common case on
// every access check.
func (c *Catalog) groupsOfLocked(user string) map[string]bool {
	var out map[string]bool
	for name, g := range c.groups {
		for _, m := range g.Members {
			if m == user {
				if out == nil {
					out = make(map[string]bool)
				}
				out[name] = true
				break
			}
		}
	}
	return out
}

// Groups lists all groups sorted by name.
func (c *Catalog) Groups() []types.Group {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.Group, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, types.Group{Name: g.Name, Members: append([]string(nil), g.Members...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func removeString(s []string, v string) []string {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// ---- resources ----

// AddResource registers a storage resource. Logical resources must name
// at least two existing physical members (paper §5: "a logical resource
// that ties together two or more physical resources").
func (c *Catalog) AddResource(r types.Resource) error {
	l := lend(Entry{Op: "addresource"})
	l.p.res = r
	l.e.Resource = &l.p.res
	return c.commitLine(l)
}

// GetResource returns a resource by name.
func (c *Catalog) GetResource(name string) (types.Resource, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.resources[name]
	if !ok {
		return types.Resource{}, types.E("getresource", name, types.ErrNotFound)
	}
	out := *r
	out.Members = append([]string(nil), r.Members...)
	return out, nil
}

// Resources lists all resources sorted by name.
func (c *Catalog) Resources() []types.Resource {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.Resource, 0, len(c.resources))
	for _, r := range c.resources {
		cp := *r
		cp.Members = append([]string(nil), r.Members...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetResourceOnline flips a resource's availability; reads against an
// offline resource fail over to replicas elsewhere (paper §3.4).
func (c *Catalog) SetResourceOnline(name string, online bool) error {
	return c.commit(Entry{Op: "setonline", Name: name, Online: online})
}

// SetResourcePolicy changes the replication policy of a logical
// resource ("sync", "" or "async:k" with k <= len(members)).
func (c *Catalog) SetResourcePolicy(name, policy string) error {
	return c.commit(Entry{Op: "replpolicy", Name: name, Value: policy})
}

// ResolvePhysical expands a resource name to the ordered list of
// physical resources writes must reach: itself for a physical resource,
// every member for a logical one. A physical resource's list is the
// catalog's own (self): shared and read-only, as a row is.
func (c *Catalog) ResolvePhysical(name string) ([]types.Resource, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.resources[name]
	if !ok {
		return nil, types.E("resolve", name, types.ErrNotFound)
	}
	if r.Kind == types.ResourcePhysical {
		return c.self[name], nil
	}
	out := make([]types.Resource, 0, len(r.Members))
	for _, m := range r.Members {
		mr, ok := c.resources[m]
		if !ok {
			return nil, types.E("resolve", m, types.ErrNotFound)
		}
		out = append(out, *mr)
	}
	return out, nil
}

// DeleteResource removes an unused resource: no replica may reference
// it and no logical resource may list it as a member.
func (c *Catalog) DeleteResource(name string) error {
	return c.commit(Entry{Op: "delresource", Name: name})
}

// Stats summarises catalog size.
type Stats struct {
	Objects     int
	Collections int
	Resources   int
	Users       int
	MetaEntries int
}

// Stats returns catalog size counters.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{
		Objects:     len(c.objects),
		Collections: len(c.colls),
		Resources:   len(c.resources),
		Users:       len(c.users),
	}
	for _, entries := range c.meta {
		s.MetaEntries += len(entries)
	}
	return s
}

// isAdminLocked reports whether name is an admin account.
func (c *Catalog) isAdminLocked(name string) bool {
	u, ok := c.users[name]
	return ok && u.Admin
}

// IsAdmin reports whether the named user is an administrator.
func (c *Catalog) IsAdmin(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.isAdminLocked(name)
}

// lowerEq is a case-insensitive string equality helper used by query
// attribute matching.
func lowerEq(a, b string) bool { return strings.EqualFold(a, b) }
