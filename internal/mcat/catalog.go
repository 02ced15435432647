// Package mcat implements the MCAT metadata catalog, the heart of the
// SRB data grid: the logical name space of collections and data
// objects, the registry of users, groups and storage resources, access
// control lists, the five classes of metadata with a conjunctive query
// engine, annotations, and the audit trail.
//
// The catalog is the single source of truth ("The SRB, in conjunction
// with the Metadata Catalog, supports location transparency by
// accessing data sets and resources based on their attributes rather
// than their names or physical locations"). Brokers hold no state of
// their own.
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
	"gosrb/internal/audit"
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

	nextID types.ObjectID
	// idOffset/idStride partition the object-ID space when several
	// catalogs share one namespace (shard i of N allocates IDs ≡ i+1
	// mod N). Zero stride means the default single-catalog allocation.
	idOffset types.ObjectID
	idStride types.ObjectID
	objects  map[string]*types.DataObject // logical path -> object
	byID     map[types.ObjectID]string    // id -> logical path
	colls    map[string]*types.Collection // logical path -> collection

	// children indexes the direct members of each collection:
	// childColls[parent] and childObjs[parent] map base name -> path.
	childColls map[string]map[string]string
	childObjs  map[string]map[string]string

	resources map[string]*types.Resource
	users     map[string]*types.User
	groups    map[string]*types.Group

	acls map[string]acl.List // logical path (or "resource:<name>") -> ACL

	meta       map[string][]metaEntry // path -> metadata triplets
	structural map[string][]types.StructuralAttr
	annots     map[string][]types.Annotation
	fileMeta   map[string][]string // path -> logical paths of metadata-carrying files

	// attrIndex is the inverted metadata index: attribute name ->
	// value -> set of logical paths. Only queryable classes (user,
	// type) are indexed.
	attrIndex map[string]map[string]map[string]bool

	// Audit is the catalog's audit trail.
	Audit *audit.Log

	// journal, when attached, receives every mutation as an append-log
	// entry (see journal.go).
	journal *Journal
	// journalErr latches the first journal append failure (see
	// journalFailed); onJournalErr observes every one.
	journalErr   atomic.Pointer[error]
	onJournalErr func(error)

	// repairs is the pending background-repair queue, keyed by
	// RepairTask.Key. Enqueue/complete are journaled so the queue
	// survives a daemon restart (see repair.go).
	repairs map[string]*types.RepairTask

	now func() time.Time
}

// New returns a catalog containing only the root collection, owned by
// the given administrator, and the administrator account itself.
func New(adminUser, adminDomain string) *Catalog {
	c := &Catalog{
		nextID:     1,
		objects:    make(map[string]*types.DataObject),
		byID:       make(map[types.ObjectID]string),
		colls:      make(map[string]*types.Collection),
		childColls: make(map[string]map[string]string),
		childObjs:  make(map[string]map[string]string),
		resources:  make(map[string]*types.Resource),
		users:      make(map[string]*types.User),
		groups:     make(map[string]*types.Group),
		acls:       make(map[string]acl.List),
		meta:       make(map[string][]metaEntry),
		structural: make(map[string][]types.StructuralAttr),
		annots:     make(map[string][]types.Annotation),
		fileMeta:   make(map[string][]string),
		attrIndex:  make(map[string]map[string]map[string]bool),
		repairs:    make(map[string]*types.RepairTask),
		Audit:      audit.New(0),
		now:        time.Now,
	}
	c.colls["/"] = &types.Collection{Path: "/", Owner: adminUser, CreatedAt: c.now()}
	c.users[adminUser] = &types.User{Name: adminUser, Domain: adminDomain, Admin: true, CreatedAt: c.now()}
	return c
}

// SetClock overrides the time source (tests).
func (c *Catalog) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// AuditLog returns the catalog's audit trail. Callers that hold a
// Catalog interface value (the shard router satisfies the same
// contract) reach the trail through this accessor rather than the
// concrete Audit field.
func (c *Catalog) AuditLog() *audit.Log { return c.Audit }

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
	c.mu.Lock()
	defer c.mu.Unlock()
	if !types.ValidName(u.Name) {
		return types.E("adduser", u.Name, types.ErrInvalid)
	}
	if _, ok := c.users[u.Name]; ok {
		return types.E("adduser", u.Name, types.ErrExists)
	}
	if u.CreatedAt.IsZero() {
		u.CreatedAt = c.now()
	}
	c.users[u.Name] = &u
	c.log(journalEntry{Op: "adduser", User: &u})
	return nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.users[name]; !ok {
		return types.E("deluser", name, types.ErrNotFound)
	}
	delete(c.users, name)
	for _, g := range c.groups {
		g.Members = removeString(g.Members, name)
	}
	c.log(journalEntry{Op: "deluser", Name: name})
	return nil
}

// AddGroup creates an empty group.
func (c *Catalog) AddGroup(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !types.ValidName(name) {
		return types.E("addgroup", name, types.ErrInvalid)
	}
	if _, ok := c.groups[name]; ok {
		return types.E("addgroup", name, types.ErrExists)
	}
	c.groups[name] = &types.Group{Name: name}
	c.log(journalEntry{Op: "addgroup", Group: name})
	return nil
}

// AddToGroup adds a registered user to a group.
func (c *Catalog) AddToGroup(group, user string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return types.E("addtogroup", group, types.ErrNotFound)
	}
	if _, ok := c.users[user]; !ok {
		return types.E("addtogroup", user, types.ErrNotFound)
	}
	for _, m := range g.Members {
		if m == user {
			return nil
		}
	}
	g.Members = append(g.Members, user)
	c.log(journalEntry{Op: "addtogroup", Group: group, Member: user})
	return nil
}

// RemoveFromGroup drops a user from a group.
func (c *Catalog) RemoveFromGroup(group, user string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return types.E("rmfromgroup", group, types.ErrNotFound)
	}
	g.Members = removeString(g.Members, user)
	c.log(journalEntry{Op: "rmfromgroup", Group: group, Member: user})
	return nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if !types.ValidName(r.Name) {
		return types.E("addresource", r.Name, types.ErrInvalid)
	}
	if _, ok := c.resources[r.Name]; ok {
		return types.E("addresource", r.Name, types.ErrExists)
	}
	if r.Kind == types.ResourceLogical {
		if len(r.Members) < 2 {
			return types.E("addresource", r.Name, types.ErrInvalid)
		}
		if k, _, err := types.ParseReplPolicy(r.ReplPolicy); err != nil {
			return err
		} else if k > len(r.Members) {
			return types.E("addresource", r.ReplPolicy, types.ErrInvalid)
		}
		for _, m := range r.Members {
			mr, ok := c.resources[m]
			if !ok {
				return types.E("addresource", m, types.ErrNotFound)
			}
			if mr.Kind != types.ResourcePhysical {
				return types.E("addresource", m, types.ErrInvalid)
			}
		}
	}
	if r.CreatedAt.IsZero() {
		r.CreatedAt = c.now()
	}
	r.Online = true
	c.resources[r.Name] = &r
	c.log(journalEntry{Op: "addresource", Resource: &r})
	return nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.resources[name]
	if !ok {
		return types.E("setonline", name, types.ErrNotFound)
	}
	r.Online = online
	c.log(journalEntry{Op: "setonline", Name: name, Online: online})
	return nil
}

// SetResourcePolicy changes the replication policy of a logical
// resource ("sync", "" or "async:k" with k <= len(members)).
func (c *Catalog) SetResourcePolicy(name, policy string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.resources[name]
	if !ok {
		return types.E("setpolicy", name, types.ErrNotFound)
	}
	if r.Kind != types.ResourceLogical {
		return types.E("setpolicy", name, types.ErrInvalid)
	}
	k, _, err := types.ParseReplPolicy(policy)
	if err != nil {
		return err
	}
	if k > len(r.Members) {
		return types.E("setpolicy", policy, types.ErrInvalid)
	}
	r.ReplPolicy = policy
	c.log(journalEntry{Op: "replpolicy", Name: name, Value: policy})
	return nil
}

// ResolvePhysical expands a resource name to the ordered list of
// physical resources writes must reach: itself for a physical resource,
// every member for a logical one.
func (c *Catalog) ResolvePhysical(name string) ([]types.Resource, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.resources[name]
	if !ok {
		return nil, types.E("resolve", name, types.ErrNotFound)
	}
	if r.Kind == types.ResourcePhysical {
		return []types.Resource{*r}, nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.resources[name]; !ok {
		return types.E("delresource", name, types.ErrNotFound)
	}
	for _, r := range c.resources {
		for _, m := range r.Members {
			if m == name {
				return types.E("delresource", name, types.ErrInvalid)
			}
		}
	}
	for _, o := range c.objects {
		for _, rep := range o.Replicas {
			if rep.Resource == name {
				return types.E("delresource", name, types.ErrInvalid)
			}
		}
	}
	delete(c.resources, name)
	c.log(journalEntry{Op: "delresource", Name: name})
	return nil
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
