// Package types defines the shared domain vocabulary of the SRB data
// grid: data objects and their replicas, collections, storage
// resources, users, permissions, metadata, annotations, audit records,
// locks, pins and versions.
//
// The catalog (internal/mcat), the broker (internal/core), the wire
// protocol and the web interface all exchange these values, so they are
// deliberately plain data: no behaviour beyond validation, formatting
// and comparison lives here.
package types

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"gosrb/internal/traceid"
)

// ObjectID identifies a data object uniquely within one MCAT.
type ObjectID int64

// ReplicaNumber distinguishes the physical copies of one data object.
// Numbers are assigned densely starting at 0 and are never reused
// within an object's lifetime.
type ReplicaNumber int

// ObjectKind classifies a data object by how its bytes are produced.
//
// The paper (§5, "Data Movement Operations") distinguishes objects
// whose bytes SRB stores and controls (ingested files) from five kinds
// of registered objects where SRB keeps only a pointer: files outside
// SRB control, shadow directories, SQL queries, URLs and method
// objects (proxy commands / proxy functions).
type ObjectKind int

const (
	// KindFile is a regular object whose replicas SRB stores and controls.
	KindFile ObjectKind = iota
	// KindRegisteredFile is a file registered in place: SRB keeps a
	// pointer to an existing physical path it does not control.
	KindRegisteredFile
	// KindShadowDir is a registered directory: the cone of files under
	// the physical directory is visible read-only through this object.
	KindShadowDir
	// KindSQL is a registered SQL query, executed at retrieval time
	// against a database resource.
	KindSQL
	// KindURL is a registered URL whose contents are fetched at
	// retrieval time and never stored.
	KindURL
	// KindMethod is a registered method object: a remote proxy command
	// or an in-server proxy function executed at access time.
	KindMethod
	// KindLink is a soft link to another object; access control of the
	// original is inherited, and chains of links collapse to the parent.
	KindLink
)

var objectKindNames = [...]string{
	KindFile:           "file",
	KindRegisteredFile: "registered-file",
	KindShadowDir:      "shadow-directory",
	KindSQL:            "sql",
	KindURL:            "url",
	KindMethod:         "method",
	KindLink:           "link",
}

// String returns the lower-case name used on the wire and in listings.
func (k ObjectKind) String() string {
	if k < 0 || int(k) >= len(objectKindNames) {
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
	return objectKindNames[k]
}

// Registered reports whether the kind is one of the five registered
// (pointer-only) kinds, for which SRB does not control the bytes.
func (k ObjectKind) Registered() bool {
	switch k {
	case KindRegisteredFile, KindShadowDir, KindSQL, KindURL, KindMethod:
		return true
	}
	return false
}

// ReplicaStatus tracks the consistency of one physical copy.
type ReplicaStatus int

const (
	// ReplicaClean is current with respect to the object's latest write.
	ReplicaClean ReplicaStatus = iota
	// ReplicaDirty is stale: a sibling replica has newer bytes.
	ReplicaDirty
	// ReplicaOffline marks the replica's resource as unavailable; reads
	// fail over to a clean sibling.
	ReplicaOffline
)

var replicaStatusNames = [...]string{
	ReplicaClean:   "clean",
	ReplicaDirty:   "dirty",
	ReplicaOffline: "offline",
}

func (s ReplicaStatus) String() string {
	if s < 0 || int(s) >= len(replicaStatusNames) {
		return fmt.Sprintf("ReplicaStatus(%d)", int(s))
	}
	return replicaStatusNames[s]
}

// Replica describes one physical copy of a data object.
type Replica struct {
	Number       ReplicaNumber
	Resource     string // physical resource holding the bytes
	PhysicalPath string // driver-specific path within the resource
	Status       ReplicaStatus
	Size         int64
	Checksum     string // hex SHA-256 of the contents; empty if unknown
	CreatedAt    time.Time
	ModifiedAt   time.Time
	// Registered is true when the replica points at bytes SRB does not
	// control (registered objects); size and checksum may drift.
	Registered bool
}

// LockKind is the paper's two lock flavours.
type LockKind int

const (
	// LockNone means the object is unlocked.
	LockNone LockKind = iota
	// LockShared blocks writes by users other than the holder; reads of
	// data and metadata remain allowed.
	LockShared
	// LockExclusive allows no interactions with the object by other users.
	LockExclusive
)

var lockKindNames = [...]string{LockNone: "none", LockShared: "shared", LockExclusive: "exclusive"}

func (k LockKind) String() string {
	if k < 0 || int(k) >= len(lockKindNames) {
		return fmt.Sprintf("LockKind(%d)", int(k))
	}
	return lockKindNames[k]
}

// Lock is a lease-style lock on an object. A zero Lock means unlocked.
type Lock struct {
	Kind    LockKind
	Holder  string // user name
	Expires time.Time
}

// Active reports whether the lock still restricts access at time now.
func (l Lock) Active(now time.Time) bool {
	return l.Kind != LockNone && now.Before(l.Expires)
}

// Pin prevents a replica from being purged from a cache resource until
// it expires or is explicitly removed.
type Pin struct {
	Resource string
	Holder   string
	Expires  time.Time
}

// Active reports whether the pin still protects the replica at now.
func (p Pin) Active(now time.Time) bool { return now.Before(p.Expires) }

// Version is a retained earlier state of an object created by the
// checkout/checkin cycle. Versions are numbered from 1 upward.
type Version struct {
	Number    int
	Resource  string
	Path      string // physical path of the preserved copy
	Size      int64
	Checksum  string
	CreatedAt time.Time
	Comment   string
}

// SQLSpec is the payload of a KindSQL object: the (possibly partial)
// SELECT text, the database resource it runs against, and the template
// used to render results.
type SQLSpec struct {
	Resource string // database resource name
	Query    string // full or partial SELECT; partial queries are completed at retrieval
	Partial  bool
	Template string // "HTMLREL", "HTMLNEST", "XMLREL", or logical path of a T-language style sheet
}

// MethodSpec is the payload of a KindMethod object.
type MethodSpec struct {
	// Proxy is true for remote proxy commands (executables registered in
	// a server's bin directory), false for in-server proxy functions.
	Proxy bool
	// Server is the SRB server that hosts the executable or function.
	Server string
	// Name is the command or function name.
	Name string
	// Args are default command-line parameters; callers may append more
	// at invocation.
	Args []string
}

// AltSpec is one "registered replicate" of a registered object (paper
// §5): another directory, URL or SQL query declared semantically equal
// to the primary. SRB does not check the equivalence; access falls back
// through alternates in registration order.
type AltSpec struct {
	Kind ObjectKind
	// URL for KindURL alternates.
	URL string
	// SQL for KindSQL alternates.
	SQL *SQLSpec
	// Resource/PhysicalPath for registered file or directory alternates.
	Resource     string
	PhysicalPath string
}

// DataObject is a logical entry in the SRB name space. The replicas
// carry the physical locations; all other fields are catalog state.
type DataObject struct {
	ID         ObjectID
	Name       string // base name within the collection
	Collection string // logical path of the parent collection
	Kind       ObjectKind
	DataType   string // e.g. "generic", "fits image", "html", "ascii text"
	Owner      string
	Size       int64 // size of the current clean contents
	Checksum   string
	CreatedAt  time.Time
	ModifiedAt time.Time

	Replicas []Replica

	// Container is the logical path of the container the object lives
	// in, or empty. A container specification at ingestion overrides a
	// resource specification (paper §5).
	Container string
	// ContainerOffset/ContainerSize locate the bytes inside the container.
	ContainerOffset int64
	ContainerSize   int64

	// LinkTarget is the logical path of the linked-to object for KindLink.
	LinkTarget string
	// URL is the target for KindURL.
	URL string
	// SQL is the payload for KindSQL.
	SQL *SQLSpec
	// Method is the payload for KindMethod.
	Method *MethodSpec

	// Alternates are "registered replicates" of registered objects.
	Alternates []AltSpec

	Lock     Lock
	Pins     []Pin
	Versions []Version
	// CheckedOutBy names the user holding the object checked out, or "".
	CheckedOutBy string
}

// Path returns the full logical path of the object, Join(Collection,
// Name). A stored row's Collection is absolute and clean and its Name
// valid, so its path is the two around one slash, built in one
// allocation; any other row is joined and cleaned.
func (o *DataObject) Path() string {
	if !o.stored() {
		return Join(o.Collection, o.Name)
	}
	if o.Collection == "/" {
		return "/" + o.Name
	}
	return o.Collection + "/" + o.Name
}

// PathIs reports whether p is the object's path (p == o.Path()), without
// building the path of a stored row.
func (o *DataObject) PathIs(p string) bool {
	switch {
	case !o.stored():
		return p == Join(o.Collection, o.Name)
	case o.Collection == "/":
		return len(p) == 1+len(o.Name) && p[0] == '/' && p[1:] == o.Name
	}
	n := len(o.Collection)
	return len(p) == n+1+len(o.Name) && p[:n] == o.Collection && p[n] == '/' && p[n+1:] == o.Name
}

// stored reports whether the row is shaped as a stored row is: a valid
// name in an absolute, clean collection.
func (o *DataObject) stored() bool {
	return ValidName(o.Name) && strings.HasPrefix(o.Collection, "/") && CleanPath(o.Collection) == o.Collection
}

// CleanReplica returns the first clean replica, preferring the given
// resource if it holds one, and reports whether any was found.
func (o *DataObject) CleanReplica(preferResource string) (Replica, bool) {
	if preferResource != "" {
		for _, r := range o.Replicas {
			if r.Resource == preferResource && r.Status == ReplicaClean {
				return r, true
			}
		}
	}
	for _, r := range o.Replicas {
		if r.Status == ReplicaClean {
			return r, true
		}
	}
	return Replica{}, false
}

// ReplicaByNumber returns the replica with the given number.
func (o *DataObject) ReplicaByNumber(n ReplicaNumber) (Replica, bool) {
	for _, r := range o.Replicas {
		if r.Number == n {
			return r, true
		}
	}
	return Replica{}, false
}

// Clone returns a copy of o with replicas, pins, versions, alternates
// and SQL and method payloads of its own, each copied slice clipped so
// that appending to it never writes into an array another row holds. A
// committed catalog row is shared and read-only; a caller that must
// change one changes a Clone.
func (o *DataObject) Clone() *DataObject {
	cp := *o
	cp.Replicas = cloneSlice(o.Replicas)
	cp.Pins = cloneSlice(o.Pins)
	cp.Versions = cloneSlice(o.Versions)
	cp.Alternates = cloneSlice(o.Alternates)
	if o.SQL != nil {
		s := *o.SQL
		cp.SQL = &s
	}
	if o.Method != nil {
		m := *o.Method
		m.Args = cloneSlice(o.Method.Args)
		cp.Method = &m
	}
	return &cp
}

// cloneSlice copies s into an array of its own, clipped to its length;
// an empty s comes back nil.
func cloneSlice[T any](s []T) []T {
	return slices.Clip(append([]T(nil), s...))
}

// Collection is a node in the logical hierarchy. Collections carry
// descriptive metadata (triplets about the collection itself) and
// structural metadata (requirements imposed on objects ingested into
// the collection); see Metadata and StructuralAttr.
type Collection struct {
	Path      string
	Owner     string
	CreatedAt time.Time
	// LinkTarget, when non-empty, makes this entry a linked
	// sub-collection pointing at another collection's path.
	LinkTarget string
}

// Name returns the base name of the collection.
func (c *Collection) Name() string { return Base(c.Path) }

// ResourceKind separates single storage systems from logical groupings.
type ResourceKind int

const (
	// ResourcePhysical is one storage system managed by one driver.
	ResourcePhysical ResourceKind = iota
	// ResourceLogical ties together two or more physical resources;
	// storing a file into it replicates synchronously into every member.
	ResourceLogical
)

func (k ResourceKind) String() string {
	switch k {
	case ResourcePhysical:
		return "physical"
	case ResourceLogical:
		return "logical"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// ResourceClass hints at the latency/persistence profile of a physical
// resource; replica selection and cache management consult it.
type ResourceClass int

const (
	// ClassCache is low-latency, purgeable storage (memory, local disk).
	ClassCache ResourceClass = iota
	// ClassFileSystem is an ordinary file system.
	ClassFileSystem
	// ClassArchive is a high-latency archival system (tape library).
	ClassArchive
	// ClassDatabase is a database resource holding LOBs and tables.
	ClassDatabase
)

var resourceClassNames = [...]string{
	ClassCache:      "cache",
	ClassFileSystem: "filesystem",
	ClassArchive:    "archive",
	ClassDatabase:   "database",
}

func (c ResourceClass) String() string {
	if c < 0 || int(c) >= len(resourceClassNames) {
		return fmt.Sprintf("ResourceClass(%d)", int(c))
	}
	return resourceClassNames[c]
}

// Resource describes a storage resource registered in the catalog.
type Resource struct {
	Name   string
	Kind   ResourceKind
	Class  ResourceClass
	Driver string // driver type: "memfs", "posixfs", "archivefs", "dbfs", "urlfs"
	// Server names the SRB server that owns (directly mounts) this
	// resource; requests from other servers federate to it.
	Server string
	// Members lists the physical member resources of a logical resource,
	// in replica-creation order.
	Members []string
	// Online is false while the resource is unavailable; reads fail over.
	Online bool
	// ReplPolicy is the replication policy of a logical resource:
	// "" or "sync" writes every member synchronously; "async:k" lands k
	// replicas on the write path and queues the remaining fan-out as
	// background repair tasks. Ignored for physical resources.
	ReplPolicy string `json:",omitempty"`
	// CreatedAt records registration time.
	CreatedAt time.Time
}

// ParseReplPolicy validates a replication policy string and returns the
// synchronous replica count k for "async:k" (async=true) or k=0 for
// the synchronous default ("" or "sync", async=false).
func ParseReplPolicy(p string) (k int, async bool, err error) {
	switch {
	case p == "" || p == "sync":
		return 0, false, nil
	case strings.HasPrefix(p, "async:"):
		n, convErr := strconv.Atoi(strings.TrimPrefix(p, "async:"))
		if convErr != nil || n < 1 {
			return 0, false, E("replpolicy", p, ErrInvalid)
		}
		return n, true, nil
	default:
		return 0, false, E("replpolicy", p, ErrInvalid)
	}
}

// RepairTask is one unit of background maintenance work: bring the
// replica of Path on Resource back in line with the catalog (write the
// missing bytes of an async fan-out, or rewrite a divergent replica
// found by the scrubber). Tasks are deduplicated by Key and persisted
// through the MCAT journal so the queue survives a daemon restart.
type RepairTask struct {
	// Key deduplicates the queue: Path + "|" + Resource.
	Key      string
	Path     string
	Resource string
	// Kind is "replicate" (async fan-out completion) or "repair"
	// (scrub-detected divergence).
	Kind string
	// Reason records what enqueued the task, for operators.
	Reason string `json:",omitempty"`
	// Enqueued is when the task first entered the queue.
	Enqueued time.Time
	// Attempts counts executions so far (in-memory progress; persisted
	// attempts restart at the journaled value after a crash).
	Attempts int `json:",omitempty"`
}

// RepairKey builds the canonical dedup key for a (path, resource) pair.
func RepairKey(path, resource string) string { return CleanPath(path) + "|" + resource }

// ScrubReport summarises one anti-entropy pass: how many objects were
// examined, how many replicas were re-hashed, what diverged and what
// was done about it.
type ScrubReport struct {
	// Objects is the number of file objects examined.
	Objects int
	// Scanned is the number of replicas whose bytes were re-hashed.
	Scanned int
	// Corrupt is the number of replicas whose bytes diverged from the
	// catalog checksum (or could not be read) and were marked dirty.
	Corrupt int
	// Repaired is the number of replicas rewritten clean from a
	// verified source during this pass.
	Repaired int
	// Replicated is the number of missing replicas recreated for
	// under-replicated objects.
	Replicated int
	// Enqueued is the number of repair tasks deferred to the queue
	// (target offline, breaker open, write failed).
	Enqueued int
	// Skipped is the number of replicas not examined (offline resource,
	// open breaker, unmounted driver, registered bytes).
	Skipped int
}

// Add accumulates another report into r.
func (r *ScrubReport) Add(o ScrubReport) {
	r.Objects += o.Objects
	r.Scanned += o.Scanned
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
	r.Replicated += o.Replicated
	r.Enqueued += o.Enqueued
	r.Skipped += o.Skipped
}

// ReplicaVerdict is one replica's result from an on-demand checksum
// verification (`srb checksum`): the catalog's view of the replica and
// whether its stored bytes actually hash to the catalog checksum.
type ReplicaVerdict struct {
	Number   int
	Resource string
	// Status is the catalog replica status ("clean", "dirty", "offline").
	Status string
	// Verdict is the byte-level result: "ok", "corrupt", "unreadable",
	// "offline" (resource unavailable) or "unchecked" (registered bytes).
	Verdict string
	Detail  string `json:",omitempty"`
}

// User is a registered SRB user within a domain.
type User struct {
	Name      string
	Domain    string // administrative domain, e.g. "sdsc", "caltech"
	CreatedAt time.Time
	// Admin users may register resources, users and proxy commands.
	Admin bool
}

// Qualified returns the user's fully qualified name, name@domain.
func (u User) Qualified() string { return u.Name + "@" + u.Domain }

// Group is a named set of users used in access control.
type Group struct {
	Name    string
	Members []string // user names
}

// AVU is one metadata triplet: attribute name, value and units.
// The paper: "metadata ... are made of name, value and units triplets".
type AVU struct {
	Name  string
	Value string
	Units string
}

// MetaClass is the paper's five metadata classes (§5, Metadata
// Operations).
type MetaClass int

const (
	// MetaSystem is created and maintained by SRB itself (size, owner,
	// timestamps, replica info); viewable and queryable, not writable.
	MetaSystem MetaClass = iota
	// MetaUser is free-form user-defined triplets.
	MetaUser
	// MetaType is type-oriented (domain-oriented) metadata: predefined
	// element sets such as Dublin Core, associated via data type.
	MetaType
	// MetaFile is file-based metadata: another SRB object carrying
	// triplets for this object; view-only, not queryable.
	MetaFile
	// MetaAnnotation is annotations and commentary: free-form notes,
	// ratings, errata; writable by any user with read permission.
	MetaAnnotation
)

var metaClassNames = [...]string{
	MetaSystem:     "system",
	MetaUser:       "user",
	MetaType:       "type",
	MetaFile:       "file",
	MetaAnnotation: "annotation",
}

func (c MetaClass) String() string {
	if c < 0 || int(c) >= len(metaClassNames) {
		return fmt.Sprintf("MetaClass(%d)", int(c))
	}
	return metaClassNames[c]
}

// StructuralAttr is structural metadata attached to a collection: a
// requirement or suggestion for objects ingested into it, with optional
// default value(s) and a mandatory flag (paper §5).
type StructuralAttr struct {
	Name string
	// Defaults holds zero defaults (empty), one default, or a reserved
	// vocabulary that appears as a drop-down list in MySRB.
	Defaults []string
	// Comment explains the attribute and its requirements to ingestors.
	Comment string
	// Mandatory requires ingestors to provide a value.
	Mandatory bool
	Units     string
}

// Annotation is free-form commentary on an object or collection. Any
// user with read permission may add one.
type Annotation struct {
	Author string
	// Kind classifies the annotation: "comment", "rating", "errata",
	// "question", "answer", "memo", ...
	Kind string
	// Location optionally anchors the annotation within the object.
	Location  string
	Text      string
	CreatedAt time.Time
}

// AuditRecord is one entry in the audit trail.
type AuditRecord struct {
	Time   time.Time
	User   string
	Op     string // operation name, e.g. "get", "ingest", "delete-replica"
	Target string // logical path or resource/user name acted upon
	Detail string
	OK     bool
	// Trace is the request trace ID that caused this record, when the
	// operation ran under one — the join key between the audit trail
	// and the span-tree trace/usage accounting streams.
	Trace traceid.ID `json:",omitempty"`
}

// Session is an authenticated session key with a bounded lifetime.
// MySRB stores the key as an in-memory cookie; the paper sets the
// maximum time limit at 60 minutes.
type Session struct {
	Key     string
	User    string
	Created time.Time
	Expires time.Time
}

// Valid reports whether the session may still be used at time now.
func (s Session) Valid(now time.Time) bool { return now.Before(s.Expires) }

// Stat is a lightweight listing entry for collections and objects.
type Stat struct {
	Path       string
	IsCollect  bool
	Kind       ObjectKind
	DataType   string
	Owner      string
	Size       int64
	ModifiedAt time.Time
	Replicas   int
	Container  string
}
