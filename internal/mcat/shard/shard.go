// Package shard partitions the MCAT across N catalog shards and
// replicates each shard from its leader's journal.
//
// The paper's MCAT is one logical catalog; at scale it becomes the
// bottleneck ("the MCAT server may become a chokepoint"). This package
// keeps the single-catalog programming model — brokers talk to one
// Catalog interface — while the Router behind it scatters state over N
// independent mcat.Catalog instances:
//
//   - The namespace is partitioned by collection prefix: the routing
//     key of a path is its first two components (KeyOf), hashed onto a
//     consistent ring (Map). Everything under /zone/project therefore
//     lives on one shard, so scoped queries and ancestor walks stay
//     local.
//   - "Spine" state — the root and depth-1 collections, users, groups,
//     resources, and ACL/structural attributes on spine paths — is
//     broadcast to every shard, so each shard can evaluate permissions
//     and mandatory-metadata rules without cross-shard calls.
//   - Queries scoped at depth >= 2 route to the single home shard;
//     wider queries scatter-gather with a per-shard deadline and report
//     which shards, if any, could not answer (partial results).
//   - Each shard replicates leader -> follower: a follower's position
//     is a generation and a byte offset in its leader's journal, and a
//     pull reads the lines from there. A follower whose position is not
//     in the journal (its first pull, or one from before a compaction
//     emptied the journal under a new generation) catches up from a
//     snapshot. Followers reject mutations, naming their leader.
//
// With one shard (the default) every Router method is a direct
// passthrough to the single catalog: behavior, journal bytes and
// on-disk layout are identical to the monolithic catalog.
package shard

import (
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Catalog is the metadata-catalog contract brokers and servers program
// against: the full MCAT surface of the paper — namespace, users,
// resources, permissions, the five metadata classes, annotations,
// queries and the repair queue. Both the monolithic *mcat.Catalog and
// the shard Router satisfy it.
type Catalog interface {
	// Users and groups.
	AddUser(u types.User) error
	GetUser(name string) (types.User, error)
	Users() []types.User
	DeleteUser(name string) error
	AddGroup(name string) error
	AddToGroup(group, user string) error
	RemoveFromGroup(group, user string) error
	GroupsOf(user string) map[string]bool
	Groups() []types.Group
	IsAdmin(name string) bool

	// Storage resources.
	AddResource(r types.Resource) error
	GetResource(name string) (types.Resource, error)
	Resources() []types.Resource
	SetResourceOnline(name string, online bool) error
	SetResourcePolicy(name, policy string) error
	ResolvePhysical(name string) ([]types.Resource, error)
	DeleteResource(name string) error

	// Namespace: collections and data objects.
	MkColl(path, owner string) error
	MkCollAll(path, owner string) error
	GetColl(path string) (types.Collection, error)
	ResolveColl(path string) (string, error)
	LinkColl(target, linkPath, owner string) error
	ListColl(path string) ([]types.Stat, error)
	DeleteColl(path string) error
	CollExists(path string) bool
	SubColls(root string) []string
	RegisterObject(o *types.DataObject) (types.ObjectID, error)
	NewObjectID(path string) (types.ObjectID, error)
	Ingest(o *types.DataObject, meta []types.AVU) error
	GetObject(path string) (types.DataObject, error)
	ResolveObject(path string) (types.DataObject, error)
	GetObjectByID(id types.ObjectID) (types.DataObject, error)
	UpdateObject(path string, fn func(*types.DataObject) error) error
	DeleteObject(path string) error
	MoveObject(oldPath, newColl, newName string) error
	MoveColl(oldPath, newPath string) error
	ObjectsIn(coll string) []types.DataObject
	SubtreeObjects(root string) []string
	LinksTo(target string) []string
	ObjectsInContainer(containerPath string) []string

	// Permissions.
	SetACL(path, grantee string, level acl.Level) error
	GetACL(path string) (acl.List, error)
	EffectiveLevel(path, user string) acl.Level
	SetResourceACL(resource, grantee string, level acl.Level) error
	ResourceLevel(resource, user string) acl.Level

	// Descriptive, structural and file-based metadata; annotations.
	AddMeta(path string, class types.MetaClass, avu types.AVU) error
	GetMeta(path string, class types.MetaClass) ([]types.AVU, error)
	AllMeta(path string) (map[types.MetaClass][]types.AVU, error)
	UpdateMeta(path string, class types.MetaClass, name, oldValue string, newAVU types.AVU) (int, error)
	DeleteMeta(path string, class types.MetaClass, name, value string) (int, error)
	CopyMeta(from, to string) error
	AttachFileMeta(path, metaFile string) error
	FileMeta(path string) []string
	SetStructural(coll string, attr types.StructuralAttr) error
	DeleteStructural(coll, name string) error
	Structural(coll string) []types.StructuralAttr
	CheckMandatory(coll string, provided []types.AVU) []string
	AddAnnotation(path string, a types.Annotation) error
	Annotations(path string) ([]types.Annotation, error)
	DeleteAnnotations(path, author string) (int, error)

	// Metadata query.
	RunQuery(q mcat.Query) ([]mcat.Hit, error)
	QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error)
	QueryAttrNames(scope string) []string

	// Deferred-repair queue.
	EnqueueRepair(t types.RepairTask) bool
	CompleteRepair(key string) bool
	NoteRepairAttempt(key string) int
	PendingRepairs() []types.RepairTask
	RepairBacklog() (int, time.Time)

	// Accounting.
	JournalErr() error
	Stats() mcat.Stats
	SetClock(now func() time.Time)
}

var (
	_ Catalog = (*mcat.Catalog)(nil)
	_ Catalog = (*Router)(nil)
)
