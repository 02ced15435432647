package wire

import (
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// Op names understood by the server. Each has one row in ops.go (retry
// safety, inbound stream, gate) and one handler in internal/server.
const (
	OpMkdir         = "mkdir"
	OpRmColl        = "rmcoll"
	OpList          = "list"
	OpStat          = "stat"
	OpIngest        = "ingest"
	OpReingest      = "reingest"
	OpGet           = "get"
	OpReadRange     = "readrange"
	OpReplicate     = "replicate"
	OpDelete        = "delete"
	OpDeleteReplica = "rmreplica"
	OpMove          = "move"
	OpCopy          = "copy"
	OpLink          = "link"
	OpAddMeta       = "addmeta"
	OpGetMeta       = "getmeta"
	OpAnnotate      = "annotate"
	OpAnnotations   = "annotations"
	OpQuery         = "query"
	OpQueryAttrs    = "queryattrs"
	OpChmod         = "chmod"
	OpLock          = "lock"
	OpUnlock        = "unlock"
	OpPin           = "pin"
	OpUnpin         = "unpin"
	OpCheckout      = "checkout"
	OpCheckin       = "checkin"
	OpRegisterURL   = "registerurl"
	OpRegisterSQL   = "registersql"
	OpExecSQL       = "execsql"
	OpInvoke        = "invoke"
	OpMkContainer   = "mkcontainer"
	OpSyncContainer = "synccontainer"
	OpExtract       = "extract"
	OpGetObject     = "getobject"
	OpServerStats   = "serverstats"
	// OpIngestReplica is the server-to-server replication step: the
	// owning server stores streamed bytes as a new replica of an
	// existing object.
	OpIngestReplica = "ingestreplica"
	// OpIssueTicket mints a delegated-access ticket for a path.
	OpIssueTicket = "issueticket"
	// OpAudit queries the audit trail (administrators only).
	OpAudit = "audit"
	// OpShadowList lists inside a registered (shadow) directory.
	OpShadowList = "shadowlist"
	// OpShadowOpen reads a file inside a registered directory's cone.
	OpShadowOpen = "shadowopen"
	// OpAddUser registers a user account (administrators only).
	OpAddUser = "adduser"
	// OpResources lists the registered storage resources.
	OpResources = "resources"
	// OpOpStats returns the server's telemetry snapshot: per-op
	// counts/errors/latency, per-driver byte totals, replica fan-out
	// counters, audit drops and recent trace records.
	OpOpStats = "opstats"
	// OpTrace fetches every retained span of one trace ID. The first
	// server asked also polls its zone peers, so the reply reassembles
	// the full federated span tree.
	OpTrace = "trace"
	// OpUsage returns the per-user/collection usage accounting table.
	OpUsage = "usage"
	// OpRepairStatus reports the background repair engine's state:
	// queue backlog, worker health and per-job run counts.
	OpRepairStatus = "repairstatus"
	// OpScrub runs the anti-entropy scrubber over one object or (admin
	// only) a collection subtree, repairing divergence it finds.
	OpScrub = "scrub"
	// OpChecksum verifies every replica of one object against the
	// catalog checksum without repairing anything.
	OpChecksum = "checksum"
	// OpGridStat reports windowed rates/quantiles from the rollup
	// ring. The first server asked also fans out to its zone peers
	// (unless LocalOnly) and merges the answers into one grid
	// snapshot, flagging dead peers unreachable rather than failing.
	OpGridStat = "gridstat"
	// OpAlerts reports the server's SLO rule standings and the bounded
	// log of fire/resolve transitions.
	OpAlerts = "alerts"
	// OpIncidents lists the server's captured incident bundles (flight
	// recorder index).
	OpIncidents = "incidents"
	// OpIncidentGet fetches one incident bundle: meta plus every file.
	OpIncidentGet = "incidentget"
	// OpIncidentCapture triggers an on-demand incident capture. Not
	// idempotent: each call writes a bundle (or burns rate-limit gap).
	OpIncidentCapture = "incidentcapture"
	// OpPeers reports the server's peer transfer observatory: per-peer
	// and per-resource EWMA latency/bandwidth and success history.
	OpPeers = "peers"
	// OpBulkPut ingests many small objects in one round trip: a
	// BulkPutArgs manifest followed by one data stream holding the
	// items' bytes concatenated in manifest order. Items succeed or
	// fail independently; the reply reports per-item status.
	OpBulkPut = "bulkput"
	// OpMultiGet fetches many objects in one round trip: per-item
	// status in request order, then one data stream holding the
	// successful items' bytes concatenated in that order.
	OpMultiGet = "multiget"
	// OpBulkStat stats many paths in one round trip, preserving
	// request order in the reply.
	OpBulkStat = "bulkstat"
	// OpShards reports the sharded catalog's per-shard status: role,
	// replication lag, staleness and entry counts (`srb shards`).
	OpShards = "shards"
	// OpShardPull serves one shard's replication stream to a follower
	// daemon: journal entries after a sequence number, or a full
	// snapshot when the follower is too far behind. Peer/admin only.
	OpShardPull = "shardpull"
	// OpHeat reports the heat observatory: top-K hot keys and objects,
	// per-shard status with replication lag, and the per-shard heat join
	// with its imbalance (`srb heat`).
	OpHeat = "heat"
)

// PathArgs addresses one logical path.
type PathArgs struct {
	Path string
}

// IngestArgs precedes a bulk data stream carrying the contents.
type IngestArgs struct {
	Path      string
	Resource  string
	Container string
	DataType  string
	Meta      []types.AVU
}

// RangeArgs reads length bytes at offset (the parallel-transfer
// primitive; length < 0 means "to the end").
type RangeArgs struct {
	Path   string
	Offset int64
	Length int64
}

// SizeReply reports a transfer size before data frames.
type SizeReply struct {
	Size int64
}

// MoveArgs renames src to dst.
type MoveArgs struct {
	Src, Dst string
}

// CopyArgs copies src to dst, optionally onto a specific resource.
type CopyArgs struct {
	Src, Dst, Resource string
}

// LinkArgs links target at linkPath.
type LinkArgs struct {
	Target, LinkPath string
}

// ReplicateArgs replicates path onto resource.
type ReplicateArgs struct {
	Path, Resource string
}

// ReplicaArgs addresses one replica.
type ReplicaArgs struct {
	Path   string
	Number int
}

// MetaArgs attaches one triplet of a class.
type MetaArgs struct {
	Path  string
	Class int
	AVU   types.AVU
}

// GetMetaArgs fetches one class of metadata.
type GetMetaArgs struct {
	Path  string
	Class int
}

// AnnotateArgs adds commentary.
type AnnotateArgs struct {
	Path string
	Ann  types.Annotation
}

// QueryArgs wraps a catalog query.
type QueryArgs struct {
	Q mcat.Query
}

// QueryReply carries the hits plus, when the catalog is sharded, the
// names of shards that missed the scatter-gather deadline or were
// stale followers — so a partial answer is visibly partial rather than
// silently short.
type QueryReply struct {
	Hits    []mcat.Hit
	Partial []string `json:",omitempty"`
}

// ChmodArgs sets a grant.
type ChmodArgs struct {
	Path    string
	Grantee string
	Level   string
}

// LockArgs places a lock; TTLSeconds <= 0 uses the default.
type LockArgs struct {
	Path       string
	Kind       string // "shared" or "exclusive"
	TTLSeconds int64
}

// PinArgs pins a replica on a resource.
type PinArgs struct {
	Path       string
	Resource   string
	TTLSeconds int64
}

// CheckinArgs precedes a data stream with the new contents.
type CheckinArgs struct {
	Path    string
	Comment string
}

// RegisterURLArgs registers a URL object.
type RegisterURLArgs struct {
	Path string
	URL  string
}

// RegisterSQLArgs registers a SQL object.
type RegisterSQLArgs struct {
	Path string
	Spec types.SQLSpec
}

// ExecSQLArgs executes a registered SQL object.
type ExecSQLArgs struct {
	Path   string
	Suffix string
}

// InvokeArgs runs a method object.
type InvokeArgs struct {
	Path string
	Args []string
}

// ContainerArgs creates a container on a resource.
type ContainerArgs struct {
	Path     string
	Resource string
}

// ExtractArgs runs a metadata extraction method.
type ExtractArgs struct {
	Path   string
	Method string
	From   string
}

// CountReply reports an affected count.
type CountReply struct {
	N int
}

// TicketArgs mints a ticket for Path at Level ("read"...), with Uses
// uses (negative = unlimited) expiring after TTLSeconds.
type TicketArgs struct {
	Path       string
	Level      string
	Uses       int
	TTLSeconds int64
}

// TicketReply returns the minted ticket id.
type TicketReply struct {
	ID string
}

// ShadowArgs addresses a path inside a shadow directory object.
type ShadowArgs struct {
	Path string // logical path of the shadow directory object
	Rel  string // relative path within the cone ("." = root)
}

// AddUserArgs registers an account and its password.
type AddUserArgs struct {
	Name     string
	Domain   string
	Password string
	Admin    bool
}

// AuditArgs filters the audit trail; zero fields match everything.
type AuditArgs struct {
	User   string
	Op     string
	Target string
	Trace  string
	Limit  int
}

// StatsReply reports server/catalog size counters.
type StatsReply struct {
	Server      string
	Objects     int
	Collections int
	Resources   int
	Users       int
}

// OpStatsReply carries one server's telemetry snapshot, plus the
// occupancy of its federation connection pool. ClientPool never crosses
// the wire: srb adds its own side's pool after the fetch, so one scrape
// covers both ends of the path.
type OpStatsReply struct {
	Server     string
	Snapshot   obs.Snapshot
	PeerPool   *PoolStats `json:",omitempty"`
	ClientPool *PoolStats `json:",omitempty"`
}

// TraceArgs asks for every retained span of one trace.
type TraceArgs struct {
	ID string
}

// TraceReply carries the collected spans. Server names the responder;
// when the responder fanned out to its peers, Spans is the union of
// every ring that still held records for the trace.
type TraceReply struct {
	Server string
	Spans  []obs.SpanRecord
}

// UsageArgs filters the usage accounting table; zero fields match
// everything.
type UsageArgs struct {
	User       string
	Collection string
}

// UsageReply carries one server's usage accounting rows.
type UsageReply struct {
	Server  string
	Entries []obs.UsageStat
}

// RepairJobStatus is the wire shape of one periodic maintenance job —
// a protocol-level mirror of the engine's job snapshot, so the wire
// layer does not depend on the repair package.
type RepairJobStatus struct {
	Name     string
	Interval time.Duration
	Runs     int64
	Errors   int64
	LastRun  time.Time `json:",omitempty"`
	LastErr  string    `json:",omitempty"`
}

// RepairStatus is the wire shape of the repair engine snapshot.
type RepairStatus struct {
	Running      bool
	Paused       bool
	Wedged       bool
	Workers      int
	WorkersAlive int
	Backlog      int
	OldestAge    time.Duration
	Done         int64
	Failed       int64
	Retries      int64
	Jobs         []RepairJobStatus `json:",omitempty"`
}

// RepairStatusReply carries the repair engine's snapshot.
type RepairStatusReply struct {
	Server string
	// Enabled is false when the daemon runs without a repair engine.
	Enabled bool
	Status  RepairStatus
}

// GridStatArgs selects the trailing window. LocalOnly suppresses the
// zone fan-out (it is set on peer hops, bounding the gather to one
// level, and by `srb top` without -grid).
type GridStatArgs struct {
	WindowSeconds int64
	LocalOnly     bool
}

// GridMember is one zone member's contribution to a grid snapshot.
// Unreachable members keep their slot (with the error) so a partial
// aggregate is visibly partial; Stale flags members whose retained
// history covers less than ~80% of the requested window.
type GridMember struct {
	Server      string
	Unreachable bool   `json:",omitempty"`
	Stale       bool   `json:",omitempty"`
	Err         string `json:",omitempty"`
	Window      obs.WindowStats
}

// GridStatReply is the merged grid view: per-member windows plus the
// cross-server aggregate (quantiles recomputed from merged buckets).
type GridStatReply struct {
	Server        string
	WindowSeconds float64
	Members       []GridMember
	Grid          obs.WindowStats
}

// AlertsReply carries the server's SLO standings and recent alert
// transitions. Enabled is false when the daemon declared no rules.
type AlertsReply struct {
	Server  string
	Enabled bool
	Rules   []obs.SLOStatus `json:",omitempty"`
	Alerts  []obs.Alert     `json:",omitempty"`
}

// IncidentsReply carries the bounded incident index, newest first.
// Enabled is false when the daemon runs without a telemetry dir.
type IncidentsReply struct {
	Server    string
	Enabled   bool
	Incidents []obs.IncidentMeta `json:",omitempty"`
}

// IncidentGetArgs names one bundle by its index ID.
type IncidentGetArgs struct {
	ID string
}

// IncidentGetReply carries one full bundle. Files maps name to raw
// contents (base64 over the wire via encoding/json); profiles are
// binary, the rest is JSON/text.
type IncidentGetReply struct {
	Server string
	Meta   obs.IncidentMeta
	Files  map[string][]byte `json:",omitempty"`
}

// IncidentCaptureArgs triggers an on-demand capture. Reason is the
// operator's note, recorded in the bundle meta.
type IncidentCaptureArgs struct {
	Reason string
}

// IncidentCaptureReply carries the new bundle's index entry.
type IncidentCaptureReply struct {
	Server string
	Meta   obs.IncidentMeta
}

// PeersReply carries the per-peer / per-resource transfer history.
type PeersReply struct {
	Server string
	Peers  []obs.PeerStat `json:",omitempty"`
}

// ScrubReply carries the scrub pass report.
type ScrubReply struct {
	Server string
	Report types.ScrubReport
}

// ChecksumReply carries the per-replica verification verdicts for one
// object.
type ChecksumReply struct {
	Path     string
	Checksum string
	Verdicts []types.ReplicaVerdict
}

// BulkPutItem describes one object inside a bulk ingest. Size is the
// item's byte count within the concatenated data stream that follows
// the manifest — the server slices the stream by these sizes.
type BulkPutItem struct {
	Path      string
	Resource  string
	Container string
	DataType  string
	Meta      []types.AVU `json:",omitempty"`
	Size      int64
}

// BulkPutArgs is the manifest preceding a bulk ingest data stream.
type BulkPutArgs struct {
	Items []BulkPutItem
}

// BulkItemStatus reports one item's outcome inside a batch reply.
// Items fail independently: a bad path cannot tear down its
// batch-mates, and ErrKind round-trips the sentinel for errors.Is.
type BulkItemStatus struct {
	Path    string
	OK      bool
	ErrKind string `json:",omitempty"`
	ErrMsg  string `json:",omitempty"`
}

// Err reconstructs the item's error (nil when OK).
func (s *BulkItemStatus) Err() error {
	if s.OK {
		return nil
	}
	return ErrFromKind(s.ErrKind, s.ErrMsg)
}

// BulkPutReply reports per-item outcomes in manifest order.
type BulkPutReply struct {
	Server  string
	Results []BulkItemStatus
}

// MultiGetArgs fetches many objects in one round trip.
type MultiGetArgs struct {
	Paths []string
}

// MultiGetItem reports one item of a multi-get, in request order. Size
// is the item's byte count within the data stream that follows the
// reply (0 for failed items, which contribute no bytes).
type MultiGetItem struct {
	Path    string
	OK      bool
	Size    int64
	ErrKind string `json:",omitempty"`
	ErrMsg  string `json:",omitempty"`
}

// Err reconstructs the item's error (nil when OK).
func (s *MultiGetItem) Err() error {
	if s.OK {
		return nil
	}
	return ErrFromKind(s.ErrKind, s.ErrMsg)
}

// MultiGetReply precedes the concatenated data stream.
type MultiGetReply struct {
	Server string
	Items  []MultiGetItem
}

// BulkStatArgs stats many paths in one round trip.
type BulkStatArgs struct {
	Paths []string
}

// BulkStatItem reports one stat outcome, in request order.
type BulkStatItem struct {
	Path    string
	OK      bool
	Stat    types.Stat `json:",omitempty"`
	ErrKind string     `json:",omitempty"`
	ErrMsg  string     `json:",omitempty"`
}

// Err reconstructs the item's error (nil when OK).
func (s *BulkStatItem) Err() error {
	if s.OK {
		return nil
	}
	return ErrFromKind(s.ErrKind, s.ErrMsg)
}

// BulkStatReply reports per-path stats in request order.
type BulkStatReply struct {
	Server string
	Items  []BulkStatItem
}

// ShardsReply reports per-shard role, replication position and entry
// counts. A monolithic (unsharded) catalog replies with one leader row.
type ShardsReply struct {
	Server string
	Shards []shard.Status
}

// ShardPullArgs asks the leader daemon for shard Shard's replication
// entries after sequence After (0 = from the beginning).
type ShardPullArgs struct {
	Shard int
	After uint64
}

// ShardPullReply carries either the journal entries (After+1..Seq) or,
// when the follower is behind the leader's retained log, a full
// catalog snapshot positioned at Seq.
type ShardPullReply struct {
	Server   string
	Entries  [][]byte `json:",omitempty"`
	Snapshot []byte   `json:",omitempty"`
	Seq      uint64
}

// HeatReply carries one server's heat observatory: the hot-key and
// hot-object top-K tables and, on a sharded catalog, the per-shard status
// rows and the join of key heat onto shard ownership with its imbalance
// (hottest shard heat over the mean; 1.0 is even).
type HeatReply struct {
	Server    string
	Keys      []obs.HeatStat    `json:",omitempty"`
	Objects   []obs.HeatStat    `json:",omitempty"`
	Shards    []shard.Status    `json:",omitempty"`
	ShardHeat []shard.ShardHeat `json:",omitempty"`
	Imbalance float64           `json:",omitempty"`
}
