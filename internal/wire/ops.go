package wire

import "encoding/json"

// OpGate says who may call an op. The server's dispatcher enforces it
// before the op's arguments are decoded.
type OpGate uint8

const (
	// GateAny admits every authenticated caller; the broker's ACL checks
	// decide what the call may touch.
	GateAny OpGate = iota
	// GateAdmin admits administrators only.
	GateAdmin
	// GatePeerOrAdmin admits zone peers and administrators.
	GatePeerOrAdmin
)

// OpSpec is the static row of one wire op: what a client, a federating
// server and the dispatcher must know about the op without running it.
// Adding an op is one constant in args.go, one row here and one handler
// in internal/server; tests fail on a constant without either.
type OpSpec struct {
	Name string
	// Idempotent marks an op safe to retry: re-executing it cannot change
	// grid state. Mutating ops (ingest, write, delete, move, locks,
	// tickets, ...) must never be retried blindly — a lost response does
	// not prove the mutation was lost.
	Idempotent bool
	// StreamsIn marks an op whose request is followed by an inbound bulk
	// data stream (Data frames ended by DataEnd). The pipelined server
	// must drain the stream before dispatching the next request, so every
	// op whose request precedes data carries the mark.
	StreamsIn bool
	Gate      OpGate
}

// specs is the op table, in the order of the constants in args.go.
var specs = []OpSpec{
	{Name: OpMkdir},
	{Name: OpRmColl},
	{Name: OpList, Idempotent: true},
	{Name: OpStat, Idempotent: true},
	{Name: OpIngest, StreamsIn: true},
	{Name: OpReingest, StreamsIn: true},
	// A get that redeems a ticket decrements its use count; a retry after
	// a transport failure may burn an extra use, which is the accepted
	// cost of delegated reads staying available.
	{Name: OpGet, Idempotent: true},
	{Name: OpReadRange, Idempotent: true},
	{Name: OpReplicate},
	{Name: OpDelete},
	{Name: OpDeleteReplica},
	{Name: OpMove},
	{Name: OpCopy},
	{Name: OpLink},
	{Name: OpAddMeta},
	{Name: OpGetMeta, Idempotent: true},
	{Name: OpAnnotate},
	{Name: OpAnnotations, Idempotent: true},
	{Name: OpQuery, Idempotent: true},
	{Name: OpQueryAttrs, Idempotent: true},
	{Name: OpChmod},
	{Name: OpLock},
	{Name: OpUnlock},
	{Name: OpPin},
	{Name: OpUnpin},
	{Name: OpCheckout},
	{Name: OpCheckin, StreamsIn: true},
	{Name: OpRegisterURL},
	{Name: OpRegisterSQL},
	{Name: OpExecSQL, Idempotent: true},
	{Name: OpInvoke},
	{Name: OpMkContainer},
	{Name: OpSyncContainer},
	{Name: OpExtract},
	{Name: OpGetObject, Idempotent: true},
	{Name: OpServerStats, Idempotent: true},
	{Name: OpIngestReplica, StreamsIn: true},
	{Name: OpIssueTicket},
	{Name: OpAudit, Idempotent: true, Gate: GateAdmin},
	{Name: OpShadowList, Idempotent: true},
	{Name: OpShadowOpen, Idempotent: true},
	{Name: OpAddUser, Gate: GateAdmin},
	{Name: OpResources, Idempotent: true},
	{Name: OpOpStats, Idempotent: true},
	{Name: OpTrace, Idempotent: true},
	{Name: OpUsage, Idempotent: true},
	{Name: OpRepairStatus, Idempotent: true},
	// A scrub mutates replicas, but only toward the catalog checksum:
	// re-running one is always safe.
	{Name: OpScrub, Idempotent: true},
	{Name: OpChecksum, Idempotent: true},
	{Name: OpGridStat, Idempotent: true},
	{Name: OpAlerts, Idempotent: true},
	{Name: OpIncidents, Idempotent: true},
	{Name: OpIncidentGet, Idempotent: true},
	// Each capture writes a bundle (or burns rate-limit gap).
	{Name: OpIncidentCapture},
	{Name: OpPeers, Idempotent: true},
	{Name: OpBulkPut, StreamsIn: true},
	{Name: OpMultiGet, Idempotent: true},
	{Name: OpBulkStat, Idempotent: true},
	{Name: OpShards, Idempotent: true},
	// A pull only reads, and the position it acks on the leader is kept as
	// a maximum, so a repeat would be harmless there. It stays single-
	// attempt for the follower's sake: a follower counts its own failed
	// pulls toward self-promotion, and a retry loop inside each pull would
	// stretch that count by the backoff.
	{Name: OpShardPull, Gate: GatePeerOrAdmin},
	{Name: OpHeat, Idempotent: true},
}

// specByName indexes the table (TestOpTable rejects a name with two
// rows).
var specByName = func() map[string]*OpSpec {
	m := make(map[string]*OpSpec, len(specs))
	for i := range specs {
		m[specs[i].Name] = &specs[i]
	}
	return m
}()

// Specs returns every row, in table order.
func Specs() []OpSpec { return specs }

// Idempotent reports whether op is safe to retry (false for an unknown
// op).
func Idempotent(op string) bool {
	s := specByName[op]
	return s != nil && s.Idempotent
}

// StreamsIn reports whether op's request is followed by an inbound bulk
// data stream.
func StreamsIn(op string) bool {
	s := specByName[op]
	return s != nil && s.StreamsIn
}

// DecodeArgs unmarshals a request's argument JSON into the op's
// argument struct; absent arguments are the zero struct.
func DecodeArgs[A any](raw json.RawMessage) (a A, err error) {
	if len(raw) > 0 {
		err = json.Unmarshal(raw, &a)
	}
	return a, err
}
