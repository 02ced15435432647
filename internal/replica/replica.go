// Package replica implements SRB replication management: synchronous
// replication into logical resources, replica selection with automatic
// failover ("the system automatically redirecting access to a replica
// on a separate storage system when the first storage system is
// unavailable", paper §3.4) for objects and container members alike,
// dirty-replica synchronisation, and the physical move of a replica
// between resources.
package replica

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"gosrb/internal/container"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// DriverMap resolves a resource name to its storage driver. The broker
// provides it; tests provide fakes.
type DriverMap interface {
	Driver(resource string) (storage.Driver, error)
}

// Policy selects among equivalent clean replicas on read.
type Policy int

const (
	// FirstAlive always reads the lowest-numbered clean replica whose
	// resource is online — SRB 1.1.8's behaviour.
	FirstAlive Policy = iota
	// RoundRobin rotates across clean online replicas, spreading load
	// (the paper's load-balancing rationale for replication, §3.2).
	RoundRobin
)

// Catalog is the slice of the metadata catalog the replica manager
// consumes. Both *mcat.Catalog and the shard router satisfy it.
type Catalog interface {
	GetObject(path string) (types.DataObject, error)
	GetResource(name string) (types.Resource, error)
	UpdateObject(path string, fn func(*types.DataObject) error) error
}

// Manager performs replica operations against one catalog.
type Manager struct {
	cat     Catalog
	drivers DriverMap
	policy  Policy
	rr      atomic.Uint64
	// server is this manager's server in the federation: a replica on a
	// resource it holds (or on one no server claims) is local.
	server string

	// fanoutOK / fanoutFail count individual replica writes during
	// synchronous fan-out (WriteAll, SyncDirty, Replicate): one logical
	// write touching k replicas records k outcomes. failover counts
	// reads served by a non-first candidate — the paper's automatic
	// redirection (§3.4) made visible.
	fanoutOK   *obs.Counter
	fanoutFail *obs.Counter
	failover   *obs.Counter

	// breakers, when set, vetoes replicas whose resource breaker is open
	// and records per-resource outcomes, so repeated driver failures
	// route reads to healthy replicas before the driver is even tried.
	breakers *resilience.Set

	// peers, when set, is the transfer observatory: every whole-object
	// read contributes a per-resource latency/bandwidth observation —
	// the observed history a cost-model replica selector ranks by.
	peers *obs.PeerHistory

	// heat, when set, is the hot-object table: every whole-object read
	// records the object path, feeding the heat observatory's per-object
	// view (and, downstream, replica-selection cost models).
	heat *obs.HeatTable

	// heatReg keeps the registry handle so SetHeatTracking can re-attach
	// the table after a benchmark baseline detached it.
	heatReg *obs.Registry
}

// SetMetrics attaches fan-out counters from the registry (nil detaches).
func (m *Manager) SetMetrics(r *obs.Registry) {
	m.fanoutOK = r.Counter("replica.fanout.ok")
	m.fanoutFail = r.Counter("replica.fanout.fail")
	m.failover = r.Counter("replica.read.failover")
	m.peers = r.Peers()
	m.heat = r.HeatObjects()
	m.heatReg = r
}

// SetHeatTracking switches hot-object recording on or off while leaving
// the rest of the instrumentation attached (the heat-overhead benchmark
// baseline).
func (m *Manager) SetHeatTracking(on bool) {
	if on {
		m.heat = m.heatReg.HeatObjects()
	} else {
		m.heat = nil
	}
}

// SetBreakers attaches the per-resource circuit breakers (nil disables
// breaker-aware selection).
func (m *Manager) SetBreakers(s *resilience.Set) { m.breakers = s }

// breaker returns the breaker guarding a resource (nil when disabled).
func (m *Manager) breaker(resource string) *resilience.Breaker {
	return m.breakers.For("resource", resource)
}

// NewManager returns a Manager with the FirstAlive policy.
func NewManager(cat Catalog, drivers DriverMap) *Manager {
	return &Manager{cat: cat, drivers: drivers}
}

// SetServer names the federation server this manager reads for.
func (m *Manager) SetServer(name string) { m.server = name }

// SetPolicy changes the read-selection policy.
func (m *Manager) SetPolicy(p Policy) { m.policy = p }

// PhysPathFor allocates the canonical physical path for replica n of an
// object: a vault layout keyed by object ID so renames in the logical
// name space never require physical moves. The path is
// "/vault/%03d/oid%d.r%d" of the ID's bucket, the ID and n, written into
// a stack buffer: one allocation, the string.
func PhysPathFor(o *types.DataObject, n types.ReplicaNumber) string {
	var buf [64]byte
	b := append(buf[:0], "/vault/"...)
	bucket, lim := int64(o.ID%512), int64(100)
	if bucket < 0 {
		b = append(b, '-')
		bucket, lim = -bucket, 10 // %03d counts the sign in the width
	}
	for ; lim > 1 && bucket < lim; lim /= 10 {
		b = append(b, '0') // one per digit the bucket lacks
	}
	b = strconv.AppendInt(b, bucket, 10)
	b = append(b, "/oid"...)
	b = strconv.AppendInt(b, int64(o.ID), 10)
	b = append(b, ".r"...)
	b = strconv.AppendInt(b, int64(n), 10)
	return string(b)
}

// Checksum computes the hex SHA-256 the catalog stores for replicas.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// candidates appends to buf the replicas of o a read can be served
// from: clean, on an online resource whose breaker is not open. Those on
// this server's resources come first, each group in replica order, and
// local counts them. owner names the server holding the first candidate:
// "" when this server does or there is none. Breaker decisions are
// annotated onto sp when the read is traced.
func (m *Manager) candidates(buf []types.Replica, o *types.DataObject, sp *obs.Span) (cands []types.Replica, local int, owner string) {
	cands = buf[:0]
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean {
			continue
		}
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			continue
		}
		// An open breaker means the resource's driver has been failing:
		// route around it until a half-open probe proves it back.
		switch m.breaker(r.Resource).State() {
		case resilience.Open:
			sp.Event(obs.EventBreakerFast, "resource."+r.Resource)
			continue
		case resilience.HalfOpen:
			sp.Event(obs.EventBreakerProbe, "resource."+r.Resource)
		}
		if res.Server == "" || res.Server == m.server {
			cands = slices.Insert(cands, local, r)
			local++
		} else {
			if len(cands) == local {
				owner = res.Server
			}
			cands = append(cands, r)
		}
	}
	if local > 0 {
		owner = ""
	}
	return cands, local, owner
}

// Owner names the server a read of the file row o goes to: the holder
// of its first candidate replica, "" when that is this server, when no
// replica can serve it (the local open then reports why), or when o is
// not a plain file. A container member is served by its container's
// replicas.
func (m *Manager) Owner(o *types.DataObject) string {
	if o.Kind != types.KindFile {
		return ""
	}
	if o.Container != "" {
		cont, err := m.cat.GetObject(o.Container)
		if err != nil {
			return ""
		}
		o = &cont
	}
	var buf [4]types.Replica
	_, _, owner := m.candidates(buf[:0], o, nil)
	return owner
}

// OpenRead opens the object's bytes for reading, trying clean replicas
// per the policy and failing over past unavailable resources. It
// returns the replica served.
func (m *Manager) OpenRead(path, preferResource string) (storage.ReadFile, types.Replica, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return nil, types.Replica{}, err
	}
	h := new(Handle)
	r, err := m.OpenInto(h, &o, path, preferResource, nil)
	if err != nil {
		return nil, r, err
	}
	return h, r, nil
}

// OpenInto opens a replica of o, the catalog row the caller already
// read for path, into h: clean replicas are tried per the policy, failing
// over past unavailable resources. Breaker trips, fast-fails, half-open
// probes, failovers and cache hits along the selection land as events on
// sp (nil sp = untraced). It returns the replica served. A container
// member is selected among its container's segment replicas, and the
// replica returned is the segment's, sized to the member.
//
// h accounts the read where the bytes move: closing it records the
// storage.read phase (open plus time inside the driver's Read calls),
// the transfer-observatory row and the hot-object hit, from the bytes
// actually delivered. A failed open records the phase at once and leaves
// h as it was.
func (m *Manager) OpenInto(h *Handle, o *types.DataObject, path, preferResource string, sp *obs.Span) (types.Replica, error) {
	start := time.Now()
	f, r, err := m.openRead(o, path, preferResource, sp)
	if err != nil {
		sp.Phase(obs.PhaseStorageRead, time.Since(start))
		return r, err
	}
	*h = Handle{f: f, m: m, sp: sp, path: path, resource: r.Resource, busy: time.Since(start)}
	return r, nil
}

func (m *Manager) openRead(o *types.DataObject, path, prefer string, sp *obs.Span) (storage.ReadFile, types.Replica, error) {
	// A container member has no replicas of its own: it is served from
	// one of its container's segments, narrowed to its record.
	holder := o
	if o.Container != "" {
		cont, err := m.cat.GetObject(o.Container)
		if err != nil {
			return nil, types.Replica{}, types.E("open", o.Container, types.ErrNotFound)
		}
		holder = &cont
	}
	var buf [4]types.Replica
	cands, local, _ := m.candidates(buf[:0], holder, sp)
	if len(cands) == 0 {
		return nil, types.Replica{}, types.E("open", path, types.ErrOffline)
	}
	// Only this server's replicas can be opened here; the rest follow
	// them, and each fails at Driver.
	lead := cands[:local]
	if prefer != "" {
		for i, r := range lead {
			if r.Resource == prefer {
				lead[0], lead[i] = lead[i], lead[0]
				break
			}
		}
	} else if m.policy == RoundRobin && len(lead) > 1 {
		// Rotate left by k: reverse both halves, then the whole.
		k := int(m.rr.Add(1)) % len(lead)
		slices.Reverse(lead[:k])
		slices.Reverse(lead[k:])
		slices.Reverse(lead)
	}
	var lastErr error
	for i, r := range cands {
		attempt := time.Now()
		d, err := m.drivers.Driver(r.Resource)
		if err != nil {
			// No local driver usually means a remote resource; that is
			// not the resource failing, so the breaker stays untouched
			// and a real failure from another replica keeps precedence
			// as the reported (retryable) cause.
			sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
			if lastErr == nil {
				lastErr = err
			}
			continue
		}
		openStart := time.Now()
		f, err := d.Open(r.PhysicalPath)
		if err == nil && o.Container != "" {
			f, err = container.Member(f, o.ContainerOffset, o.ContainerSize)
			r.Size = o.ContainerSize
		}
		openDur := time.Since(openStart)
		if err != nil {
			sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
			if resilience.Retryable(err) {
				if m.breaker(r.Resource).Failure() {
					sp.Event(obs.EventBreakerTrip, "resource."+r.Resource)
				}
			}
			lastErr = err
			continue
		}
		sp.Phase(obs.PhaseStorageOpen, openDur)
		sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
		m.breaker(r.Resource).Success()
		if i > 0 {
			m.failover.Inc()
			sp.Event(obs.EventFailover, fmt.Sprintf("replica %d on %s", r.Number, r.Resource))
		}
		if sp != nil {
			if res, err := m.cat.GetResource(r.Resource); err == nil && res.Class == types.ClassCache {
				sp.Event(obs.EventCacheHit, r.Resource)
			}
		}
		return f, r, nil
	}
	if lastErr == nil {
		lastErr = types.ErrOffline
	}
	return nil, types.Replica{}, types.E("open", path, lastErr)
}

// ReadAll retrieves the full contents via OpenRead, into one buffer of
// the replica's catalogued size.
func (m *Manager) ReadAll(path, preferResource string) ([]byte, types.Replica, error) {
	f, r, err := m.OpenRead(path, preferResource)
	if err != nil {
		return nil, r, err
	}
	data, err := storage.ReadSized(f, r.Size)
	f.Close()
	if err != nil {
		return nil, r, types.E("read", path, err)
	}
	return data, r, nil
}

// WriteAll overwrites the object's contents with data (see WriteFrom).
func (m *Manager) WriteAll(path string, data []byte) error {
	_, err := m.WriteFrom(path, bytes.NewReader(data))
	return err
}

// WriteFrom overwrites the object's contents with the stream src, read
// once: the bytes land on every replica whose resource is reachable, in
// one pass, and the catalog size and checksum come from the bytes that
// went by. Replicas that could not take the write — unreachable, or
// failed part-way — are marked dirty for later synchronisation. If src
// itself breaks, nothing is stored: staged writes are discarded and the
// old contents stay authoritative. It returns the bytes stored.
func (m *Manager) WriteFrom(path string, src io.Reader) (int64, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return 0, err
	}
	if o.Kind != types.KindFile {
		return 0, types.E("write", path, types.ErrUnsupported)
	}
	fo := m.NewFanout()
	defer fo.Release()
	dests := make(map[types.ReplicaNumber]*Dest)
	var failRes string
	var failErr error
	for _, r := range o.Replicas {
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			m.fanoutFail.Inc()
			failRes = r.Resource
			continue
		}
		dst, err := fo.Add(r.Resource, r.PhysicalPath)
		if err != nil {
			failRes, failErr = r.Resource, err
			continue
		}
		dests[r.Number] = dst
	}
	srcErr := fo.Copy(src)
	written := 0
	for _, dst := range dests {
		if dst.Err == nil {
			written++
		} else if srcErr == nil {
			failRes, failErr = dst.Resource, dst.Err
		}
	}
	size, sum := fo.Size(), fo.Checksum()
	uerr := m.cat.UpdateObject(path, func(o *types.DataObject) error {
		if written > 0 {
			o.Size = size
			o.Checksum = sum
		}
		for i := range o.Replicas {
			r := &o.Replicas[i]
			dst := dests[r.Number]
			switch {
			case dst != nil && dst.Err == nil:
				r.Status = types.ReplicaClean
				r.Size = size
				r.Checksum = sum
			case written > 0 || (dst != nil && dst.Torn):
				// Stale relative to the new contents, or a file that no
				// longer holds the old ones: either way not servable as
				// clean.
				r.Status = types.ReplicaDirty
			}
			// Otherwise the write never changed this replica and nothing
			// was stored anywhere: the old contents remain authoritative.
		}
		return nil
	})
	if srcErr != nil {
		return 0, types.E("write", path, srcErr)
	}
	if written == 0 {
		if failErr == nil {
			failErr = types.ErrOffline
		}
		return 0, types.E("write", path, fmt.Errorf("resource %s: %w", failRes, failErr))
	}
	return size, uerr
}

// Replicate creates a new replica of the object on resource. The new
// replica inherits the object's metadata implicitly (metadata is keyed
// by the logical path) and receives the next replica number.
func (m *Manager) Replicate(path, resource string) (types.Replica, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return types.Replica{}, err
	}
	if o.Kind != types.KindFile {
		return types.Replica{}, types.E("replicate", path, types.ErrUnsupported)
	}
	if o.Container != "" {
		// Files inside containers replicate with their container.
		return types.Replica{}, types.E("replicate", path, types.ErrUnsupported)
	}
	res, err := m.cat.GetResource(resource)
	if err != nil {
		return types.Replica{}, err
	}
	if res.Kind != types.ResourcePhysical {
		return types.Replica{}, types.E("replicate", resource, types.ErrInvalid)
	}
	if !res.Online {
		return types.Replica{}, types.E("replicate", resource, types.ErrOffline)
	}
	src := new(Handle)
	from, err := m.OpenInto(src, &o, path, "", nil)
	if err != nil {
		return types.Replica{}, err
	}
	defer src.Close()
	next := nextNumber(&o)
	physPath := PhysPathFor(&o, next)
	fo := m.NewFanout()
	defer fo.Release()
	dst, err := fo.Add(resource, physPath)
	if err != nil {
		return types.Replica{}, err
	}
	// A failed copy leaves no orphaned partial file: the fan-out aborts it.
	if err := fo.Copy(src); err != nil {
		return types.Replica{}, types.E("replicate", path, err)
	}
	if dst.Err != nil {
		return types.Replica{}, types.E("replicate", path, dst.Err)
	}
	newRep := types.Replica{
		Number:       next,
		Resource:     resource,
		PhysicalPath: physPath,
		Size:         fo.Size(),
		Checksum:     fo.Checksum(),
	}
	err = m.cat.UpdateObject(path, func(o *types.DataObject) error {
		newRep.CreatedAt = o.ModifiedAt
		// The copy is current only if its source did not change while it
		// ran; after an append or a rewrite it is stale, and SyncDirty
		// refreshes it.
		newRep.Status = types.ReplicaDirty
		if now, ok := o.ReplicaByNumber(from.Number); ok && now.Status == types.ReplicaClean &&
			now.Size == from.Size && now.Checksum == from.Checksum {
			newRep.Status = types.ReplicaClean
		}
		o.Replicas = append(o.Replicas, newRep)
		return nil
	})
	if err != nil {
		return types.Replica{}, err
	}
	return newRep, nil
}

func nextNumber(o *types.DataObject) types.ReplicaNumber {
	next := types.ReplicaNumber(0)
	for _, r := range o.Replicas {
		if r.Number >= next {
			next = r.Number + 1
		}
	}
	return next
}

// SyncDirty brings every dirty replica of the object up to date from a
// clean one and returns how many replicas were refreshed.
func (m *Manager) SyncDirty(path string) (int, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return 0, err
	}
	var dirty []types.Replica
	for _, r := range o.Replicas {
		if r.Status == types.ReplicaDirty {
			dirty = append(dirty, r)
		}
	}
	if len(dirty) == 0 {
		return 0, nil
	}
	// A target that could not take the copy is not an error here: it
	// stays dirty and the sweep moves on.
	fixed, _, err := m.refresh(path, dirty)
	return fixed, err
}

// SyncResource rewrites the non-clean replica(s) of path held on one
// resource from a clean sibling — the targeted variant of SyncDirty the
// repair engine uses to execute one queued task. Unlike SyncDirty it
// returns an error whenever the replica could not be brought clean
// (offline resource, missing driver, no clean source, write failure) so
// the engine can reschedule the task with backoff.
func (m *Manager) SyncResource(path, resource string) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	var targets []types.Replica
	for _, r := range o.Replicas {
		if r.Resource == resource && r.Status != types.ReplicaClean {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	res, err := m.cat.GetResource(resource)
	if err != nil {
		return err
	}
	if !res.Online {
		return types.E("syncres", resource, types.ErrOffline)
	}
	if _, err := m.drivers.Driver(resource); err != nil {
		return err
	}
	fixed, targetErr, err := m.refresh(path, targets)
	if err != nil {
		return err
	}
	if fixed < len(targets) {
		return types.E("syncres", path, targetErr)
	}
	return nil
}

// refresh streams a clean replica of path over the given stale replicas
// in one pass and marks the ones that took it clean, returning how many
// did. targetErr is the last failure of a target to take the copy; err
// is reserved for what stops the whole pass — no clean source, the
// source breaking mid-copy, the catalog update failing.
func (m *Manager) refresh(path string, targets []types.Replica) (fixed int, targetErr, err error) {
	src, _, err := m.OpenRead(path, "")
	if err != nil {
		return 0, nil, err
	}
	defer src.Close()
	fo := m.NewFanout()
	defer fo.Release()
	dests := make(map[types.ReplicaNumber]*Dest)
	targetErr = types.ErrOffline
	for _, r := range targets {
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			m.fanoutFail.Inc()
			continue
		}
		dst, err := fo.Add(r.Resource, r.PhysicalPath)
		if err != nil {
			targetErr = err
			continue
		}
		dests[r.Number] = dst
	}
	if err := fo.Copy(src); err != nil {
		return 0, nil, types.E("read", path, err)
	}
	for _, dst := range dests {
		if dst.Err == nil {
			fixed++
		} else {
			targetErr = dst.Err
		}
	}
	if fixed == 0 {
		return 0, targetErr, nil
	}
	size, sum := fo.Size(), fo.Checksum()
	err = m.cat.UpdateObject(path, func(o *types.DataObject) error {
		for i := range o.Replicas {
			r := &o.Replicas[i]
			if dst := dests[r.Number]; dst != nil && dst.Err == nil {
				r.Status = types.ReplicaClean
				r.Size = size
				r.Checksum = sum
			}
		}
		return nil
	})
	return fixed, targetErr, err
}

// PhysicalMove relocates one replica to a new resource, preserving its
// replica number — the paper's "physical move of the object".
func (m *Manager) PhysicalMove(path string, number types.ReplicaNumber, toResource string) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	if o.Container != "" {
		return types.E("physmove", path, types.ErrUnsupported)
	}
	rep, ok := o.ReplicaByNumber(number)
	if !ok {
		return types.E("physmove", path, types.ErrNotFound)
	}
	res, err := m.cat.GetResource(toResource)
	if err != nil {
		return err
	}
	if res.Kind != types.ResourcePhysical || !res.Online {
		return types.E("physmove", toResource, types.ErrInvalid)
	}
	srcD, err := m.drivers.Driver(rep.Resource)
	if err != nil {
		return err
	}
	dstD, err := m.drivers.Driver(toResource)
	if err != nil {
		return err
	}
	newPath := PhysPathFor(&o, number)
	if _, err := storage.Copy(dstD, newPath, srcD, rep.PhysicalPath); err != nil {
		return types.E("physmove", path, err)
	}
	if err := m.cat.UpdateObject(path, func(o *types.DataObject) error {
		for i := range o.Replicas {
			if o.Replicas[i].Number == number {
				o.Replicas[i].Resource = toResource
				o.Replicas[i].PhysicalPath = newPath
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Old bytes are removed best-effort; the new replica is authoritative.
	srcD.Remove(rep.PhysicalPath)
	return nil
}

// DeleteReplica removes one replica's bytes and catalog record. The
// last replica of an object cannot be removed this way — deleting the
// object handles that ("when the last replica is deleted all the
// metadata and annotations are also deleted", which is the broker's
// job).
func (m *Manager) DeleteReplica(path string, number types.ReplicaNumber) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	rep, ok := o.ReplicaByNumber(number)
	if !ok {
		return types.E("rmreplica", path, types.ErrNotFound)
	}
	if len(o.Replicas) <= 1 {
		return types.E("rmreplica", path, types.ErrInvalid)
	}
	if err := m.cat.UpdateObject(path, func(o *types.DataObject) error {
		kept := o.Replicas[:0:0]
		for _, r := range o.Replicas {
			if r.Number != number {
				kept = append(kept, r)
			}
		}
		o.Replicas = kept
		return nil
	}); err != nil {
		return err
	}
	// The bytes are removed best-effort once the catalog no longer names
	// them, as PhysicalMove removes the old copy.
	if !rep.Registered {
		if d, err := m.drivers.Driver(rep.Resource); err == nil {
			d.Remove(rep.PhysicalPath)
		}
	}
	return nil
}
