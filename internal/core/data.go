package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/replica"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// ---- collections ----

// Mkdir creates a sub-collection; the user needs Write on the parent.
func (b *Broker) Mkdir(user, path string) error {
	parent := types.Parent(path)
	if !b.Cat.CollExists(parent) {
		return types.E("mkdir", parent, types.ErrNotFound)
	}
	if err := b.need(user, parent, acl.Write, "mkdir"); err != nil {
		return err
	}
	if err := b.Cat.MkColl(path, user); err != nil {
		return err
	}
	b.audit(user, "mkdir", path, true, "")
	return nil
}

// List returns the members of a collection the user may read. It is
// AppendList into a fresh slice.
func (b *Broker) List(user, path string) ([]types.Stat, error) {
	return b.AppendList(nil, user, path)
}

// AppendList appends the members of a collection the user may read to
// dst (Catalog.AppendList): a caller that keeps dst from one listing to
// the next lists into it without making a slice. On error dst comes
// back unchanged.
func (b *Broker) AppendList(dst []types.Stat, user, path string) ([]types.Stat, error) {
	start := time.Now()
	dst, err := b.appendList(dst, user, path)
	b.ops.list.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(path), 0)
	return dst, err
}

func (b *Broker) appendList(dst []types.Stat, user, path string) ([]types.Stat, error) {
	if err := b.need(user, path, acl.Read, "list"); err != nil {
		return dst, err
	}
	dst, err := b.Cat.AppendList(dst, path)
	if err != nil {
		return dst, err
	}
	b.audit(user, "list", path, true, "")
	return dst, nil
}

// StatPath describes a collection or object.
func (b *Broker) StatPath(user, path string) (types.Stat, error) {
	if err := b.need(user, path, acl.Read, "stat"); err != nil {
		return types.Stat{}, err
	}
	// Objects and collections share one namespace, so the order of the
	// two lookups cannot change the answer; a stat is usually of an
	// object, so its lookup comes first.
	o, err := b.Cat.GetObject(path)
	if err != nil {
		col, cerr := b.Cat.GetColl(path)
		if cerr != nil {
			return types.Stat{}, err
		}
		return types.Stat{Path: col.Path, IsCollect: true, Owner: col.Owner, ModifiedAt: col.CreatedAt}, nil
	}
	return types.Stat{
		Path: types.CleanPath(path), Kind: o.Kind, DataType: o.DataType, Owner: o.Owner,
		Size: o.Size, ModifiedAt: o.ModifiedAt, Replicas: len(o.Replicas), Container: o.Container,
	}, nil
}

// GetObject returns an object's whole catalog row — owner, every
// replica's physical path, checksum, versions, lock — to a user who may
// read it.
func (b *Broker) GetObject(user, path string) (types.DataObject, error) {
	if err := b.need(user, path, acl.Read, "getobject"); err != nil {
		return types.DataObject{}, err
	}
	return b.Cat.GetObject(path)
}

// RmColl removes an empty collection; Own on the collection required.
func (b *Broker) RmColl(user, path string) error {
	if err := b.need(user, path, acl.Own, "rmcoll"); err != nil {
		return err
	}
	if err := b.Cat.DeleteColl(path); err != nil {
		return err
	}
	b.audit(user, "rmcoll", path, true, "")
	return nil
}

// ---- ingestion ----

// IngestOpts parameterise Ingest.
type IngestOpts struct {
	// Path is the logical destination.
	Path string
	// Reader streams the object contents; it is read once, to EOF. When
	// nil the contents are Data.
	Reader io.Reader
	// Data is the object contents when Reader is nil.
	Data []byte
	// Resource names the target (physical or logical) resource. Ignored
	// when Container is set: "a container specification on ingestion
	// overrides a resource specification" (paper §5).
	Resource string
	// Container is the logical path of the container to append into.
	Container string
	// DataType tags the object (e.g. "fits image").
	DataType string
	// Meta is user metadata supplied at ingestion; it must satisfy the
	// target collection's mandatory structural attributes.
	Meta []types.AVU
	// Span, when non-nil, receives latency-decomposition phase
	// annotations (mcat.lookup, storage.write) along the ingest.
	Span *obs.Span
}

// Ingest stores a new data object. The user needs Write on the target
// collection and on the resource.
func (b *Broker) Ingest(user string, opts IngestOpts) (types.DataObject, error) {
	start := time.Now()
	o, err := b.ingest(user, opts)
	b.ops.ingest.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(opts.Path), o.Size)
	return o, err
}

// newObject is the first of the three steps every create takes — a put,
// a container, a member, a link, a registered object: it checks the
// name, resolves a linked collection, checks that user may write into
// the collection as named, and takes the ID the object commits under on
// the resolved path (NewObjectID), logging nothing. The caller makes its
// own checks, stores the bytes if there are any, and commits the object
// with its user metadata as one entry (Catalog.Ingest), so a refused
// create leaves no row and no journal line. An ID taken by a create
// refused later is a gap.
func (b *Broker) newObject(op, user, path string) (*types.DataObject, error) {
	path = types.CleanPath(path)
	coll, name := types.Parent(path), types.Base(path)
	if !types.ValidName(name) {
		return nil, types.E(op, path, types.ErrInvalid)
	}
	target, err := b.Cat.ResolveColl(coll)
	if err != nil {
		return nil, types.E(op, coll, types.ErrNotFound)
	}
	if err := b.need(user, coll, acl.Write, op); err != nil {
		return nil, err
	}
	if target != coll {
		path = types.Join(target, name)
	}
	id, err := b.Cat.NewObjectID(path)
	if err != nil {
		return nil, err
	}
	return &types.DataObject{ID: id, Name: name, Collection: target, Owner: user}, nil
}

// commit is the last step of every create but the put, which audits a
// refused commit with the replica files it removes: obj, made by
// newObject, enters the catalog with meta as one ingest entry.
func (b *Broker) commit(op, user string, obj *types.DataObject, meta []types.AVU, detail string) (types.DataObject, error) {
	path := obj.Path()
	err := b.Cat.Ingest(path, obj, meta)
	b.audit(user, op, path, err == nil, detail)
	if err != nil {
		return types.DataObject{}, err
	}
	return *obj, nil
}

// discard removes the files a create stored and did not commit.
func (b *Broker) discard(reps []types.Replica) {
	for _, rep := range reps {
		if rep.Status != types.ReplicaClean {
			continue
		}
		if d, err := b.Driver(rep.Resource); err == nil {
			d.Remove(rep.PhysicalPath)
		}
	}
}

// ingest stores the bytes first and then commits the put as one catalog
// transaction (shard.Catalog.Ingest): the object, its replica rows and
// its user metadata, in one journal entry appended before it is applied.
// Everything the commit checks that can be checked earlier is, so a
// refused put stores no byte; one refused at the commit (a concurrent
// put won the path) removes the bytes it stored.
func (b *Broker) ingest(user string, opts IngestOpts) (types.DataObject, error) {
	lookup := time.Now()
	obj, err := b.newObject("ingest", user, opts.Path)
	if err != nil {
		return types.DataObject{}, err
	}
	path := types.CleanPath(opts.Path)
	coll := types.Parent(path)
	if obj.Collection != coll {
		path = obj.Path() // the put lands in a linked collection's target
	}
	if missing := b.Cat.CheckMandatory(coll, opts.Meta); len(missing) > 0 {
		b.audit(user, "ingest", path, false, "missing mandatory metadata: "+strings.Join(missing, ","))
		return types.DataObject{}, types.E("ingest", path, types.ErrMandatoryMeta)
	}
	for _, avu := range opts.Meta {
		if avu.Name == "" {
			b.audit(user, "ingest", path, false, "metadata without a name")
			return types.DataObject{}, types.E("ingest", path, types.ErrInvalid)
		}
	}
	if opts.Container != "" {
		return b.ingestIntoContainer(user, obj, opts)
	}
	if opts.Resource == "" {
		return types.DataObject{}, types.E("ingest", path, types.ErrInvalid)
	}
	if b.Cat.ResourceLevel(opts.Resource, user) < acl.Write {
		b.audit(user, "ingest", path, false, "resource permission")
		return types.DataObject{}, types.E("ingest", opts.Resource, types.ErrPermission)
	}
	members, err := b.Cat.ResolvePhysical(opts.Resource)
	if err != nil {
		return types.DataObject{}, err
	}
	// Everything up to here resolved names, ACLs and resources against
	// the catalog — attribute it to the mcat.lookup phase.
	opts.Span.Phase(obs.PhaseMCATLookup, time.Since(lookup))
	obj.Kind, obj.DataType = types.KindFile, cmp.Or(opts.DataType, "generic")
	// Replication policy: the sync default lands the file on every
	// member on the write path; an async:k policy stops the synchronous
	// fan-out at k members and defers the rest (plus any members that
	// failed) to the repair queue as dirty placeholders. The sync set is
	// the first members that can be opened for writing; it is fixed before
	// the first byte is read, because one pass over the stream feeds them
	// all — a member that fails mid-stream is left dirty, it cannot be
	// replaced by the next one.
	syncTarget := len(members)
	async := false
	if res, rerr := b.Cat.GetResource(opts.Resource); rerr == nil {
		if k, a, perr := types.ParseReplPolicy(res.ReplPolicy); perr == nil && a {
			syncTarget, async = k, true
		}
	}
	fo := b.rm.NewFanout()
	defer fo.Release()
	reps := make([]types.Replica, len(members))
	var destBuf [4]*replica.Dest // a resource rarely has more members
	dests := destBuf[:]
	if len(members) > len(destBuf) {
		dests = make([]*replica.Dest, len(members))
	}
	dests = dests[:len(members)]
	for i, m := range members {
		reps[i] = types.Replica{
			Number:       types.ReplicaNumber(i),
			Resource:     m.Name,
			PhysicalPath: replica.PhysPathFor(obj, types.ReplicaNumber(i)),
			Status:       types.ReplicaDirty,
			CreatedAt:    b.now(),
		}
		if fo.Live() < syncTarget && m.Online {
			dests[i], _ = fo.Add(m.Name, reps[i].PhysicalPath)
		}
	}
	src := opts.Reader
	if src == nil {
		src = bytes.NewReader(opts.Data)
	}
	err = fo.Copy(src) // reads nothing when no member could be opened
	opts.Span.Phase(obs.PhaseStorageWrite, fo.Busy())
	if err != nil {
		// The stream broke (client gone): no row, no replica.
		b.audit(user, "ingest", path, false, "stream: "+err.Error())
		return types.DataObject{}, types.E("ingest", path, err)
	}
	obj.Size, obj.Checksum = fo.Size(), fo.Checksum()
	wrote := 0
	for i, dst := range dests {
		if dst != nil && dst.Err == nil {
			reps[i].Status = types.ReplicaClean
			reps[i].Size = obj.Size
			reps[i].Checksum = obj.Checksum
			wrote++
		}
	}
	if wrote == 0 {
		b.audit(user, "ingest", path, false, "no online member of "+opts.Resource)
		return types.DataObject{}, types.E("ingest", path, types.ErrOffline)
	}
	obj.Replicas = reps
	if err := b.Cat.Ingest(path, obj, opts.Meta); err != nil {
		b.discard(reps)
		b.audit(user, "ingest", path, false, "commit: "+err.Error())
		return types.DataObject{}, err
	}
	if async {
		// Deferred fan-out: every replica the write path did not land
		// becomes a journaled repair task; the dirty rows committed above
		// make the work visible to the scrubber even if the enqueue is
		// lost.
		queued := false
		for _, rep := range reps {
			if rep.Status != types.ReplicaClean {
				if b.Cat.EnqueueRepair(types.RepairTask{
					Path: path, Resource: rep.Resource,
					Kind: "replicate", Reason: "async fan-out of " + opts.Resource,
				}) {
					queued = true
				}
			}
		}
		if queued {
			b.repairKick()
		}
	}
	b.audit(user, "ingest", path, true, ingestDetail(obj.Size, opts.Resource, len(reps)))
	return *obj, nil
}

// ingestDetail is a put's audit detail, "<size> bytes on <resource> (<n>
// replicas)", written into a stack buffer.
func ingestDetail(size int64, resource string, replicas int) string {
	var buf [96]byte
	d := strconv.AppendInt(buf[:0], size, 10)
	d = append(d, " bytes on "...)
	d = append(d, resource...)
	d = append(d, " ("...)
	d = strconv.AppendInt(d, int64(replicas), 10)
	d = append(d, " replicas)"...)
	return string(d)
}

// Reingest replaces an object's contents, keeping all metadata linked
// ("a user can reingest a file, i.e. all metadata associated with the
// file by the SRB are still linked to it").
func (b *Broker) Reingest(user, path string, data []byte) error {
	return b.ReingestFrom(user, path, bytes.NewReader(data))
}

// ReingestFrom is Reingest with the new contents streamed from r.
func (b *Broker) ReingestFrom(user, path string, r io.Reader) error {
	start := time.Now()
	err := b.reingest(user, path, r)
	b.ops.reingest.Done(start, err)
	return err
}

func (b *Broker) reingest(user, path string, r io.Reader) error {
	o, err := b.checkWrite(user, path, "reingest")
	if err != nil {
		return err
	}
	switch {
	case o.Kind != types.KindFile:
		return types.E("reingest", path, types.ErrUnsupported)
	case o.Container != "":
		data, err := readMember(r)
		if err != nil {
			return types.E("reingest", path, err)
		}
		return b.reingestContainerMember(user, path, data)
	}
	n, err := b.rm.WriteFrom(path, r)
	if err != nil {
		return err
	}
	b.audit(user, "reingest", path, true, fmt.Sprintf("%d bytes", n))
	return nil
}

// ---- retrieval ----

// Get retrieves an object's contents, dispatching on its kind: files
// read from a clean replica (or their container), registered files read
// in place, SQL objects execute, URLs fetch, method objects run, and
// links resolve to their target.
func (b *Broker) Get(user, path string) ([]byte, error) {
	return b.GetTraced(user, path, nil)
}

// GetTraced is Get under a trace span: replica failovers, breaker
// decisions and cache/container hits along the read are annotated onto
// sp, and the audit record carries the trace ID (nil sp = plain Get).
// It is Lookup, OpenGet and one read into a buffer of the object's size.
func (b *Broker) GetTraced(user, path string, sp *obs.Span) ([]byte, error) {
	row := b.Lookup(path)
	var h GetHandle
	size, err := b.OpenGet(&h, user, &row, sp)
	if err != nil {
		return nil, err
	}
	data, err := storage.ReadSized(&h, size)
	h.Close()
	if err != nil {
		return nil, types.E("read", row.Path, err)
	}
	return data, nil
}

// OpenGet opens the object of a looked-up row into h, the caller's, for
// one whole-object read, and returns the size h will yield. File
// objects, container members among them, stream from the replica the
// manager selected; the other kinds (SQL, URL, method, shadow listings)
// are produced in memory and served from there. The get is accounted
// when h is closed — broker.get latency, hot-key bytes — from the bytes
// actually read. After an error the get is accounted and h holds
// nothing to close.
func (b *Broker) OpenGet(h *GetHandle, user string, row *Row, sp *obs.Span) (int64, error) {
	err := b.checkReadRow(user, "get", row)
	sp.Phase(obs.PhaseMCATLookup, time.Since(row.start))
	if err == nil {
		*h = GetHandle{b: b, key: shard.KeyOf(row.Path), start: row.start}
		var size int64
		size, err = b.openInto(&h.Handle, user, &row.Obj, row.Path, sp)
		b.auditTraced(sp, user, "get", row.Path, err == nil, "")
		if err == nil {
			return size, nil
		}
		*h = GetHandle{}
	}
	b.ops.get.Done(row.start, err)
	b.ops.heat.Record(shard.KeyOf(row.Path), 0)
	return 0, err
}

// GetHandle is one get's reader, a storage.ReadFile once OpenGet has
// filled it: the replica.Handle that counts its bytes, and the get's own
// accounting, filed when it is closed. Its caller holds it — in a
// request's slot, a multiget's part, a local — so a get makes no object
// for it.
type GetHandle struct {
	replica.Handle
	b      *Broker
	key    string
	start  time.Time
	closed bool
}

// Close files the get's accounting once and closes the reader.
func (h *GetHandle) Close() error {
	if !h.closed {
		h.closed = true
		h.b.ops.get.Done(h.start, h.Err())
		h.b.ops.heat.Record(h.key, h.N())
	}
	return h.Handle.Close()
}

// getObject reads o's contents whole, for the callers that parse them
// (metadata files, templates): small objects by nature.
func (b *Broker) getObject(user string, o *types.DataObject, sp *obs.Span) ([]byte, error) {
	f, size, err := b.openObject(user, o, o.Path(), sp)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.ReadSized(f, size)
}

// memFile serves bytes already in memory as a storage.ReadFile.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

func openBytes(data []byte, err error) (storage.ReadFile, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	return memFile{bytes.NewReader(data)}, int64(len(data)), nil
}

// openObject opens o, the row at path, into a handle of its own (see
// openInto).
func (b *Broker) openObject(user string, o *types.DataObject, path string, sp *obs.Span) (storage.ReadFile, int64, error) {
	h := new(replica.Handle)
	size, err := b.openInto(h, user, o, path, sp)
	if err != nil {
		return nil, 0, err
	}
	return h, size, nil
}

// openInto opens o's contents, the row at path, into h and returns their
// size (see OpenGet): a file's replica opens straight into h, and h
// holds the reader of every other kind.
func (b *Broker) openInto(h *replica.Handle, user string, o *types.DataObject, path string, sp *obs.Span) (int64, error) {
	f, size, err := b.openKind(h, user, o, path, sp)
	if err == nil && f != nil {
		h.Hold(f)
	}
	return size, err
}

// openKind opens o's contents by kind. A replica opens into h and no
// reader is returned; the other kinds return theirs.
func (b *Broker) openKind(h *replica.Handle, user string, o *types.DataObject, path string, sp *obs.Span) (storage.ReadFile, int64, error) {
	switch o.Kind {
	case types.KindFile:
		if o.Container != "" {
			sp.Event(obs.EventContainerHit, o.Container)
		}
		rep, err := b.rm.OpenInto(h, o, path, "", sp)
		return nil, rep.Size, err
	case types.KindRegisteredFile:
		return b.openRegistered(o)
	case types.KindURL:
		data, err := b.fetcher.Fetch(o.URL)
		if err != nil && len(o.Alternates) > 0 {
			return openBytes(b.readAlternates(o, err))
		}
		return openBytes(data, err)
	case types.KindSQL:
		return openBytes(b.ExecuteSQLSpec(o, ""))
	case types.KindMethod:
		return openBytes(b.invokeMethod(o, nil))
	case types.KindLink:
		target, err := b.Cat.GetObject(o.LinkTarget)
		if err != nil {
			return nil, 0, types.E("get", o.LinkTarget, types.ErrNotFound)
		}
		return b.openKind(h, user, &target, types.CleanPath(o.LinkTarget), sp)
	case types.KindShadowDir:
		// Getting a shadow directory renders its cone listing.
		infos, err := b.shadowList(o, ".")
		if err != nil {
			return nil, 0, err
		}
		var sb strings.Builder
		for _, fi := range infos {
			fmt.Fprintf(&sb, "%s\t%d\t%v\n", fi.Path, fi.Size, fi.IsDir)
		}
		return openBytes([]byte(sb.String()), nil)
	default:
		return nil, 0, types.E("get", path, types.ErrUnsupported)
	}
}

// openRegistered opens a registered file's bytes in place, falling back
// through registered replicates.
func (b *Broker) openRegistered(o *types.DataObject) (storage.ReadFile, int64, error) {
	rep, ok := o.CleanReplica("")
	if !ok {
		return nil, 0, types.E("get", o.Path(), types.ErrOffline)
	}
	d, err := b.Driver(rep.Resource)
	if err == nil {
		var f storage.ReadFile
		if f, err = d.Open(rep.PhysicalPath); err == nil {
			// SRB does not control registered bytes: ask the file, not the
			// catalog, how long it is.
			var size int64
			if size, err = storage.SizeOf(f); err == nil {
				return f, size, nil
			}
			f.Close()
		}
	}
	return openBytes(b.readAlternates(o, err))
}

// readAlternates tries the registered replicates in order.
func (b *Broker) readAlternates(o *types.DataObject, lastErr error) ([]byte, error) {
	for _, alt := range o.Alternates {
		switch alt.Kind {
		case types.KindURL:
			if data, err := b.fetcher.Fetch(alt.URL); err == nil {
				return data, nil
			}
		case types.KindSQL:
			if alt.SQL != nil {
				tmp := *o
				tmp.SQL = alt.SQL
				if data, err := b.ExecuteSQLSpec(&tmp, ""); err == nil {
					return data, nil
				}
			}
		case types.KindRegisteredFile:
			if d, err := b.Driver(alt.Resource); err == nil {
				if data, err := storage.ReadAll(d, alt.PhysicalPath); err == nil {
					return data, nil
				}
			}
		}
	}
	return nil, types.E("get", o.Path(), lastErr)
}

// OpenRead opens the object of a looked-up row for positional and
// partial reads (the parallel-transfer primitive). Unlike OpenGet it is
// audited as "open" and not accounted as a get.
func (b *Broker) OpenRead(user string, row *Row) (storage.ReadFile, int64, error) {
	if err := b.checkReadRow(user, "open", row); err != nil {
		return nil, 0, err
	}
	return b.openObject(user, &row.Obj, row.Path, nil)
}

// ---- replication, copy, move, link, delete ----

// Replicate adds a replica on the named resource. Files inside
// registered directories are not replicable (paper §5); the replica
// manager enforces the container rule.
func (b *Broker) Replicate(user, path, resource string) (types.Replica, error) {
	start := time.Now()
	rep, err := b.replicate(user, path, resource)
	b.ops.replicate.Done(start, err)
	return rep, err
}

func (b *Broker) replicate(user, path, resource string) (types.Replica, error) {
	if _, err := b.checkWrite(user, path, "replicate"); err != nil {
		return types.Replica{}, err
	}
	if b.Cat.ResourceLevel(resource, user) < acl.Write {
		return types.Replica{}, types.E("replicate", resource, types.ErrPermission)
	}
	rep, err := b.rm.Replicate(path, resource)
	b.audit(user, "replicate", path, err == nil, resource)
	return rep, err
}

// IngestReplica stores caller-provided bytes as a new replica of an
// existing object — the paper's "ingest replica" for semantically-equal
// but syntactically-different copies (tiff vs gif). SRB does not check
// equality.
func (b *Broker) IngestReplica(user, path, resource string, data []byte) (types.Replica, error) {
	return b.IngestReplicaFrom(user, path, resource, bytes.NewReader(data))
}

// IngestReplicaFrom is IngestReplica with the bytes streamed from r.
func (b *Broker) IngestReplicaFrom(user, path, resource string, r io.Reader) (types.Replica, error) {
	start := time.Now()
	rep, err := b.ingestReplica(user, path, resource, r)
	b.ops.ingestReplica.Done(start, err)
	return rep, err
}

func (b *Broker) ingestReplica(user, path, resource string, r io.Reader) (types.Replica, error) {
	o, err := b.checkWrite(user, path, "ingestreplica")
	if err != nil {
		return types.Replica{}, err
	}
	if o.Container != "" {
		return types.Replica{}, types.E("ingestreplica", path, types.ErrUnsupported)
	}
	next := types.ReplicaNumber(0)
	for _, r := range o.Replicas {
		if r.Number >= next {
			next = r.Number + 1
		}
	}
	physPath := replica.PhysPathFor(&o, next)
	fo := b.rm.NewFanout()
	defer fo.Release()
	dst, err := fo.Add(resource, physPath)
	if err != nil {
		return types.Replica{}, err
	}
	if err := fo.Copy(r); err != nil {
		return types.Replica{}, types.E("ingestreplica", path, err)
	}
	if dst.Err != nil {
		return types.Replica{}, dst.Err
	}
	rep := types.Replica{
		Number: next, Resource: resource, PhysicalPath: physPath,
		Status: types.ReplicaClean, Size: fo.Size(),
		Checksum: fo.Checksum(), CreatedAt: b.now(),
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Replicas = append(o.Replicas, rep)
		return nil
	})
	b.audit(user, "ingestreplica", path, err == nil, resource)
	return rep, err
}

// Copy duplicates an object (or, recursively, a collection) to a new
// logical path. Per the paper, "the copy command does not copy any
// user-defined metadata or annotations", and the copy is entirely
// unconnected to the source. URL, SQL and method objects cannot be
// copied.
func (b *Broker) Copy(user, src, dst, resource string) error {
	if err := b.need(user, src, acl.Read, "copy"); err != nil {
		return err
	}
	if b.Cat.CollExists(src) {
		return b.copyCollection(user, src, dst, resource)
	}
	o, err := b.Cat.GetObject(src)
	if err != nil {
		return err
	}
	switch o.Kind {
	case types.KindURL, types.KindSQL, types.KindMethod:
		return types.E("copy", src, types.ErrUnsupported)
	}
	if resource == "" {
		if rep, ok := o.CleanReplica(""); ok {
			resource = rep.Resource
		}
	}
	if resource == "" {
		return types.E("copy", src, types.ErrInvalid)
	}
	f, _, err := b.openObject(user, &o, types.CleanPath(src), nil)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = b.Ingest(user, IngestOpts{Path: dst, Reader: f, Resource: resource, DataType: o.DataType})
	b.audit(user, "copy", src, err == nil, "to "+dst)
	return err
}

func (b *Broker) copyCollection(user, src, dst, resource string) error {
	if err := b.Mkdir(user, dst); err != nil {
		return err
	}
	for _, st := range b.Cat.SubColls(src) {
		if err := b.Mkdir(user, types.Rebase(src, dst, st)); err != nil {
			return err
		}
	}
	for _, p := range b.Cat.SubtreeObjects(src) {
		o, err := b.Cat.GetObject(p)
		if err != nil {
			continue
		}
		switch o.Kind {
		case types.KindURL, types.KindSQL, types.KindMethod, types.KindLink:
			continue // pointer objects are not copied recursively
		}
		if err := b.Copy(user, p, types.Rebase(src, dst, p), resource); err != nil {
			return err
		}
	}
	b.audit(user, "copycoll", src, true, "to "+dst)
	return nil
}

// Move renames an object or collection within the logical name space
// (the paper's logical move: "the user-defined metadata remains
// unchanged"). The user needs Own on the source and Write on the
// destination collection.
func (b *Broker) Move(user, src, dst string) error {
	if err := b.need(user, src, acl.Own, "move"); err != nil {
		return err
	}
	dstColl := types.Parent(dst)
	if err := b.need(user, dstColl, acl.Write, "move"); err != nil {
		return err
	}
	var err error
	if b.Cat.CollExists(src) {
		err = b.Cat.MoveColl(src, dst)
	} else {
		err = b.Cat.MoveObject(src, dstColl, types.Base(dst))
	}
	b.audit(user, "move", src, err == nil, "to "+dst)
	return err
}

// PhysicalMove relocates one replica to another resource without
// changing the logical name.
func (b *Broker) PhysicalMove(user, path string, number types.ReplicaNumber, toResource string) error {
	if _, err := b.checkWrite(user, path, "physmove"); err != nil {
		return err
	}
	err := b.rm.PhysicalMove(path, number, toResource)
	b.audit(user, "physmove", path, err == nil, toResource)
	return err
}

// Link registers a soft link to an existing object in another
// collection. Chains collapse: linking to a link links to its target.
func (b *Broker) Link(user, target, linkPath string) error {
	o, err := b.Cat.GetObject(target)
	if err != nil {
		return types.E("link", target, types.ErrNotFound)
	}
	if err := b.need(user, target, acl.Read, "link"); err != nil {
		return err
	}
	if o.Kind == types.KindLink {
		target = o.LinkTarget
	}
	obj, err := b.newObject("link", user, linkPath)
	if err != nil {
		return err
	}
	obj.Kind, obj.LinkTarget = types.KindLink, types.CleanPath(target)
	_, err = b.commit("link", user, obj, nil, "-> "+target)
	return err
}

// LinkColl links a collection as a sub-collection of another.
func (b *Broker) LinkColl(user, target, linkPath string) error {
	if err := b.need(user, target, acl.Read, "linkcoll"); err != nil {
		return err
	}
	if err := b.need(user, types.Parent(linkPath), acl.Write, "linkcoll"); err != nil {
		return err
	}
	err := b.Cat.LinkColl(target, linkPath, user)
	b.audit(user, "linkcoll", linkPath, err == nil, "-> "+target)
	return err
}

// Delete removes an object. Registered directory, SQL, URL and method
// objects are unlinked without touching the physical data; link objects
// only unlink; files lose every replica's bytes and, with the last
// replica, all metadata and annotations (paper §5).
func (b *Broker) Delete(user, path string) error {
	start := time.Now()
	err := b.deleteObj(user, path)
	b.ops.delete_.Done(start, err)
	return err
}

func (b *Broker) deleteObj(user, path string) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return types.E("delete", path, types.ErrNotFound)
	}
	if err := b.need(user, path, acl.Own, "delete"); err != nil {
		return err
	}
	if writeBlocked(&o, user, b.now()) {
		return types.E("delete", path, types.ErrLocked)
	}
	err = b.Cat.DeleteObject(path)
	b.audit(user, "delete", path, err == nil, o.Kind.String())
	if err != nil {
		return err
	}
	switch o.Kind {
	case types.KindFile, types.KindRegisteredFile:
		// Physical bytes go with the object, best-effort once the catalog
		// no longer names them, so a crash in between leaves an orphaned
		// file, never a row without bytes. Registered files are also
		// deleted physically (paper §5, kind 1: "including deletion on
		// registered files"); container members leave their bytes
		// orphaned in the segment until the container is removed.
		if o.Container == "" {
			for _, rep := range o.Replicas {
				if d, err := b.Driver(rep.Resource); err == nil {
					d.Remove(rep.PhysicalPath)
				}
			}
		}
	}
	return nil
}

// DeleteReplica removes one replica; deleting the last replica deletes
// the object with all its metadata ("when the last replica is deleted
// all the metadata and annotations are also deleted").
func (b *Broker) DeleteReplica(user, path string, number types.ReplicaNumber) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return err
	}
	if err := b.need(user, path, acl.Own, "rmreplica"); err != nil {
		return err
	}
	if len(o.Replicas) <= 1 {
		return b.Delete(user, path)
	}
	err = b.rm.DeleteReplica(path, number)
	b.audit(user, "rmreplica", path, err == nil, fmt.Sprintf("replica %d", number))
	return err
}
