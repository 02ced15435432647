package core

import (
	"bytes"
	"fmt"
	"io"
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

// List returns the members of a collection the user may read.
func (b *Broker) List(user, path string) ([]types.Stat, error) {
	start := time.Now()
	stats, err := b.list(user, path)
	b.ops.list.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(path), 0)
	return stats, err
}

func (b *Broker) list(user, path string) ([]types.Stat, error) {
	if err := b.need(user, path, acl.Read, "list"); err != nil {
		return nil, err
	}
	stats, err := b.Cat.ListColl(path)
	if err != nil {
		return nil, err
	}
	b.audit(user, "list", path, true, "")
	return stats, nil
}

// StatPath describes a collection or object.
func (b *Broker) StatPath(user, path string) (types.Stat, error) {
	if err := b.need(user, path, acl.Read, "stat"); err != nil {
		return types.Stat{}, err
	}
	if col, err := b.Cat.GetColl(path); err == nil {
		return types.Stat{Path: col.Path, IsCollect: true, Owner: col.Owner, ModifiedAt: col.CreatedAt}, nil
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return types.Stat{}, err
	}
	return types.Stat{
		Path: o.Path(), Kind: o.Kind, DataType: o.DataType, Owner: o.Owner,
		Size: o.Size, ModifiedAt: o.ModifiedAt, Replicas: len(o.Replicas), Container: o.Container,
	}, nil
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

func (b *Broker) ingest(user string, opts IngestOpts) (types.DataObject, error) {
	lookup := time.Now()
	path := types.CleanPath(opts.Path)
	coll, name := types.Parent(path), types.Base(path)
	if !types.ValidName(name) {
		return types.DataObject{}, types.E("ingest", path, types.ErrInvalid)
	}
	if !b.Cat.CollExists(coll) {
		return types.DataObject{}, types.E("ingest", coll, types.ErrNotFound)
	}
	if err := b.need(user, coll, acl.Write, "ingest"); err != nil {
		return types.DataObject{}, err
	}
	if missing := b.Cat.CheckMandatory(coll, opts.Meta); len(missing) > 0 {
		b.audit(user, "ingest", path, false, "missing mandatory metadata: "+strings.Join(missing, ","))
		return types.DataObject{}, types.E("ingest", path, types.ErrMandatoryMeta)
	}
	if opts.Container != "" {
		return b.ingestIntoContainer(user, path, opts)
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
	dataType := opts.DataType
	if dataType == "" {
		dataType = "generic"
	}
	obj := &types.DataObject{Name: name, Collection: coll, Owner: user, Kind: types.KindFile, DataType: dataType}
	id, err := b.Cat.RegisterObject(obj)
	if err != nil {
		return types.DataObject{}, err
	}
	obj.ID = id
	// RegisterObject resolves linked sub-collections, so the effective
	// path may differ from the requested one.
	path = obj.Path()
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
	reps := make([]types.Replica, len(members))
	dests := make([]*replica.Dest, len(members))
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
		b.Cat.DeleteObject(path)
		b.audit(user, "ingest", path, false, "stream: "+err.Error())
		return types.DataObject{}, types.E("ingest", path, err)
	}
	size, sum := fo.Size(), fo.Checksum()
	wrote := 0
	for i, dst := range dests {
		if dst != nil && dst.Err == nil {
			reps[i].Status = types.ReplicaClean
			reps[i].Size = size
			reps[i].Checksum = sum
			wrote++
		}
	}
	if wrote == 0 {
		b.Cat.DeleteObject(path)
		b.audit(user, "ingest", path, false, "no online member of "+opts.Resource)
		return types.DataObject{}, types.E("ingest", path, types.ErrOffline)
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Size = size
		o.Checksum = sum
		o.Replicas = reps
		return nil
	})
	if err != nil {
		return types.DataObject{}, err
	}
	if async {
		// Deferred fan-out: every replica the write path did not land
		// becomes a journaled repair task; the dirty rows written above
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
	for _, avu := range opts.Meta {
		if err := b.Cat.AddMeta(path, types.MetaUser, avu); err != nil {
			return types.DataObject{}, err
		}
	}
	b.audit(user, "ingest", path, true, fmt.Sprintf("%d bytes on %s (%d replicas)", size, opts.Resource, len(reps)))
	return b.Cat.GetObject(path)
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
// It is OpenGet plus one read into a buffer of the object's size.
func (b *Broker) GetTraced(user, path string, sp *obs.Span) ([]byte, error) {
	f, size, err := b.OpenGet(user, path, sp)
	if err != nil {
		return nil, err
	}
	data, err := storage.ReadSized(f, size)
	f.Close()
	if err != nil {
		return nil, types.E("read", path, err)
	}
	return data, nil
}

// OpenGet opens an object's contents for one whole-object read and
// returns the reader with the size it will yield. File objects stream
// from the replica the manager selected; the other kinds (container
// members, SQL, URL, method, shadow listings) are produced in memory and
// served from there. The get is accounted when the reader is closed —
// broker.get latency, hot-key bytes — from the bytes actually read.
func (b *Broker) OpenGet(user, path string, sp *obs.Span) (storage.ReadFile, int64, error) {
	start := time.Now()
	o, err := b.checkRead(user, path, "get")
	sp.Phase(obs.PhaseMCATLookup, time.Since(start))
	var f storage.ReadFile
	var size int64
	if err == nil {
		f, size, err = b.openObject(user, &o, sp)
		b.auditTraced(sp, user, "get", path, err == nil, "")
	}
	if err != nil {
		b.ops.get.Done(start, err)
		b.ops.heat.Record(shard.KeyOf(path), 0)
		return nil, 0, err
	}
	return &getHandle{ReadFile: f, b: b, key: shard.KeyOf(path), start: start}, size, nil
}

// getHandle accounts one get when its reader is closed.
type getHandle struct {
	storage.ReadFile
	b      *Broker
	key    string
	start  time.Time
	n      int64
	err    error
	closed bool
}

func (h *getHandle) Read(p []byte) (int, error) {
	n, err := h.ReadFile.Read(p)
	h.n += int64(n)
	if err != nil && err != io.EOF {
		h.err = err
	}
	return n, err
}

func (h *getHandle) Close() error {
	if !h.closed {
		h.closed = true
		h.b.ops.get.Done(h.start, h.err)
		h.b.ops.heat.Record(h.key, h.n)
	}
	return h.ReadFile.Close()
}

// getObject reads o's contents whole, for the callers that parse them
// (metadata files, templates): small objects by nature.
func (b *Broker) getObject(user string, o *types.DataObject, sp *obs.Span) ([]byte, error) {
	f, size, err := b.openObject(user, o, sp)
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

// openObject opens o's contents by kind (see OpenGet).
func (b *Broker) openObject(user string, o *types.DataObject, sp *obs.Span) (storage.ReadFile, int64, error) {
	switch o.Kind {
	case types.KindFile:
		if o.Container != "" {
			sp.Event(obs.EventContainerHit, o.Container)
			return openBytes(b.readContainerMember(o))
		}
		f, rep, err := b.rm.OpenReadEv(o.Path(), "", sp)
		if err != nil {
			return nil, 0, err
		}
		return f, rep.Size, nil
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
		return b.openObject(user, &target, sp)
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
		return nil, 0, types.E("get", o.Path(), types.ErrUnsupported)
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

// OpenRead opens an object for positional and partial reads (the
// parallel-transfer primitive). Unlike OpenGet it is audited as "open"
// and not accounted as a get.
func (b *Broker) OpenRead(user, path string) (storage.ReadFile, int64, error) {
	o, err := b.checkRead(user, path, "open")
	if err != nil {
		return nil, 0, err
	}
	return b.openObject(user, &o, nil)
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
	f, _, err := b.openObject(user, &o, nil)
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
	coll := types.Parent(linkPath)
	if err := b.need(user, coll, acl.Write, "link"); err != nil {
		return err
	}
	_, err = b.Cat.RegisterObject(&types.DataObject{
		Name: types.Base(linkPath), Collection: coll, Owner: user,
		Kind: types.KindLink, LinkTarget: types.CleanPath(target),
	})
	b.audit(user, "link", linkPath, err == nil, "-> "+target)
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
	switch o.Kind {
	case types.KindFile, types.KindRegisteredFile:
		// Physical bytes go with the object. Registered files are also
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
	err = b.Cat.DeleteObject(path)
	b.audit(user, "delete", path, err == nil, o.Kind.String())
	return err
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
