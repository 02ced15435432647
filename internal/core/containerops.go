package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/chunk"
	"gosrb/internal/container"
	"gosrb/internal/replica"
	"gosrb/internal/types"
)

// ContainerDataType tags container objects in the catalog.
const ContainerDataType = "srb-container"

// CreateContainer creates an empty container on the named resource.
// With a logical resource the segment exists on every member and
// "replication of a container (and its objects) is done by the SRB
// system using semantics associated with the logical resource
// specification of the container" (paper §5).
func (b *Broker) CreateContainer(user, path, resource string) (types.DataObject, error) {
	start := time.Now()
	o, err := b.createContainer(user, path, resource)
	b.ops.mkContainer.Done(start, err)
	return o, err
}

func (b *Broker) createContainer(user, path, resource string) (types.DataObject, error) {
	coll := types.Parent(path)
	if err := b.need(user, coll, acl.Write, "mkcontainer"); err != nil {
		return types.DataObject{}, err
	}
	if b.Cat.ResourceLevel(resource, user) < acl.Write {
		return types.DataObject{}, types.E("mkcontainer", resource, types.ErrPermission)
	}
	members, err := b.Cat.ResolvePhysical(resource)
	if err != nil {
		return types.DataObject{}, err
	}
	obj := &types.DataObject{
		Name: types.Base(path), Collection: coll, Owner: user,
		Kind: types.KindFile, DataType: ContainerDataType,
	}
	id, err := b.Cat.RegisterObject(obj)
	if err != nil {
		return types.DataObject{}, err
	}
	obj.ID = id
	var reps []types.Replica
	for i, m := range members {
		physPath := replica.PhysPathFor(obj, types.ReplicaNumber(i))
		d, derr := b.Driver(m.Name)
		if derr != nil {
			b.Cat.DeleteObject(path)
			return types.DataObject{}, derr
		}
		if _, err := container.NewWriter(d, physPath); err != nil {
			b.Cat.DeleteObject(path)
			return types.DataObject{}, err
		}
		reps = append(reps, types.Replica{
			Number: types.ReplicaNumber(i), Resource: m.Name,
			PhysicalPath: physPath, Status: types.ReplicaClean,
			Size: container.HeaderSize, CreatedAt: b.now(),
		})
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Replicas = reps
		o.Size = container.HeaderSize
		return nil
	})
	if err != nil {
		return types.DataObject{}, err
	}
	b.audit(user, "mkcontainer", path, true, resource)
	return b.Cat.GetObject(path)
}

// ingestIntoContainer appends the data as a record in every clean
// online segment replica (offsets stay aligned because appends are
// serialised per container) and registers the member object.
func (b *Broker) ingestIntoContainer(user, path string, opts IngestOpts) (types.DataObject, error) {
	if opts.Reader != nil {
		data, err := readMember(opts.Reader)
		if err != nil {
			return types.DataObject{}, types.E("ingest", path, err)
		}
		opts.Data = data
	}
	contPath := types.CleanPath(opts.Container)
	cont, err := b.Cat.GetObject(contPath)
	if err != nil {
		return types.DataObject{}, types.E("ingest", contPath, types.ErrNotFound)
	}
	if cont.DataType != ContainerDataType {
		return types.DataObject{}, types.E("ingest", contPath, types.ErrInvalid)
	}
	if err := b.need(user, contPath, acl.Write, "ingest"); err != nil {
		return types.DataObject{}, err
	}

	lock := b.contLock(contPath)
	lock.Lock()
	defer lock.Unlock()

	// Re-read under the append lock for a current view.
	cont, err = b.Cat.GetObject(contPath)
	if err != nil {
		return types.DataObject{}, err
	}
	var offset int64 = -1
	appended := make(map[types.ReplicaNumber]bool)
	for _, rep := range cont.Replicas {
		if rep.Status != types.ReplicaClean {
			continue
		}
		res, rerr := b.Cat.GetResource(rep.Resource)
		if rerr != nil || !res.Online {
			continue
		}
		d, derr := b.Driver(rep.Resource)
		if derr != nil {
			continue
		}
		w, werr := container.NewWriter(d, rep.PhysicalPath)
		if werr != nil {
			continue
		}
		off, aerr := w.Append(opts.Data)
		if aerr != nil {
			continue
		}
		if offset < 0 {
			offset = off
		} else if off != offset {
			// Alignment broken (should not happen): mark dirty.
			continue
		}
		appended[rep.Number] = true
	}
	if offset < 0 {
		b.audit(user, "ingest", path, false, "container has no writable replica")
		return types.DataObject{}, types.E("ingest", contPath, types.ErrOffline)
	}
	// Update container replica states and size.
	if err := b.Cat.UpdateObject(contPath, func(o *types.DataObject) error {
		newSize := offset + int64(len(opts.Data))
		o.Size = newSize
		for i := range o.Replicas {
			r := &o.Replicas[i]
			if appended[r.Number] {
				r.Size = newSize
			} else {
				r.Status = types.ReplicaDirty
			}
		}
		return nil
	}); err != nil {
		return types.DataObject{}, err
	}

	dataType := opts.DataType
	if dataType == "" {
		dataType = "generic"
	}
	obj := &types.DataObject{
		Name: types.Base(path), Collection: types.Parent(path), Owner: user,
		Kind: types.KindFile, DataType: dataType,
		Container: contPath, ContainerOffset: offset, ContainerSize: int64(len(opts.Data)),
		Size: int64(len(opts.Data)), Checksum: replica.Checksum(opts.Data),
	}
	if _, err := b.Cat.RegisterObject(obj); err != nil {
		return types.DataObject{}, err
	}
	path = obj.Path() // linked sub-collections resolve at registration
	for _, avu := range opts.Meta {
		if err := b.Cat.AddMeta(path, types.MetaUser, avu); err != nil {
			return types.DataObject{}, err
		}
	}
	b.audit(user, "ingest", path, true, fmt.Sprintf("into container %s at %d", contPath, offset))
	return b.Cat.GetObject(path)
}

// readMember buffers one container member. A segment record is written
// length-first, so a member's bytes must be in hand before the append —
// containers exist to aggregate small files, and this is the one place
// an ingest is held whole.
func readMember(r io.Reader) ([]byte, error) {
	var m bytes.Buffer
	_, err := chunk.Copy(&m, r)
	return m.Bytes(), err
}

// readContainerMember extracts a member's bytes from any clean online
// segment replica.
func (b *Broker) readContainerMember(o *types.DataObject) ([]byte, error) {
	cont, err := b.Cat.GetObject(o.Container)
	if err != nil {
		return nil, types.E("get", o.Container, types.ErrNotFound)
	}
	var lastErr error = types.ErrOffline
	for _, rep := range cont.Replicas {
		if rep.Status != types.ReplicaClean {
			continue
		}
		res, rerr := b.Cat.GetResource(rep.Resource)
		if rerr != nil || !res.Online {
			continue
		}
		d, derr := b.Driver(rep.Resource)
		if derr != nil {
			lastErr = derr
			continue
		}
		data, err := container.Read(d, rep.PhysicalPath, o.ContainerOffset, o.ContainerSize)
		if err != nil {
			lastErr = err
			continue
		}
		return data, nil
	}
	return nil, types.E("get", o.Path(), lastErr)
}

// reingestContainerMember appends the new contents as a fresh record
// and repoints the member; the old bytes remain in the segment until
// the container is compacted or removed.
func (b *Broker) reingestContainerMember(user, path string, data []byte) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return err
	}
	tmp, err := b.ingestAppendOnly(o.Container, data)
	if err != nil {
		return err
	}
	err = b.Cat.UpdateObject(path, func(obj *types.DataObject) error {
		obj.ContainerOffset = tmp
		obj.ContainerSize = int64(len(data))
		obj.Size = int64(len(data))
		obj.Checksum = replica.Checksum(data)
		return nil
	})
	b.audit(user, "reingest", path, err == nil, "container member")
	return err
}

// ingestAppendOnly appends raw bytes to a container's clean replicas
// and returns the aligned payload offset.
func (b *Broker) ingestAppendOnly(contPath string, data []byte) (int64, error) {
	lock := b.contLock(contPath)
	lock.Lock()
	defer lock.Unlock()
	cont, err := b.Cat.GetObject(contPath)
	if err != nil {
		return 0, err
	}
	var offset int64 = -1
	appended := make(map[types.ReplicaNumber]bool)
	for _, rep := range cont.Replicas {
		if rep.Status != types.ReplicaClean {
			continue
		}
		res, rerr := b.Cat.GetResource(rep.Resource)
		if rerr != nil || !res.Online {
			continue
		}
		d, derr := b.Driver(rep.Resource)
		if derr != nil {
			continue
		}
		w, werr := container.NewWriter(d, rep.PhysicalPath)
		if werr != nil {
			continue
		}
		off, aerr := w.Append(data)
		if aerr != nil {
			continue
		}
		if offset < 0 {
			offset = off
		}
		appended[rep.Number] = true
	}
	if offset < 0 {
		return 0, types.E("append", contPath, types.ErrOffline)
	}
	err = b.Cat.UpdateObject(contPath, func(o *types.DataObject) error {
		newSize := offset + int64(len(data))
		o.Size = newSize
		for i := range o.Replicas {
			r := &o.Replicas[i]
			if appended[r.Number] {
				r.Size = newSize
			} else {
				r.Status = types.ReplicaDirty
			}
		}
		return nil
	})
	return offset, err
}

// SyncContainer refreshes dirty segment replicas from a clean one and
// returns how many were repaired.
func (b *Broker) SyncContainer(user, contPath string) (int, error) {
	start := time.Now()
	n, err := b.syncContainer(user, contPath)
	b.ops.syncContainer.Done(start, err)
	return n, err
}

func (b *Broker) syncContainer(user, contPath string) (int, error) {
	cont, err := b.Cat.GetObject(contPath)
	if err != nil {
		return 0, err
	}
	if cont.DataType != ContainerDataType {
		return 0, types.E("synccontainer", contPath, types.ErrInvalid)
	}
	if err := b.need(user, contPath, acl.Write, "synccontainer"); err != nil {
		return 0, err
	}
	lock := b.contLock(contPath)
	lock.Lock()
	defer lock.Unlock()
	cont, err = b.Cat.GetObject(contPath)
	if err != nil {
		return 0, err
	}
	var srcRep *types.Replica
	for i := range cont.Replicas {
		if cont.Replicas[i].Status == types.ReplicaClean {
			if res, err := b.Cat.GetResource(cont.Replicas[i].Resource); err == nil && res.Online {
				srcRep = &cont.Replicas[i]
				break
			}
		}
	}
	if srcRep == nil {
		return 0, types.E("synccontainer", contPath, types.ErrOffline)
	}
	srcD, err := b.Driver(srcRep.Resource)
	if err != nil {
		return 0, err
	}
	fixed := make(map[types.ReplicaNumber]bool)
	for _, rep := range cont.Replicas {
		if rep.Status != types.ReplicaDirty {
			continue
		}
		res, rerr := b.Cat.GetResource(rep.Resource)
		if rerr != nil || !res.Online {
			continue
		}
		d, derr := b.Driver(rep.Resource)
		if derr != nil {
			continue
		}
		if _, err := container.Copy(d, rep.PhysicalPath, srcD, srcRep.PhysicalPath); err != nil {
			continue
		}
		fixed[rep.Number] = true
	}
	if len(fixed) > 0 {
		err = b.Cat.UpdateObject(contPath, func(o *types.DataObject) error {
			for i := range o.Replicas {
				if fixed[o.Replicas[i].Number] {
					o.Replicas[i].Status = types.ReplicaClean
					o.Replicas[i].Size = o.Size
				}
			}
			return nil
		})
	}
	b.audit(user, "synccontainer", contPath, err == nil, fmt.Sprintf("%d replicas", len(fixed)))
	return len(fixed), err
}

// DeleteContainer removes an empty container and its segments.
func (b *Broker) DeleteContainer(user, contPath string) error {
	cont, err := b.Cat.GetObject(contPath)
	if err != nil {
		return err
	}
	if cont.DataType != ContainerDataType {
		return types.E("rmcontainer", contPath, types.ErrInvalid)
	}
	if err := b.need(user, contPath, acl.Own, "rmcontainer"); err != nil {
		return err
	}
	if members := b.Cat.ObjectsInContainer(contPath); len(members) > 0 {
		return types.E("rmcontainer", contPath, types.ErrNotEmpty)
	}
	for _, rep := range cont.Replicas {
		if d, err := b.Driver(rep.Resource); err == nil {
			d.Remove(rep.PhysicalPath)
		}
	}
	err = b.Cat.DeleteObject(contPath)
	b.audit(user, "rmcontainer", contPath, err == nil, "")
	return err
}
