package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// This file implements the paper's lock, pin and checkout/checkin
// operations (§5) plus cache management, which pins exist to survive.

// DefaultLockTTL bounds a lock when the caller gives none ("a lock
// placed by a user has an expiry date at which time it gets unlocked").
const DefaultLockTTL = time.Hour

// Lock places a shared or exclusive lock. Shared locks block writes by
// others but allow reads; exclusive locks allow no interactions.
func (b *Broker) Lock(user, path string, kind types.LockKind, ttl time.Duration) error {
	if kind != types.LockShared && kind != types.LockExclusive {
		return types.E("lock", path, types.ErrInvalid)
	}
	if err := b.need(user, path, acl.Write, "lock"); err != nil {
		return err
	}
	if ttl <= 0 {
		ttl = DefaultLockTTL
	}
	now := b.now()
	err := b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		if o.Lock.Active(now) && o.Lock.Holder != user {
			return types.E("lock", path, types.ErrLocked)
		}
		o.Lock = types.Lock{Kind: kind, Holder: user, Expires: now.Add(ttl)}
		return nil
	})
	b.audit(user, "lock", path, err == nil, kind.String())
	return err
}

// Unlock removes the caller's lock ("a user-driven unlock operation is
// also supported").
func (b *Broker) Unlock(user, path string) error {
	// Resolved outside the mutator: catalog calls inside UpdateObject
	// would deadlock against its write lock.
	isAdmin := b.Cat.IsAdmin(user)
	err := b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		if o.Lock.Kind == types.LockNone {
			return nil
		}
		if o.Lock.Holder != user && !isAdmin {
			return types.E("unlock", path, types.ErrPermission)
		}
		o.Lock = types.Lock{}
		return nil
	})
	b.audit(user, "unlock", path, err == nil, "")
	return err
}

// Pin protects the object's replica on resource from cache purging
// until the pin expires or is removed.
func (b *Broker) Pin(user, path, resource string, ttl time.Duration) error {
	if err := b.need(user, path, acl.Read, "pin"); err != nil {
		return err
	}
	if ttl <= 0 {
		ttl = DefaultLockTTL
	}
	now := b.now()
	err := b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		found := false
		for _, r := range o.Replicas {
			if r.Resource == resource {
				found = true
				break
			}
		}
		if !found {
			return types.E("pin", path, types.ErrNotFound)
		}
		for i := range o.Pins {
			if o.Pins[i].Resource == resource && o.Pins[i].Holder == user {
				o.Pins[i].Expires = now.Add(ttl)
				return nil
			}
		}
		o.Pins = append(o.Pins, types.Pin{Resource: resource, Holder: user, Expires: now.Add(ttl)})
		return nil
	})
	b.audit(user, "pin", path, err == nil, resource)
	return err
}

// Unpin removes the caller's pin on the resource.
func (b *Broker) Unpin(user, path, resource string) error {
	isAdmin := b.Cat.IsAdmin(user) // see Unlock: no catalog calls under UpdateObject
	err := b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		kept := o.Pins[:0:0]
		for _, p := range o.Pins {
			if p.Resource == resource && (p.Holder == user || isAdmin) {
				continue
			}
			kept = append(kept, p)
		}
		o.Pins = kept
		return nil
	})
	b.audit(user, "unpin", path, err == nil, resource)
	return err
}

// Checkout takes an object out for editing: no other user may change it
// until checkin ("a checkout by a user disallows any changes to be made
// to that object").
func (b *Broker) Checkout(user, path string) error {
	if err := b.need(user, path, acl.Write, "checkout"); err != nil {
		return err
	}
	now := b.now()
	err := b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		if o.Kind != types.KindFile {
			return types.E("checkout", path, types.ErrUnsupported)
		}
		if o.CheckedOutBy != "" && o.CheckedOutBy != user {
			return types.E("checkout", path, types.ErrLocked)
		}
		if o.Lock.Active(now) && o.Lock.Holder != user {
			return types.E("checkout", path, types.ErrLocked)
		}
		o.CheckedOutBy = user
		return nil
	})
	b.audit(user, "checkout", path, err == nil, "")
	return err
}

// Checkin stores new contents while preserving the previous state as a
// numbered version ("the older version of the object is still
// maintained as an earlier version with a distinct version number").
func (b *Broker) Checkin(user, path string, data []byte, comment string) error {
	return b.CheckinFrom(user, path, bytes.NewReader(data), comment)
}

// CheckinFrom is Checkin with the new contents streamed from r.
func (b *Broker) CheckinFrom(user, path string, r io.Reader, comment string) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return err
	}
	if o.CheckedOutBy != user {
		return types.E("checkin", path, types.ErrLocked)
	}
	if o.Container != "" {
		return types.E("checkin", path, types.ErrUnsupported)
	}
	rep, ok := o.CleanReplica("")
	if !ok {
		return types.E("checkin", path, types.ErrOffline)
	}
	// Preserve the old bytes as a version copy alongside the replica.
	verNo := len(o.Versions) + 1
	verPath := fmt.Sprintf("%s.v%d", rep.PhysicalPath, verNo)
	d, err := b.Driver(rep.Resource)
	if err != nil {
		return err
	}
	if _, err := storage.Copy(d, verPath, d, rep.PhysicalPath); err != nil {
		return types.E("checkin", path, err)
	}
	version := types.Version{
		Number: verNo, Resource: rep.Resource, Path: verPath,
		Size: rep.Size, Checksum: rep.Checksum, CreatedAt: b.now(), Comment: comment,
	}
	if _, err := b.rm.WriteFrom(path, r); err != nil {
		return err
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Versions = append(o.Versions, version)
		o.CheckedOutBy = ""
		return nil
	})
	b.audit(user, "checkin", path, err == nil, fmt.Sprintf("version %d preserved", verNo))
	return err
}

// Versions lists the preserved earlier states of an object.
func (b *Broker) Versions(user, path string) ([]types.Version, error) {
	if err := b.need(user, path, acl.Read, "versions"); err != nil {
		return nil, err
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return nil, err
	}
	return o.Versions, nil
}

// GetVersion retrieves the bytes of one preserved version.
func (b *Broker) GetVersion(user, path string, number int) ([]byte, error) {
	if err := b.need(user, path, acl.Read, "getversion"); err != nil {
		return nil, err
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return nil, err
	}
	for _, v := range o.Versions {
		if v.Number == number {
			d, err := b.Driver(v.Resource)
			if err != nil {
				return nil, err
			}
			return storage.ReadAll(d, v.Path)
		}
	}
	return nil, types.E("getversion", path, types.ErrNotFound)
}

// ---- cache management ----

// PurgeCache evicts replicas from a cache-class resource until its
// usage drops to keepBytes, skipping pinned replicas and replicas that
// are an object's only clean copy. It returns the number of replicas
// evicted. Administrators only.
func (b *Broker) PurgeCache(user, resource string, keepBytes int64) (int, error) {
	if !b.Cat.IsAdmin(user) {
		return 0, types.E("purge", resource, types.ErrPermission)
	}
	res, err := b.Cat.GetResource(resource)
	if err != nil {
		return 0, err
	}
	if res.Class != types.ClassCache {
		return 0, types.E("purge", resource, types.ErrInvalid)
	}
	d, err := b.Driver(resource)
	if err != nil {
		return 0, err
	}
	ur, ok := d.(storage.UsageReporter)
	if !ok {
		return 0, types.E("purge", resource, types.ErrUnsupported)
	}
	// Gather eviction candidates: (path, replica) pairs on the resource.
	type cand struct {
		path string
		rep  types.Replica
	}
	var cands []cand
	now := b.now()
	for _, p := range b.Cat.SubtreeObjects("/") {
		o, err := b.Cat.GetObject(p)
		if err != nil || o.Container != "" {
			continue
		}
		pinned := false
		for _, pin := range o.Pins {
			if pin.Resource == resource && pin.Active(now) {
				pinned = true
				break
			}
		}
		if pinned {
			continue
		}
		for _, r := range o.Replicas {
			if r.Resource != resource || r.Registered {
				continue
			}
			// Never evict the only clean copy.
			otherClean := false
			for _, rr := range o.Replicas {
				if rr.Number != r.Number && rr.Status == types.ReplicaClean {
					otherClean = true
					break
				}
			}
			if otherClean {
				cands = append(cands, cand{path: p, rep: r})
			}
		}
	}
	// Evict largest first until under the target.
	sort.Slice(cands, func(i, j int) bool { return cands[i].rep.Size > cands[j].rep.Size })
	evicted := 0
	for _, c := range cands {
		if ur.Usage().Bytes <= keepBytes {
			break
		}
		if err := b.rm.DeleteReplica(c.path, c.rep.Number); err == nil {
			evicted++
		}
	}
	b.audit(user, "purge", resource, true, fmt.Sprintf("%d replicas evicted", evicted))
	return evicted, nil
}
