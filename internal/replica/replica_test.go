package replica

import (
	"errors"
	"testing"

	"gosrb/internal/mcat"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// drivers is a test DriverMap over memfs stores.
type drivers map[string]storage.Driver

func (d drivers) Driver(resource string) (storage.Driver, error) {
	dr, ok := d[resource]
	if !ok {
		return nil, types.E("driver", resource, types.ErrNotFound)
	}
	return dr, nil
}

// rig assembles a catalog with three physical resources and one object
// ingested on r1.
func rig(t *testing.T) (*mcat.Catalog, drivers, *Manager) {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	dm := drivers{"r1": memfs.New(), "r2": memfs.New(), "r3": memfs.New()}
	for _, r := range []string{"r1", "r2", "r3"} {
		if err := cat.AddResource(types.Resource{Name: r, Kind: types.ResourcePhysical, Driver: "memfs"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.MkColl("/d", "admin"); err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat, dm)
	obj := &types.DataObject{Name: "f", Collection: "/d", Owner: "u", Kind: types.KindFile}
	if _, err := cat.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	phys := PhysPathFor(obj, 0)
	data := []byte("replica payload")
	if err := storage.WriteAll(dm["r1"], phys, data); err != nil {
		t.Fatal(err)
	}
	err := cat.UpdateObject("/d/f", func(o *types.DataObject) error {
		o.Size = int64(len(data))
		o.Checksum = Checksum(data)
		o.Replicas = []types.Replica{{
			Number: 0, Resource: "r1", PhysicalPath: phys,
			Status: types.ReplicaClean, Size: int64(len(data)), Checksum: Checksum(data),
		}}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, dm, m
}

func TestReadAll(t *testing.T) {
	_, _, m := rig(t)
	data, rep, err := m.ReadAll("/d/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "replica payload" || rep.Resource != "r1" {
		t.Errorf("read = %q from %s", data, rep.Resource)
	}
}

func TestReplicateCreatesSecondCopy(t *testing.T) {
	cat, dm, m := rig(t)
	rep, err := m.Replicate("/d/f", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Number != 1 || rep.Resource != "r2" {
		t.Errorf("new replica = %+v", rep)
	}
	o, _ := cat.GetObject("/d/f")
	if len(o.Replicas) != 2 {
		t.Fatalf("replicas = %+v", o.Replicas)
	}
	// Bytes really exist on r2 and match.
	got, err := storage.ReadAll(dm["r2"], rep.PhysicalPath)
	if err != nil || string(got) != "replica payload" {
		t.Errorf("r2 bytes = %q, %v", got, err)
	}
	if rep.Checksum != o.Replicas[0].Checksum {
		t.Error("checksums should match across replicas")
	}
	// Replicating onto a logical resource is invalid.
	cat.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"r1", "r2"}})
	if _, err := m.Replicate("/d/f", "lr"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("logical target: %v", err)
	}
}

func TestFailoverToSecondReplica(t *testing.T) {
	cat, _, m := rig(t)
	if _, err := m.Replicate("/d/f", "r2"); err != nil {
		t.Fatal(err)
	}
	// Knock the primary offline: reads silently fail over (paper §3.4).
	cat.SetResourceOnline("r1", false)
	data, rep, err := m.ReadAll("/d/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resource != "r2" || string(data) != "replica payload" {
		t.Errorf("failover read = %q from %s", data, rep.Resource)
	}
	// All resources down: ErrOffline.
	cat.SetResourceOnline("r2", false)
	if _, _, err := m.ReadAll("/d/f", ""); !errors.Is(err, types.ErrOffline) {
		t.Errorf("all offline: %v", err)
	}
}

func TestPreferredResource(t *testing.T) {
	_, _, m := rig(t)
	if _, err := m.Replicate("/d/f", "r2"); err != nil {
		t.Fatal(err)
	}
	_, rep, err := m.ReadAll("/d/f", "r2")
	if err != nil || rep.Resource != "r2" {
		t.Errorf("preferred read from %s, %v", rep.Resource, err)
	}
}

func TestRoundRobinSpreadsReads(t *testing.T) {
	_, _, m := rig(t)
	m.Replicate("/d/f", "r2")
	m.Replicate("/d/f", "r3")
	m.SetPolicy(RoundRobin)
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		_, rep, err := m.ReadAll("/d/f", "")
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Resource]++
	}
	if len(seen) != 3 {
		t.Errorf("round robin used %v", seen)
	}
	for r, n := range seen {
		if n != 3 {
			t.Errorf("resource %s served %d of 9", r, n)
		}
	}
}

func TestWriteAllMarksUnreachableDirty(t *testing.T) {
	cat, _, m := rig(t)
	m.Replicate("/d/f", "r2")
	cat.SetResourceOnline("r2", false)
	if err := m.WriteAll("/d/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	o, _ := cat.GetObject("/d/f")
	var r1, r2 types.Replica
	for _, r := range o.Replicas {
		switch r.Resource {
		case "r1":
			r1 = r
		case "r2":
			r2 = r
		}
	}
	if r1.Status != types.ReplicaClean || r1.Size != 2 {
		t.Errorf("r1 = %+v", r1)
	}
	if r2.Status != types.ReplicaDirty {
		t.Errorf("r2 = %+v", r2)
	}
	// Reads never land on the dirty replica.
	cat.SetResourceOnline("r2", true)
	for i := 0; i < 5; i++ {
		data, rep, err := m.ReadAll("/d/f", "")
		if err != nil || rep.Resource != "r1" || string(data) != "v2" {
			t.Fatalf("read %d = %q from %s, %v", i, data, rep.Resource, err)
		}
	}
	// SyncDirty repairs it.
	n, err := m.SyncDirty("/d/f")
	if err != nil || n != 1 {
		t.Fatalf("SyncDirty = %d, %v", n, err)
	}
	o, _ = cat.GetObject("/d/f")
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean || r.Size != 2 {
			t.Errorf("after sync: %+v", r)
		}
	}
	data, _, _ := m.ReadAll("/d/f", "r2")
	if string(data) != "v2" {
		t.Errorf("r2 content after sync = %q", data)
	}
	// Sync with nothing dirty is a no-op.
	if n, _ := m.SyncDirty("/d/f"); n != 0 {
		t.Errorf("second sync = %d", n)
	}
}

func TestWriteAllAllOffline(t *testing.T) {
	cat, _, m := rig(t)
	cat.SetResourceOnline("r1", false)
	if err := m.WriteAll("/d/f", []byte("x")); !errors.Is(err, types.ErrOffline) {
		t.Errorf("write all-offline: %v", err)
	}
}

func TestPhysicalMove(t *testing.T) {
	cat, dm, m := rig(t)
	o, _ := cat.GetObject("/d/f")
	oldPhys := o.Replicas[0].PhysicalPath
	if err := m.PhysicalMove("/d/f", 0, "r3"); err != nil {
		t.Fatal(err)
	}
	o, _ = cat.GetObject("/d/f")
	if o.Replicas[0].Resource != "r3" {
		t.Errorf("replica after move = %+v", o.Replicas[0])
	}
	if _, err := dm["r1"].Stat(oldPhys); !errors.Is(err, types.ErrNotFound) {
		t.Error("old bytes should be removed")
	}
	data, _, err := m.ReadAll("/d/f", "")
	if err != nil || string(data) != "replica payload" {
		t.Errorf("read after move = %q, %v", data, err)
	}
	if err := m.PhysicalMove("/d/f", 9, "r2"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing replica number: %v", err)
	}
}

func TestDeleteReplica(t *testing.T) {
	cat, dm, m := rig(t)
	rep, err := m.Replicate("/d/f", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteReplica("/d/f", rep.Number); err != nil {
		t.Fatal(err)
	}
	o, _ := cat.GetObject("/d/f")
	if len(o.Replicas) != 1 {
		t.Errorf("replicas = %+v", o.Replicas)
	}
	if _, err := dm["r2"].Stat(rep.PhysicalPath); !errors.Is(err, types.ErrNotFound) {
		t.Error("replica bytes should be gone")
	}
	// The last replica cannot be deleted through the replica manager.
	if err := m.DeleteReplica("/d/f", 0); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("last replica: %v", err)
	}
}

func TestReplicaNumbersNeverReused(t *testing.T) {
	cat, _, m := rig(t)
	r1, _ := m.Replicate("/d/f", "r2")
	if err := m.DeleteReplica("/d/f", r1.Number); err != nil {
		t.Fatal(err)
	}
	r2, err := m.Replicate("/d/f", "r3")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Number <= r1.Number {
		// Numbers are assigned past the highest live number; deleting
		// the top one may allow reuse, which is acceptable — but the
		// new number must never collide with a live replica.
		o, _ := cat.GetObject("/d/f")
		seen := map[types.ReplicaNumber]int{}
		for _, r := range o.Replicas {
			seen[r.Number]++
			if seen[r.Number] > 1 {
				t.Errorf("duplicate replica number %d", r.Number)
			}
		}
	}
}

func TestReplicateErrorPaths(t *testing.T) {
	cat, _, m := rig(t)
	// Offline target.
	cat.SetResourceOnline("r2", false)
	if _, err := m.Replicate("/d/f", "r2"); !errors.Is(err, types.ErrOffline) {
		t.Errorf("offline target = %v", err)
	}
	cat.SetResourceOnline("r2", true)
	// Unknown target resource.
	if _, err := m.Replicate("/d/f", "ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("unknown target = %v", err)
	}
	// Unknown object.
	if _, err := m.Replicate("/d/ghost", "r2"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("unknown object = %v", err)
	}
	// Registered kinds are not replicable through the manager.
	cat.RegisterObject(&types.DataObject{Name: "u", Collection: "/d", Kind: types.KindURL, URL: "mem://x"})
	if _, err := m.Replicate("/d/u", "r2"); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("url replicate = %v", err)
	}
}

func TestPhysicalMoveGuards(t *testing.T) {
	cat, _, m := rig(t)
	// Non-physical target.
	cat.AddResource(types.Resource{Name: "lr", Kind: types.ResourceLogical, Members: []string{"r1", "r2"}})
	if err := m.PhysicalMove("/d/f", 0, "lr"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("move to logical = %v", err)
	}
	// Offline target.
	cat.SetResourceOnline("r3", false)
	if err := m.PhysicalMove("/d/f", 0, "r3"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("move to offline = %v", err)
	}
	// Unknown object / resource.
	if err := m.PhysicalMove("/d/ghost", 0, "r2"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("move missing object = %v", err)
	}
	if err := m.PhysicalMove("/d/f", 0, "ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("move to missing = %v", err)
	}
}

func TestSyncDirtyWithSourceOffline(t *testing.T) {
	cat, _, m := rig(t)
	if _, err := m.Replicate("/d/f", "r2"); err != nil {
		t.Fatal(err)
	}
	cat.SetResourceOnline("r2", false)
	if err := m.WriteAll("/d/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// With every clean replica unreachable, sync fails cleanly.
	cat.SetResourceOnline("r2", true)
	cat.SetResourceOnline("r1", false)
	if _, err := m.SyncDirty("/d/f"); err == nil {
		t.Error("sync without a reachable clean replica should fail")
	}
	cat.SetResourceOnline("r1", true)
	if n, err := m.SyncDirty("/d/f"); err != nil || n != 1 {
		t.Errorf("sync after recovery = %d, %v", n, err)
	}
}
