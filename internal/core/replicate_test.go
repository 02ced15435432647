package core

import (
	"sync/atomic"
	"testing"

	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// holdOpen is a driver whose next Open, once armed, opens its file and
// then waits for release: a copy reading from it is held between
// choosing its source and reading it.
type holdOpen struct {
	storage.Driver
	armed           atomic.Bool
	opened, release chan struct{}
}

func (d *holdOpen) Open(path string) (storage.ReadFile, error) {
	f, err := d.Driver.Open(path)
	if d.armed.CompareAndSwap(true, false) {
		close(d.opened)
		<-d.release
	}
	return f, err
}

// replicateDuring replicates path from disk1 to disk2 and runs write
// after the copy has opened its source and before it reads it.
func replicateDuring(t *testing.T, b *Broker, path string, write func() error) {
	t.Helper()
	d1, err := b.Driver("disk1")
	if err != nil {
		t.Fatal(err)
	}
	hold := &holdOpen{Driver: d1, opened: make(chan struct{}), release: make(chan struct{})}
	if err := b.Remount("disk1", hold); err != nil {
		t.Fatal(err)
	}
	hold.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := b.Replicate("alice", path, "disk2")
		done <- err
	}()
	select {
	case <-hold.opened:
	case err := <-done:
		t.Fatalf("replicate returned before it opened its source: %v", err)
	}
	werr := write()
	close(hold.release)
	err = <-done
	if werr != nil {
		t.Fatalf("write during replicate: %v", werr)
	}
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
}

// replicaOn returns the path's replica on resource.
func replicaOn(t *testing.T, b *Broker, path, resource string) types.Replica {
	t.Helper()
	o, err := b.Cat.GetObject(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range o.Replicas {
		if r.Resource == resource {
			return r
		}
	}
	t.Fatalf("%s has no replica on %s: %+v", path, resource, o.Replicas)
	return types.Replica{}
}

// TestReplicateOverlappingAppendIsDirty: a member appended while its
// container is being replicated leaves the new segment replica short of
// it, so the replica is recorded dirty, and a sync brings it up to date.
func TestReplicateOverlappingAppendIsDirty(t *testing.T) {
	b := newBroker(t)
	if _, err := b.CreateContainer("alice", "/home/cc", "disk1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m1", Data: []byte("first!"), Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	replicateDuring(t, b, "/home/cc", func() error {
		_, err := b.Ingest("alice", IngestOpts{Path: "/home/m2", Data: []byte("second"), Container: "/home/cc"})
		return err
	})
	if r := replicaOn(t, b, "/home/cc", "disk2"); r.Status != types.ReplicaDirty {
		t.Fatalf("segment replica copied before an append = %v at %d bytes, want dirty", r.Status, r.Size)
	}
	if n, err := b.SyncContainer("alice", "/home/cc"); err != nil || n != 1 {
		t.Fatalf("SyncContainer = %d, %v; want 1", n, err)
	}
	b.Cat.SetResourceOnline("disk1", false)
	if data, err := b.Get("alice", "/home/m2"); err != nil || string(data) != "second" {
		t.Errorf("member from the synced replica = %q, %v", data, err)
	}
}

// TestReplicateOverlappingReingestIsDirty: a file rewritten while it is
// being replicated leaves the new replica holding the old contents, so
// the replica is recorded dirty, and a sync brings it up to date.
func TestReplicateOverlappingReingestIsDirty(t *testing.T) {
	b := newBroker(t)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("old contents"), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	replicateDuring(t, b, "/home/f", func() error {
		return b.Reingest("alice", "/home/f", []byte("new contents"))
	})
	if r := replicaOn(t, b, "/home/f", "disk2"); r.Status != types.ReplicaDirty {
		t.Fatalf("replica copied before a reingest = %v, want dirty", r.Status)
	}
	if n, err := b.SyncAllDirty("admin"); err != nil || n != 1 {
		t.Fatalf("SyncAllDirty = %d, %v; want 1", n, err)
	}
	b.Cat.SetResourceOnline("disk1", false)
	if data, err := b.Get("alice", "/home/f"); err != nil || string(data) != "new contents" {
		t.Errorf("file from the synced replica = %q, %v", data, err)
	}
}
