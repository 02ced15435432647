package main

import (
	"path/filepath"
	"testing"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/repair"
	"gosrb/internal/replica"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// TestRepairQueueRestartRecovery proves the async-replication promise
// survives a daemon crash: an ingest onto an async:1 resource leaves
// two deferred fan-out tasks in the journaled queue, the daemon dies
// before any repair worker runs, and a fresh catalog replayed from the
// journal restores the queue exactly — whereupon a new engine drains it
// and the grid converges to three clean, byte-identical replicas.
func TestRepairQueueRestartRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "mcat.journal")
	members := []string{"d1", "d2", "d3"}
	mems := map[string]*memfs.FS{}
	for _, name := range members {
		mems[name] = memfs.New()
	}

	// First daemon lifetime: journal attached, no repair engine ever
	// started (the "crash" happens before the queue drains).
	j, err := mcat.OpenJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cat1 := mcat.New("admin", "sdsc")
	cat1.SetJournal(j)
	cat1.MkColl("/home", "admin")
	b1 := core.New(cat1, "srb1")
	for _, name := range members {
		if err := b1.AddPhysicalResource("admin", name, types.ClassFileSystem, "memfs", mems[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b1.AddLogicalResourcePolicy("admin", "lr", members, "async:1"); err != nil {
		t.Fatal(err)
	}

	payload := []byte("queued before the crash")
	o, err := b1.Ingest("admin", core.IngestOpts{Path: "/home/f.txt", Data: payload, Resource: "lr"})
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for _, r := range o.Replicas {
		if r.Status == types.ReplicaClean {
			clean++
		}
	}
	if clean != 1 || len(o.Replicas) != 3 {
		t.Fatalf("ingest landed %d/%d clean replicas, want 1/3", clean, len(o.Replicas))
	}
	if n, _ := cat1.RepairBacklog(); n != 2 {
		t.Fatalf("backlog after async ingest = %d, want 2", n)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay the journal into a fresh catalog. The queue must
	// come back exactly as it stood.
	cat2 := mcat.New("admin", "sdsc")
	j2, err := mcat.OpenJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := cat2.Resume(j2); err != nil {
		t.Fatal(err)
	}
	pending := cat2.PendingRepairs()
	if len(pending) != 2 {
		t.Fatalf("replayed queue = %d tasks, want 2: %+v", len(pending), pending)
	}
	want := map[string]bool{
		types.RepairKey("/home/f.txt", "d2"): true,
		types.RepairKey("/home/f.txt", "d3"): true,
	}
	for _, p := range pending {
		if !want[p.Key] {
			t.Errorf("unexpected replayed task %+v", p)
		}
		if p.Kind != "replicate" || p.Enqueued.IsZero() {
			t.Errorf("task lost fields in replay: %+v", p)
		}
	}

	// Re-attach the surviving storage and start the engine; the
	// restored queue must converge without any new enqueue.
	b2 := core.New(cat2, "srb1")
	for _, name := range members {
		if err := b2.Remount(name, mems[name]); err != nil {
			t.Fatal(err)
		}
	}
	eng := repair.New(repair.Config{
		Workers: 2,
		Queue:   cat2,
		Exec:    b2.RunRepairTask,
		Metrics: b2.Metrics(),
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Poll:    5 * time.Millisecond,
		Server:  "srb1",
		Seed:    chaosSeed,
	})
	b2.SetRepair(eng)
	eng.Start()
	t.Cleanup(eng.Stop)

	pollUntil(t, 10*time.Second, func() bool {
		n, _ := cat2.RepairBacklog()
		if n != 0 {
			return false
		}
		obj, err := cat2.GetObject("/home/f.txt")
		if err != nil {
			return false
		}
		for _, r := range obj.Replicas {
			if r.Status != types.ReplicaClean {
				return false
			}
		}
		return true
	}, "restored queue convergence")

	obj, err := cat2.GetObject("/home/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range obj.Replicas {
		data, err := storage.ReadAll(mems[r.Resource], r.PhysicalPath)
		if err != nil {
			t.Fatalf("read %s: %v", r.Resource, err)
		}
		if replica.Checksum(data) != obj.Checksum {
			t.Errorf("replica on %s diverges from catalog checksum", r.Resource)
		}
	}
}
