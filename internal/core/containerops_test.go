package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

func TestContainerLifecycle(t *testing.T) {
	b := newBroker(t)
	cont, err := b.CreateContainer("alice", "/home/cont1", "disk1")
	if err != nil {
		t.Fatal(err)
	}
	if cont.DataType != ContainerDataType || len(cont.Replicas) != 1 {
		t.Fatalf("container = %+v", cont)
	}
	// Ingest members; container spec overrides resource spec.
	var want []string
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("member-%d-data", i))
		want = append(want, string(data))
		_, err := b.Ingest("alice", IngestOpts{
			Path: fmt.Sprintf("/home/small%02d", i), Data: data,
			Resource:  "disk2", // ignored: container wins
			Container: "/home/cont1",
		})
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	// Members read back through the container.
	for i := 0; i < 20; i++ {
		got, err := b.Get("alice", fmt.Sprintf("/home/small%02d", i))
		if err != nil || string(got) != want[i] {
			t.Errorf("member %d = %q, %v", i, got, err)
		}
	}
	o, _ := b.Cat.GetObject("/home/small00")
	if o.Container != "/home/cont1" || len(o.Replicas) != 0 {
		t.Errorf("member object = %+v", o)
	}
	// Members are indexed by container.
	if got := len(b.Cat.ObjectsInContainer("/home/cont1")); got != 20 {
		t.Errorf("members = %d", got)
	}
	// A non-empty container refuses deletion.
	if err := b.DeleteContainer("alice", "/home/cont1"); !errors.Is(err, types.ErrNotEmpty) {
		t.Errorf("non-empty delete: %v", err)
	}
	// Delete members, then the container (bytes removed).
	for i := 0; i < 20; i++ {
		if err := b.Delete("alice", fmt.Sprintf("/home/small%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteContainer("alice", "/home/cont1"); err != nil {
		t.Fatal(err)
	}
	d, _ := b.Driver("disk1")
	if _, err := d.Stat(cont.Replicas[0].PhysicalPath); !errors.Is(err, types.ErrNotFound) {
		t.Error("segment should be removed")
	}
}

func TestContainerOnLogicalResource(t *testing.T) {
	b := newBroker(t)
	cont, err := b.CreateContainer("alice", "/home/cc", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if len(cont.Replicas) != 2 {
		t.Fatalf("segment replicas = %+v", cont.Replicas)
	}
	b.Ingest("alice", IngestOpts{Path: "/home/m1", Data: []byte("aligned"), Container: "/home/cc"})
	// Offsets are aligned: the member reads from either segment.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/m1")
	if err != nil || string(data) != "aligned" {
		t.Errorf("read via disk2 segment = %q, %v", data, err)
	}
	b.Cat.SetResourceOnline("disk1", true)
	b.Cat.SetResourceOnline("disk2", false)
	data, err = b.Get("alice", "/home/m1")
	if err != nil || string(data) != "aligned" {
		t.Errorf("read via disk1 segment = %q, %v", data, err)
	}
	b.Cat.SetResourceOnline("disk2", true)

	// getVia reads the member under a trace and wants it served past
	// disk1 with an event of the given kind naming why.
	getVia := func(name, kind, detail string) {
		t.Helper()
		sp := obs.StartSpan(0, "get")
		data, err := b.GetTraced("alice", "/home/m1", sp)
		if err != nil || string(data) != "aligned" {
			t.Fatalf("%s: get = %q, %v", name, data, err)
		}
		for _, ev := range sp.Events() {
			if ev.Kind == kind && strings.Contains(ev.Detail, detail) {
				return
			}
		}
		t.Errorf("%s: no %s event naming %s in %+v", name, kind, detail, sp.Events())
	}
	// A segment that missed the member's append is too short to hold
	// it: the read fails over to disk2's.
	d1, _ := b.Driver("disk1")
	seg := cont.Replicas[0].PhysicalPath
	full, err := storage.ReadAll(d1, seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d1, seg, full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	getVia("disk1 segment truncated", obs.EventFailover, "disk2")
	if err := storage.WriteAll(d1, seg, full); err != nil {
		t.Fatal(err)
	}
	// An open breaker routes the read around disk1 before it is tried.
	b.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	b.Breakers().For("resource", "disk1").Failure()
	getVia("disk1 breaker open", obs.EventBreakerFast, "resource.disk1")
}

// TestMemberGetStreams: a member get streams from its segment, so
// reading a 1 MiB member allocates a small fraction of its size. Run it
// without -race: the race detector's own allocations would swamp it.
func TestMemberGetStreams(t *testing.T) {
	b := newBroker(t)
	if _, err := b.CreateContainer("alice", "/home/cc", "disk1"); err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/big", Data: bytes.Repeat([]byte("m"), size), Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	get := func() {
		row := b.Lookup("/home/big")
		var f GetHandle
		n, err := b.OpenGet(&f, "alice", &row, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if got, err := io.Copy(io.Discard, &f); err != nil || got != size || n != size {
			t.Fatalf("member get = %d of %d bytes, %v; want %d", got, n, err, size)
		}
	}
	get() // warm the pools a get draws on
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a 1 MiB member get allocated %d bytes", got)
	if got >= 64<<10 {
		t.Errorf("a 1 MiB member get allocated %d bytes, want under %d", got, 64<<10)
	}
}

func TestContainerDirtyAndSync(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "mirror")
	// disk2 goes down; appends land only on disk1 and mark disk2 dirty.
	b.Cat.SetResourceOnline("disk2", false)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m1", Data: []byte("while-down"), Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	cont, _ := b.Cat.GetObject("/home/cc")
	var st1, st2 types.ReplicaStatus
	for _, r := range cont.Replicas {
		if r.Resource == "disk1" {
			st1 = r.Status
		} else {
			st2 = r.Status
		}
	}
	if st1 != types.ReplicaClean || st2 != types.ReplicaDirty {
		t.Fatalf("statuses = %v, %v", st1, st2)
	}
	// Back online: sync repairs the dirty segment.
	b.Cat.SetResourceOnline("disk2", true)
	n, err := b.SyncContainer("alice", "/home/cc")
	if err != nil || n != 1 {
		t.Fatalf("SyncContainer = %d, %v", n, err)
	}
	// Reads work from the repaired copy alone.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/m1")
	if err != nil || string(data) != "while-down" {
		t.Errorf("read from synced = %q, %v", data, err)
	}
}

func TestContainerMemberReingest(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "disk1")
	b.Ingest("alice", IngestOpts{Path: "/home/m", Data: []byte("old"), Container: "/home/cc"})
	if err := b.Reingest("alice", "/home/m", []byte("new contents")); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("alice", "/home/m")
	if err != nil || string(data) != "new contents" {
		t.Errorf("after member reingest = %q, %v", data, err)
	}
}

func TestContainerMemberNotReplicable(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "disk1")
	b.Ingest("alice", IngestOpts{Path: "/home/m", Data: []byte("x"), Container: "/home/cc"})
	if _, err := b.Replicate("alice", "/home/m", "disk2"); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("replicating container member: %v", err)
	}
}

func TestIngestIntoNonContainer(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/plain", Data: []byte("x"), Resource: "disk1"})
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m", Data: nil, Container: "/home/plain"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("non-container target: %v", err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m", Data: nil, Container: "/home/ghost"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing container: %v", err)
	}
}

func TestConcurrentContainerAppends(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "mirror")
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 10; i++ {
				_, err = b.Ingest("alice", IngestOpts{
					Path:      fmt.Sprintf("/home/c-%d-%d", w, i),
					Data:      []byte(fmt.Sprintf("payload %d %d", w, i)),
					Container: "/home/cc",
				})
				if err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every member reads back correctly from both segments.
	for w := 0; w < 8; w++ {
		for i := 0; i < 10; i++ {
			p := fmt.Sprintf("/home/c-%d-%d", w, i)
			got, err := b.Get("alice", p)
			if err != nil || string(got) != fmt.Sprintf("payload %d %d", w, i) {
				t.Fatalf("%s = %q, %v", p, got, err)
			}
		}
	}
}
