package mcat

import (
	"reflect"
	"sync"
	"testing"

	"gosrb/internal/types"
)

// TestExportedRowOutlivesItsSource: a row exported from one catalog and
// ingested into another — the reshard and cross-shard move path — shares
// its slices with the source's row, read-only. It reads the same in the
// destination as it read in the source while the source deletes it and
// readers of both run (make race runs this under -race).
func TestExportedRowOutlivesItsSource(t *testing.T) {
	src, dst := newCat(t), newCat(t)
	mustMkColl(t, src, "/d", "admin")
	mustMkColl(t, dst, "/d", "admin")
	id, err := src.NewObjectID("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	o := &types.DataObject{ID: id, Collection: "/d", Name: "f", Owner: "u", Size: 3, Checksum: "abc",
		Replicas: []types.Replica{
			{Number: 0, Resource: "r1", PhysicalPath: "/phys/f.r0", Status: types.ReplicaClean, Size: 3, Checksum: "abc"},
			{Number: 1, Resource: "r2", PhysicalPath: "/phys/f.r1", Status: types.ReplicaClean, Size: 3, Checksum: "abc"},
		},
		Pins: []types.Pin{{Resource: "r1", Holder: "u"}}}
	if err := src.Ingest(o, []types.AVU{{Name: "band", Value: "J"}}); err != nil {
		t.Fatal(err)
	}
	want, err := src.GetObject("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Export("/d/f") {
		if err := dst.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e.Op, err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				got, err := dst.GetObject("/d/f")
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("destination row = %+v, %v; want %+v", got, err, want)
					return
				}
				src.GetObject("/d/f") // found or, once deleted, not
			}
		}()
	}
	if err := src.DeleteObject("/d/f"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := src.GetObject("/d/f"); err == nil {
		t.Fatal("the source still holds the row it deleted")
	}
	got, err := dst.GetObject("/d/f")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the source's delete the destination row = %+v, %v; want %+v", got, err, want)
	}
	if meta, err := dst.GetMeta("/d/f", types.MetaUser); err != nil || len(meta) != 1 || meta[0].Value != "J" {
		t.Errorf("the destination's metadata = %v, %v; want band=J", meta, err)
	}
}
