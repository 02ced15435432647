//go:build rowcanary

package mcat

import (
	"strings"
	"testing"

	"gosrb/internal/types"
)

// TestRowCanaryCatchesSharedWrite: a write into a returned row's
// replicas lands in the catalog's own row, and the canary names it on
// the next hand-out, replacement or delete.
func TestRowCanaryCatchesSharedWrite(t *testing.T) {
	for _, next := range []struct {
		name string
		op   func(c *Catalog) error
	}{
		{"get", func(c *Catalog) error { _, err := c.GetObject("/d/f"); return err }},
		{"update", func(c *Catalog) error {
			return c.UpdateObject("/d/f", func(o *types.DataObject) error { o.Size = 1; return nil })
		}},
		{"delete", func(c *Catalog) error { return c.DeleteObject("/d/f") }},
	} {
		t.Run(next.name, func(t *testing.T) {
			c := newCat(t)
			mustMkColl(t, c, "/d", "admin")
			mustRegister(t, c, "/d", "f", "u")
			o, err := c.GetObject("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			o.Replicas[0].Status = types.ReplicaDirty
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "row canary") || !strings.Contains(msg, "/d/f") {
					t.Fatalf("a write into a shared row went unnoticed (recovered %q)", msg)
				}
			}()
			next.op(c)
		})
	}
}

// TestRowCanaryCatchesWriteAfterIngest: the object handed to Ingest is
// the row the catalog stores, so its caller writing into it afterwards
// writes into the catalog, and the canary names the path on the next
// hand-out, replacement or delete.
func TestRowCanaryCatchesWriteAfterIngest(t *testing.T) {
	for _, next := range []struct {
		name string
		op   func(c *Catalog) error
	}{
		{"get", func(c *Catalog) error { _, err := c.GetObject("/d/f"); return err }},
		{"update", func(c *Catalog) error {
			return c.UpdateObject("/d/f", func(o *types.DataObject) error { o.Size = 1; return nil })
		}},
		{"delete", func(c *Catalog) error { return c.DeleteObject("/d/f") }},
	} {
		t.Run(next.name, func(t *testing.T) {
			c := newCat(t)
			mustMkColl(t, c, "/d", "admin")
			id, err := c.NewObjectID("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			o := &types.DataObject{ID: id, Collection: "/d", Name: "f", Owner: "u", Size: 3,
				Replicas: []types.Replica{{Number: 0, Resource: "r1", PhysicalPath: "/phys/f", Status: types.ReplicaClean}}}
			if err := c.Ingest("/d/f", o, []types.AVU{{Name: "band", Value: "J"}}); err != nil {
				t.Fatal(err)
			}
			o.Size = 4
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "row canary") || !strings.Contains(msg, "/d/f") {
					t.Fatalf("a write into an ingested object went unnoticed (recovered %q)", msg)
				}
			}()
			next.op(c)
		})
	}
}
