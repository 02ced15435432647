package shard

import (
	"fmt"

	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Renames that stay inside one routing key delegate to the home shard
// unchanged. A rename that lands a path on another shard moves the
// entry — for a collection, the whole subtree — in four steps: export
// it from the source shard, rebase the entries to the new path, apply
// them on the destination, delete it from the source. Every step is
// journaled, so replication and crash replay see deletes on one shard
// and the entries that recreate the subtree, identity preserved, on the
// other: each object one "ingest" entry with its user metadata.

func (r *Router) MoveObject(oldPath, newColl, newName string) error {
	oldPath = types.CleanPath(oldPath)
	newPath := types.Join(newColl, newName)
	si, di := r.homeIdx(oldPath), r.homeIdx(newPath)
	if si == di {
		return r.write("move", oldPath, func(c *mcat.Catalog) error { return c.MoveObject(oldPath, newColl, newName) })
	}
	if err := r.writable(si, "move", oldPath); err != nil {
		return err
	}
	if err := r.writable(di, "move", newPath); err != nil {
		return err
	}
	src, dst := r.shards[si].cat, r.shards[di].cat
	if _, err := src.GetObject(oldPath); err != nil {
		return err
	}
	entries := src.Export(oldPath)
	for _, e := range entries {
		if e.Op == "filemeta" && r.homeIdx(e.Path2) != di {
			return types.E("move", oldPath, fmt.Errorf("attached metadata file %s cannot follow across shards: %w", e.Path2, types.ErrUnsupported))
		}
	}
	if !dst.CollExists(newColl) {
		return types.E("move", newColl, types.ErrNotFound)
	}
	return moveAcross(src, dst, entries, oldPath, newPath)
}

func (r *Router) MoveColl(oldPath, newPath string) error {
	oldPath, newPath = types.CleanPath(oldPath), types.CleanPath(newPath)
	si, di := r.homeIdx(oldPath), r.homeIdx(newPath)
	if r.n == 1 || (si == di && !Spine(oldPath) && !Spine(newPath)) {
		return r.write("movecoll", oldPath, func(c *mcat.Catalog) error { return c.MoveColl(oldPath, newPath) })
	}
	if Spine(oldPath) || Spine(newPath) {
		return types.E("movecoll", oldPath, fmt.Errorf("renaming a top-level collection would re-home every shard: %w", types.ErrUnsupported))
	}
	if err := r.writable(si, "movecoll", oldPath); err != nil {
		return err
	}
	if err := r.writable(di, "movecoll", newPath); err != nil {
		return err
	}
	src, dst := r.shards[si].cat, r.shards[di].cat
	if _, err := src.GetColl(oldPath); err != nil {
		return err
	}
	if !dst.CollExists(types.Parent(newPath)) {
		return types.E("movecoll", types.Parent(newPath), types.ErrNotFound)
	}
	if _, err := dst.GetObject(newPath); err == nil || dst.CollExists(newPath) {
		return types.E("movecoll", newPath, types.ErrExists)
	}
	// An attachment must stay inside the moving subtree, or it would
	// point at an object on another shard.
	entries := src.Export(oldPath)
	for _, e := range entries {
		if e.Op == "filemeta" && !types.WithinOrEqual(oldPath, e.Path2) {
			return types.E("movecoll", e.Path, fmt.Errorf("attached metadata file %s is outside the moving subtree: %w", e.Path2, types.ErrUnsupported))
		}
	}
	return moveAcross(src, dst, entries, oldPath, newPath)
}

// moveAcross applies entries, exported from src at oldPath, on dst at
// newPath, then deletes them from src. An entry dst refuses unwinds
// what was applied there and leaves src as it was.
func moveAcross(src, dst *mcat.Catalog, entries []mcat.Entry, oldPath, newPath string) error {
	moved := make([]mcat.Entry, 0, len(entries))
	for _, e := range entries {
		e = e.Rebase(oldPath, newPath)
		if err := dst.Apply(e); err != nil {
			remove(dst, moved)
			return err
		}
		moved = append(moved, e)
	}
	return remove(src, entries)
}

// remove deletes the collections and objects that exported entries
// create, last first — children before their parents — and with them
// every per-path record.
func remove(c *mcat.Catalog, entries []mcat.Entry) error {
	for i := len(entries) - 1; i >= 0; i-- {
		var err error
		switch e := entries[i]; e.Op {
		case "ingest":
			err = c.DeleteObject(e.Object.Path())
		case "mkcoll":
			err = c.DeleteColl(e.Coll.Path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
