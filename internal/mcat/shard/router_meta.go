package shard

import (
	"fmt"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Per-path metadata (descriptive triplets, annotations, file-metadata
// pointers) is single-homed on the path's shard — even for spine
// paths, whose key hashes deterministically. ACLs and structural
// attributes on spine paths are instead broadcast, because every shard
// evaluates permission and mandatory-metadata rules by walking a
// path's ancestors locally.

// spineColl reports whether path is a collection every shard mirrors —
// the root or a depth-1 collection — so its ACL and structural rules
// broadcast. An object directly under the root lives on its home shard
// alone.
func (r *Router) spineColl(path string) bool {
	return r.n > 1 && Spine(path) && r.home(path).CollExists(path)
}

// ---- permissions ----

func (r *Router) SetACL(path, grantee string, level acl.Level) error {
	path = types.CleanPath(path)
	if r.spineColl(path) {
		if err := r.writableAll("setacl", path); err != nil {
			return err
		}
		return r.each(func(c *mcat.Catalog) error { return c.SetACL(path, grantee, level) })
	}
	i := r.homeIdx(path)
	if err := r.writable(i, "setacl", path); err != nil {
		return err
	}
	return r.shards[i].cat.SetACL(path, grantee, level)
}

func (r *Router) GetACL(path string) (acl.List, error) { return r.home(path).GetACL(path) }

func (r *Router) EffectiveLevel(path, user string) acl.Level {
	return r.home(path).EffectiveLevel(path, user)
}

func (r *Router) SetResourceACL(resource, grantee string, level acl.Level) error {
	if err := r.writableAll("resourceacl", resource); err != nil {
		return err
	}
	return r.each(func(c *mcat.Catalog) error { return c.SetResourceACL(resource, grantee, level) })
}

func (r *Router) ResourceLevel(resource, user string) acl.Level {
	return r.shards[0].cat.ResourceLevel(resource, user)
}

// ---- descriptive metadata ----

func (r *Router) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	i := r.homeIdx(path)
	if err := r.writable(i, "addmeta", path); err != nil {
		return err
	}
	return r.shards[i].cat.AddMeta(path, class, avu)
}

func (r *Router) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	return r.home(path).GetMeta(path, class)
}

func (r *Router) AllMeta(path string) (map[types.MetaClass][]types.AVU, error) {
	return r.home(path).AllMeta(path)
}

func (r *Router) UpdateMeta(path string, class types.MetaClass, name, oldValue string, newAVU types.AVU) (int, error) {
	i := r.homeIdx(path)
	if err := r.writable(i, "updmeta", path); err != nil {
		return 0, err
	}
	return r.shards[i].cat.UpdateMeta(path, class, name, oldValue, newAVU)
}

func (r *Router) DeleteMeta(path string, class types.MetaClass, name, value string) (int, error) {
	i := r.homeIdx(path)
	if err := r.writable(i, "delmeta", path); err != nil {
		return 0, err
	}
	return r.shards[i].cat.DeleteMeta(path, class, name, value)
}

// CopyMeta copies queryable metadata between paths; across shards it
// exports from the source's home and replays onto the target's home.
func (r *Router) CopyMeta(from, to string) error {
	from, to = types.CleanPath(from), types.CleanPath(to)
	fi, ti := r.homeIdx(from), r.homeIdx(to)
	if fi == ti {
		if err := r.writable(ti, "copymeta", to); err != nil {
			return err
		}
		return r.shards[ti].cat.CopyMeta(from, to)
	}
	if err := r.writable(fi, "copymeta", from); err != nil {
		return err
	}
	if err := r.writable(ti, "copymeta", to); err != nil {
		return err
	}
	src, dst := r.shards[fi].cat, r.shards[ti].cat
	all, err := src.AllMeta(from)
	if err != nil {
		return err
	}
	// Probe target existence the same way the monolithic CopyMeta does.
	if _, err := dst.AllMeta(to); err != nil {
		return types.E("copymeta", to, types.ErrNotFound)
	}
	for class, avus := range all {
		if !mcat.QueryableClass(class) {
			continue
		}
		for _, avu := range avus {
			if err := dst.AddMeta(to, class, avu); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- file-based metadata ----

func (r *Router) AttachFileMeta(path, metaFile string) error {
	path, metaFile = types.CleanPath(path), types.CleanPath(metaFile)
	i := r.homeIdx(path)
	if r.n > 1 && r.homeIdx(metaFile) != i {
		return types.E("filemeta", path, fmt.Errorf("metadata file %s lives on another shard: %w", metaFile, types.ErrUnsupported))
	}
	if err := r.writable(i, "filemeta", path); err != nil {
		return err
	}
	return r.shards[i].cat.AttachFileMeta(path, metaFile)
}

func (r *Router) FileMeta(path string) []string { return r.home(path).FileMeta(path) }

// ---- structural metadata ----

func (r *Router) SetStructural(coll string, attr types.StructuralAttr) error {
	coll = types.CleanPath(coll)
	if r.spineColl(coll) {
		if err := r.writableAll("structural", coll); err != nil {
			return err
		}
		return r.each(func(c *mcat.Catalog) error { return c.SetStructural(coll, attr) })
	}
	i := r.homeIdx(coll)
	if err := r.writable(i, "structural", coll); err != nil {
		return err
	}
	return r.shards[i].cat.SetStructural(coll, attr)
}

func (r *Router) DeleteStructural(coll, name string) error {
	coll = types.CleanPath(coll)
	if r.spineColl(coll) {
		if err := r.writableAll("structural", coll); err != nil {
			return err
		}
		return r.each(func(c *mcat.Catalog) error { return c.DeleteStructural(coll, name) })
	}
	i := r.homeIdx(coll)
	if err := r.writable(i, "structural", coll); err != nil {
		return err
	}
	return r.shards[i].cat.DeleteStructural(coll, name)
}

func (r *Router) Structural(coll string) []types.StructuralAttr {
	return r.home(coll).Structural(coll)
}

func (r *Router) CheckMandatory(coll string, provided []types.AVU) []string {
	return r.home(coll).CheckMandatory(coll, provided)
}

// ---- annotations ----

func (r *Router) AddAnnotation(path string, a types.Annotation) error {
	i := r.homeIdx(path)
	if err := r.writable(i, "annotate", path); err != nil {
		return err
	}
	return r.shards[i].cat.AddAnnotation(path, a)
}

func (r *Router) Annotations(path string) ([]types.Annotation, error) {
	return r.home(path).Annotations(path)
}

func (r *Router) DeleteAnnotations(path, author string) (int, error) {
	i := r.homeIdx(path)
	if err := r.writable(i, "delannotations", path); err != nil {
		return 0, err
	}
	return r.shards[i].cat.DeleteAnnotations(path, author)
}
