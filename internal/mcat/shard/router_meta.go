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
// attributes on spine collections are instead broadcast (see route),
// because every shard evaluates permission and mandatory-metadata rules
// by walking a path's ancestors locally.

// ---- permissions ----

func (r *Router) SetACL(path, grantee string, level acl.Level) error {
	path = types.CleanPath(path)
	return r.write("setacl", path, func(c *mcat.Catalog) error { return c.SetACL(path, grantee, level) })
}

func (r *Router) GetACL(path string) (acl.List, error) { return r.home(path).GetACL(path) }

func (r *Router) EffectiveLevel(path, user string) acl.Level {
	return r.home(path).EffectiveLevel(path, user)
}

func (r *Router) SetResourceACL(resource, grantee string, level acl.Level) error {
	return r.write("setresourceacl", resource, func(c *mcat.Catalog) error { return c.SetResourceACL(resource, grantee, level) })
}

func (r *Router) ResourceLevel(resource, user string) acl.Level {
	return r.shards[0].cat.ResourceLevel(resource, user)
}

// ---- descriptive metadata ----

func (r *Router) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	return r.write("addmeta", path, func(c *mcat.Catalog) error { return c.AddMeta(path, class, avu) })
}

func (r *Router) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	return r.AppendMeta(nil, path, class)
}

func (r *Router) AppendMeta(dst []types.AVU, path string, class types.MetaClass) ([]types.AVU, error) {
	return r.home(path).AppendMeta(dst, path, class)
}

func (r *Router) AllMeta(path string) (map[types.MetaClass][]types.AVU, error) {
	return r.home(path).AllMeta(path)
}

func (r *Router) UpdateMeta(path string, class types.MetaClass, name, oldValue string, newAVU types.AVU) (n int, err error) {
	err = r.write("updmeta", path, func(c *mcat.Catalog) (err error) {
		n, err = c.UpdateMeta(path, class, name, oldValue, newAVU)
		return err
	})
	return n, err
}

func (r *Router) DeleteMeta(path string, class types.MetaClass, name, value string) (n int, err error) {
	err = r.write("delmeta", path, func(c *mcat.Catalog) (err error) {
		n, err = c.DeleteMeta(path, class, name, value)
		return err
	})
	return n, err
}

// CopyMeta copies queryable metadata between paths; across shards it
// exports from the source's home and replays onto the target's home.
func (r *Router) CopyMeta(from, to string) error {
	from, to = types.CleanPath(from), types.CleanPath(to)
	fi, ti := r.homeIdx(from), r.homeIdx(to)
	if fi == ti {
		return r.write("copymeta", to, func(c *mcat.Catalog) error { return c.CopyMeta(from, to) })
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
	if r.homeIdx(metaFile) != r.homeIdx(path) {
		return types.E("filemeta", path, fmt.Errorf("metadata file %s lives on another shard: %w", metaFile, types.ErrUnsupported))
	}
	return r.write("filemeta", path, func(c *mcat.Catalog) error { return c.AttachFileMeta(path, metaFile) })
}

func (r *Router) FileMeta(path string) []string { return r.home(path).FileMeta(path) }

// ---- structural metadata ----

func (r *Router) SetStructural(coll string, attr types.StructuralAttr) error {
	coll = types.CleanPath(coll)
	return r.write("structural", coll, func(c *mcat.Catalog) error { return c.SetStructural(coll, attr) })
}

func (r *Router) DeleteStructural(coll, name string) error {
	coll = types.CleanPath(coll)
	return r.write("delstructural", coll, func(c *mcat.Catalog) error { return c.DeleteStructural(coll, name) })
}

func (r *Router) Structural(coll string) []types.StructuralAttr {
	return r.home(coll).Structural(coll)
}

func (r *Router) CheckMandatory(coll string, provided []types.AVU) []string {
	return r.home(coll).CheckMandatory(coll, provided)
}

// ---- annotations ----

func (r *Router) AddAnnotation(path string, a types.Annotation) error {
	return r.write("annotate", path, func(c *mcat.Catalog) error { return c.AddAnnotation(path, a) })
}

func (r *Router) Annotations(path string) ([]types.Annotation, error) {
	return r.home(path).Annotations(path)
}

func (r *Router) DeleteAnnotations(path, author string) (n int, err error) {
	err = r.write("delannotations", path, func(c *mcat.Catalog) (err error) {
		n, err = c.DeleteAnnotations(path, author)
		return err
	})
	return n, err
}
