package core

import (
	"fmt"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/metadata"
	"gosrb/internal/types"
)

// ---- metadata operations ----

// AddMeta attaches user or type metadata. Per the paper, "user-defined
// metadata and type-oriented metadata can be ingested only by users who
// have 'ownership' permission for the SRB object or collection".
func (b *Broker) AddMeta(user, path string, class types.MetaClass, avu types.AVU) error {
	if class != types.MetaUser && class != types.MetaType {
		return types.E("addmeta", path, types.ErrUnsupported)
	}
	if err := b.need(user, path, acl.Own, "addmeta"); err != nil {
		return err
	}
	err := b.Cat.AddMeta(path, class, avu)
	b.audit(user, "addmeta", path, err == nil, avu.Name)
	return err
}

// GetMeta returns the metadata of one class; system metadata is
// synthesised from catalog state. It is AppendMeta into a fresh slice.
func (b *Broker) GetMeta(user, path string, class types.MetaClass) ([]types.AVU, error) {
	return b.AppendMeta(nil, user, path, class)
}

// AppendMeta appends the metadata of one class on path to dst: a caller
// that keeps dst from one call to the next (a server's connection slot)
// makes no slice for the triplets it only encodes. On error dst comes
// back unchanged.
func (b *Broker) AppendMeta(dst []types.AVU, user, path string, class types.MetaClass) ([]types.AVU, error) {
	if err := b.need(user, path, acl.Read, "getmeta"); err != nil {
		return dst, err
	}
	switch class {
	case types.MetaSystem:
		return b.systemMeta(dst, path)
	case types.MetaFile:
		return b.fileMeta(dst, user, path), nil
	}
	return b.Cat.AppendMeta(dst, path, class)
}

// systemMeta appends the system-defined metadata the paper says users
// "can view ... and also use in their search mechanism" to dst.
func (b *Broker) systemMeta(dst []types.AVU, path string) ([]types.AVU, error) {
	if col, err := b.Cat.GetColl(path); err == nil {
		return append(dst,
			types.AVU{Name: "sys:collection", Value: col.Path},
			types.AVU{Name: "sys:owner", Value: col.Owner},
			types.AVU{Name: "sys:created", Value: col.CreatedAt.UTC().Format("2006-01-02 15:04:05")},
		), nil
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return dst, err
	}
	out := append(dst, []types.AVU{
		{Name: "sys:name", Value: o.Name},
		{Name: "sys:collection", Value: o.Collection},
		{Name: "sys:owner", Value: o.Owner},
		{Name: "sys:kind", Value: o.Kind.String()},
		{Name: "sys:datatype", Value: o.DataType},
		{Name: "sys:size", Value: fmt.Sprint(o.Size)},
		{Name: "sys:replicas", Value: fmt.Sprint(len(o.Replicas))},
	}...)
	for _, r := range o.Replicas {
		out = append(out, types.AVU{
			Name:  fmt.Sprintf("sys:replica%d", r.Number),
			Value: r.Resource + ":" + r.PhysicalPath + " (" + r.Status.String() + ")",
		})
	}
	if o.Container != "" {
		out = append(out, types.AVU{Name: "sys:container", Value: o.Container})
	}
	return out, nil
}

// fileMeta appends the triplets from every attached metadata-carrying
// file to dst. "This metadata is used only for viewing and cannot take
// part in querying."
func (b *Broker) fileMeta(dst []types.AVU, user, path string) []types.AVU {
	for _, mf := range b.Cat.FileMeta(path) {
		o, err := b.Cat.GetObject(mf)
		if err != nil {
			continue
		}
		raw, err := b.getObject(user, &o, nil)
		if err != nil {
			continue
		}
		dst = append(dst, metadata.ParseTriplets(raw)...)
	}
	return dst
}

// UpdateMeta rewrites matching triplets; ownership required.
func (b *Broker) UpdateMeta(user, path string, class types.MetaClass, name, oldValue string, avu types.AVU) (int, error) {
	if err := b.need(user, path, acl.Own, "updmeta"); err != nil {
		return 0, err
	}
	n, err := b.Cat.UpdateMeta(path, class, name, oldValue, avu)
	b.audit(user, "updmeta", path, err == nil, name)
	return n, err
}

// DeleteMeta removes matching triplets; ownership required.
func (b *Broker) DeleteMeta(user, path string, class types.MetaClass, name, value string) (int, error) {
	if err := b.need(user, path, acl.Own, "delmeta"); err != nil {
		return 0, err
	}
	n, err := b.Cat.DeleteMeta(path, class, name, value)
	b.audit(user, "delmeta", path, err == nil, name)
	return n, err
}

// CopyMeta copies user/type metadata between objects (association
// method three). Read on the source, Own on the destination.
func (b *Broker) CopyMeta(user, from, to string) error {
	if err := b.need(user, from, acl.Read, "copymeta"); err != nil {
		return err
	}
	if err := b.need(user, to, acl.Own, "copymeta"); err != nil {
		return err
	}
	err := b.Cat.CopyMeta(from, to)
	b.audit(user, "copymeta", from, err == nil, "to "+to)
	return err
}

// AttachFileMeta associates a metadata-carrying file with an object.
func (b *Broker) AttachFileMeta(user, path, metaFile string) error {
	if err := b.need(user, path, acl.Own, "filemeta"); err != nil {
		return err
	}
	if err := b.need(user, metaFile, acl.Read, "filemeta"); err != nil {
		return err
	}
	err := b.Cat.AttachFileMeta(path, metaFile)
	b.audit(user, "filemeta", path, err == nil, metaFile)
	return err
}

// ExtractMeta runs a registered extraction method over the object (or,
// for SecondObject methods, over the companion object at fromPath) and
// stores the triplets as type metadata (association method four).
func (b *Broker) ExtractMeta(user, path, method, fromPath string) (int, error) {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return 0, err
	}
	if err := b.need(user, path, acl.Own, "extract"); err != nil {
		return 0, err
	}
	m, ok := b.extract.Lookup(o.DataType, method)
	if !ok {
		return 0, types.E("extract", o.DataType+"/"+method, types.ErrNotFound)
	}
	src, srcPath := o, path
	if m.SecondObject {
		if fromPath == "" {
			return 0, types.E("extract", path, types.ErrInvalid)
		}
		src, err = b.Cat.GetObject(fromPath)
		if err != nil {
			return 0, err
		}
		srcPath = fromPath
		if err := b.need(user, fromPath, acl.Read, "extract"); err != nil {
			return 0, err
		}
	}
	f, _, err := b.openObject(user, &src, types.CleanPath(srcPath), nil)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	avus, err := b.extract.Extract(o.DataType, method, f)
	if err != nil {
		return 0, err
	}
	for _, avu := range avus {
		if err := b.Cat.AddMeta(path, types.MetaType, avu); err != nil {
			return 0, err
		}
	}
	b.audit(user, "extract", path, true, fmt.Sprintf("%s: %d triplets", method, len(avus)))
	return len(avus), nil
}

// Annotate adds free-form commentary. Per the paper, "the annotations
// and commentary can be inserted by any user with a read permission on
// the object".
func (b *Broker) Annotate(user, path string, ann types.Annotation) error {
	if err := b.need(user, path, acl.Read, "annotate"); err != nil {
		return err
	}
	ann.Author = user
	err := b.Cat.AddAnnotation(path, ann)
	b.audit(user, "annotate", path, err == nil, ann.Kind)
	return err
}

// Annotations lists the commentary on a path.
func (b *Broker) Annotations(user, path string) ([]types.Annotation, error) {
	if err := b.need(user, path, acl.Read, "annotations"); err != nil {
		return nil, err
	}
	return b.Cat.Annotations(path)
}

// ---- access control and structural metadata ----

// ACL lists the grants stored on a path to a user who may read it.
func (b *Broker) ACL(user, path string) (acl.List, error) {
	if err := b.need(user, path, acl.Read, "acl"); err != nil {
		return nil, err
	}
	return b.Cat.GetACL(path)
}

// Chmod grants or revokes a permission level; Own required.
func (b *Broker) Chmod(user, path, grantee string, level acl.Level) error {
	if err := b.need(user, path, acl.Own, "chmod"); err != nil {
		return err
	}
	err := b.Cat.SetACL(path, grantee, level)
	b.audit(user, "chmod", path, err == nil, grantee+"="+level.String())
	return err
}

// SetStructural imposes a structural attribute on a collection; Curate
// required (the curator's tool for "enforc[ing] metadata that need to
// be provided when new items are added").
func (b *Broker) SetStructural(user, coll string, attr types.StructuralAttr) error {
	if err := b.need(user, coll, acl.Curate, "structural"); err != nil {
		return err
	}
	err := b.Cat.SetStructural(coll, attr)
	b.audit(user, "structural", coll, err == nil, attr.Name)
	return err
}

// Structural lists the requirements new members of coll must honour.
func (b *Broker) Structural(user, coll string) ([]types.StructuralAttr, error) {
	if err := b.need(user, coll, acl.Read, "structural"); err != nil {
		return nil, err
	}
	return b.Cat.Structural(coll), nil
}

// ---- query ----

// Query executes a conjunctive metadata query; hits are filtered to
// objects the user may read. It is QueryPartial held to the strict
// contract: an answer some catalog shard is missing from is refused with
// the ErrTimeout that names those shards.
func (b *Broker) Query(user string, q mcat.Query) ([]mcat.Hit, error) {
	hits, partial, err := b.QueryPartial(user, q)
	if err == nil && len(partial) > 0 {
		return nil, shard.PartialError(partial)
	}
	return hits, err
}

// QueryPartial is Query with partial-result reporting: when the
// catalog is sharded and a shard misses its deadline or is a stale
// follower, its name lands in partial and the hits from the shards
// that did answer are still returned. A monolithic catalog never
// reports partial shards. It is QueryInto on a fresh answer.
func (b *Broker) QueryPartial(user string, q mcat.Query) ([]mcat.Hit, []string, error) {
	var a mcat.Answer
	partial, err := b.QueryInto(&a, user, q)
	if err != nil {
		return nil, partial, err
	}
	return a.Hits, partial, nil
}

// QueryInto is QueryPartial into a, replacing what it held
// (Catalog.QueryInto): a caller that keeps a from one query to the next
// answers into its buffers. a.Hits is nil when the catalog matched
// nothing, and empty when it matched only hits the user may not read, as
// QueryPartial's hits are.
func (b *Broker) QueryInto(a *mcat.Answer, user string, q mcat.Query) ([]string, error) {
	start := time.Now()
	limit := q.Limit
	q.Limit = 0
	partial, err := b.Cat.QueryInto(a, q)
	if err != nil {
		b.ops.query.Done(start, err)
		return partial, err
	}
	a.Hits = b.readable(user, a.Hits, limit)
	b.audit(user, "query", q.Scope, true, fmt.Sprintf("%d conds, %d hits, %d partial shards", len(q.Conds), len(a.Hits), len(partial)))
	b.ops.query.Done(start, nil)
	b.ops.heat.Record(shard.KeyOf(q.Scope), 0)
	return partial, nil
}

// readable keeps the hits user may read, in order, cut at limit (0 =
// all), filtering hits in place and clearing the rest, and is nil when
// hits is empty. The query that found them ran without the limit:
// cutting before this filter would count hits the user cannot see.
func (b *Broker) readable(user string, hits []mcat.Hit, limit int) []mcat.Hit {
	if len(hits) == 0 {
		return nil
	}
	out := hits[:0]
	for _, h := range hits {
		if limit > 0 && len(out) == limit {
			break
		}
		if b.Cat.EffectiveLevel(h.Path, user) >= acl.Read {
			out = append(out, h)
		}
	}
	clear(hits[len(out):])
	return out
}

// QueryAttrNames feeds the query builder's attribute drop-down.
func (b *Broker) QueryAttrNames(user, scope string) []string {
	return b.Cat.QueryAttrNames(scope)
}
