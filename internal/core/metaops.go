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
// synthesised from catalog state.
func (b *Broker) GetMeta(user, path string, class types.MetaClass) ([]types.AVU, error) {
	if err := b.need(user, path, acl.Read, "getmeta"); err != nil {
		return nil, err
	}
	if class == types.MetaSystem {
		return b.systemMeta(path)
	}
	if class == types.MetaFile {
		return b.fileMeta(user, path)
	}
	return b.Cat.GetMeta(path, class)
}

// systemMeta renders the system-defined metadata the paper says users
// "can view ... and also use in their search mechanism".
func (b *Broker) systemMeta(path string) ([]types.AVU, error) {
	if col, err := b.Cat.GetColl(path); err == nil {
		return []types.AVU{
			{Name: "sys:collection", Value: col.Path},
			{Name: "sys:owner", Value: col.Owner},
			{Name: "sys:created", Value: col.CreatedAt.UTC().Format("2006-01-02 15:04:05")},
		}, nil
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return nil, err
	}
	out := []types.AVU{
		{Name: "sys:name", Value: o.Name},
		{Name: "sys:collection", Value: o.Collection},
		{Name: "sys:owner", Value: o.Owner},
		{Name: "sys:kind", Value: o.Kind.String()},
		{Name: "sys:datatype", Value: o.DataType},
		{Name: "sys:size", Value: fmt.Sprint(o.Size)},
		{Name: "sys:replicas", Value: fmt.Sprint(len(o.Replicas))},
	}
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

// fileMeta reads the triplets from every attached metadata-carrying
// file. "This metadata is used only for viewing and cannot take part in
// querying."
func (b *Broker) fileMeta(user, path string) ([]types.AVU, error) {
	var out []types.AVU
	for _, mf := range b.Cat.FileMeta(path) {
		o, err := b.Cat.GetObject(mf)
		if err != nil {
			continue
		}
		raw, err := b.getObject(user, &o, nil)
		if err != nil {
			continue
		}
		out = append(out, metadata.ParseTriplets(raw)...)
	}
	return out, nil
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
// reports partial shards.
func (b *Broker) QueryPartial(user string, q mcat.Query) ([]mcat.Hit, []string, error) {
	start := time.Now()
	limit := q.Limit
	q.Limit = 0
	hits, partial, err := b.Cat.QueryPartial(q)
	if err != nil {
		b.ops.query.Done(start, err)
		return nil, partial, err
	}
	hits = b.readable(user, hits, limit)
	b.audit(user, "query", q.Scope, true, fmt.Sprintf("%d conds, %d hits, %d partial shards", len(q.Conds), len(hits), len(partial)))
	b.ops.query.Done(start, nil)
	b.ops.heat.Record(shard.KeyOf(q.Scope), 0)
	return hits, partial, nil
}

// readable keeps the hits user may read, in order, cut at limit (0 =
// all), filtering hits in place: the catalog's answer is the caller's
// own. The query that found them ran without the limit: cutting before
// this filter would count hits the user cannot see.
func (b *Broker) readable(user string, hits []mcat.Hit, limit int) []mcat.Hit {
	out := hits[:0]
	for _, h := range hits {
		if limit > 0 && len(out) == limit {
			break
		}
		if b.Cat.EffectiveLevel(h.Path, user) >= acl.Read {
			out = append(out, h)
		}
	}
	return out
}

// QueryAttrNames feeds the query builder's attribute drop-down.
func (b *Broker) QueryAttrNames(user, scope string) []string {
	return b.Cat.QueryAttrNames(scope)
}
