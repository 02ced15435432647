package wire

import (
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Body type tags. tagJSON marks a type without a binary layout; each hot
// type has a tag of its own. The numbers are the protocol: append new
// ones, never renumber.
const (
	tagJSON byte = iota
	tagEmpty
	tagPathArgs
	tagIngestArgs
	tagMetaArgs
	tagGetMetaArgs
	tagAnnotateArgs
	tagRangeArgs
	tagQueryArgs
	tagMultiGetArgs
	tagBulkStatArgs
	tagSizeReply
	tagStat
	tagStats
	tagDataObject
	tagAVUs
	tagQueryReply
	tagMultiGetReply
	tagBulkStatReply
)

// appendBinary appends *v's tag and binary layout to b when v points to
// a hot type: the args and replies of the ops that make up the
// small-object workload (stat, ls, get, put, meta, annotate, query, the
// batches) and the empty reply of every op that answers with nothing. v
// does not escape.
func appendBinary(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case *struct{}:
		b = append(b, tagEmpty)
	case *PathArgs:
		b = appendString(append(b, tagPathArgs), x.Path)
	case *IngestArgs:
		b = appendString(append(b, tagIngestArgs), x.Path)
		b = appendString(b, x.Resource)
		b = appendString(b, x.Container)
		b = appendString(b, x.DataType)
		b = appendSlice(b, x.Meta, appendAVU)
	case *MetaArgs:
		b = appendString(append(b, tagMetaArgs), x.Path)
		b = appendInt(b, x.Class)
		b = appendAVU(b, &x.AVU)
	case *GetMetaArgs:
		b = appendString(append(b, tagGetMetaArgs), x.Path)
		b = appendInt(b, x.Class)
	case *AnnotateArgs:
		b = appendString(append(b, tagAnnotateArgs), x.Path)
		b = appendString(b, x.Ann.Author)
		b = appendString(b, x.Ann.Kind)
		b = appendString(b, x.Ann.Location)
		b = appendString(b, x.Ann.Text)
		b = appendTime(b, x.Ann.CreatedAt)
	case *RangeArgs:
		b = appendString(append(b, tagRangeArgs), x.Path)
		b = appendInt64(b, x.Offset)
		b = appendInt64(b, x.Length)
	case *QueryArgs:
		b = appendString(append(b, tagQueryArgs), x.Q.Scope)
		b = appendSlice(b, x.Q.Conds, appendCondition)
		b = appendStrings(b, x.Q.Select)
		b = appendInt(b, x.Q.Limit)
	case *MultiGetArgs:
		b = appendStrings(append(b, tagMultiGetArgs), x.Paths)
	case *BulkStatArgs:
		b = appendStrings(append(b, tagBulkStatArgs), x.Paths)
	case *SizeReply:
		b = appendInt64(append(b, tagSizeReply), x.Size)
	case *types.Stat:
		b = appendStat(append(b, tagStat), x)
	case *[]types.Stat:
		b = appendSlice(append(b, tagStats), *x, appendStat)
	case *types.DataObject:
		b = appendObject(append(b, tagDataObject), x)
	case *[]types.AVU:
		b = appendSlice(append(b, tagAVUs), *x, appendAVU)
	case *QueryReply:
		b = appendSlice(append(b, tagQueryReply), x.Hits, appendHit)
		partial := x.Partial
		if len(partial) == 0 {
			partial = nil // omitempty in JSON: an empty list arrives as nil
		}
		b = appendStrings(b, partial)
	case *MultiGetReply:
		b = appendString(append(b, tagMultiGetReply), x.Server)
		b = appendSlice(b, x.Items, appendMultiGetItem)
	case *BulkStatReply:
		b = appendString(append(b, tagBulkStatReply), x.Server)
		b = appendSlice(b, x.Items, appendBulkStatItem)
	default:
		return b, false
	}
	return b, true
}

// decodeBinary decodes body into v when v points to a hot type; ok is
// false (v untouched) when it does not. v does not escape. own gives
// each decoded string an allocation of its own; otherwise they share one
// (see decoder.string).
func decodeBinary(body []byte, v any, own bool) (ok bool, err error) {
	d := decoder{b: body, own: own}
	tag := d.byte()
	switch x := v.(type) {
	case *struct{}:
		d.tag(tag, tagEmpty)
	case *PathArgs:
		d.tag(tag, tagPathArgs)
		x.Path = d.string()
	case *IngestArgs:
		d.tag(tag, tagIngestArgs)
		x.Path = d.string()
		x.Resource = d.string()
		x.Container = d.string()
		x.DataType = d.string()
		x.Meta = makeSlice[types.AVU](&d, 3)
		for i := range x.Meta {
			d.avu(&x.Meta[i])
		}
	case *MetaArgs:
		d.tag(tag, tagMetaArgs)
		x.Path = d.string()
		x.Class = d.int()
		d.avu(&x.AVU)
	case *GetMetaArgs:
		d.tag(tag, tagGetMetaArgs)
		x.Path = d.string()
		x.Class = d.int()
	case *AnnotateArgs:
		d.tag(tag, tagAnnotateArgs)
		x.Path = d.string()
		x.Ann.Author = d.string()
		x.Ann.Kind = d.string()
		x.Ann.Location = d.string()
		x.Ann.Text = d.string()
		x.Ann.CreatedAt = d.time()
	case *RangeArgs:
		d.tag(tag, tagRangeArgs)
		x.Path = d.string()
		x.Offset = d.varint()
		x.Length = d.varint()
	case *QueryArgs:
		d.tag(tag, tagQueryArgs)
		x.Q.Scope = d.string()
		x.Q.Conds = makeSlice[mcat.Condition](&d, 3)
		for i := range x.Q.Conds {
			d.condition(&x.Q.Conds[i])
		}
		x.Q.Select = d.strings()
		x.Q.Limit = d.int()
	case *MultiGetArgs:
		d.tag(tag, tagMultiGetArgs)
		x.Paths = d.strings()
	case *BulkStatArgs:
		d.tag(tag, tagBulkStatArgs)
		x.Paths = d.strings()
	case *SizeReply:
		d.tag(tag, tagSizeReply)
		x.Size = d.varint()
	case *types.Stat:
		d.tag(tag, tagStat)
		d.stat(x)
	case *[]types.Stat:
		d.tag(tag, tagStats)
		*x = makeSlice[types.Stat](&d, minStat)
		for i := range *x {
			d.stat(&(*x)[i])
		}
	case *types.DataObject:
		d.tag(tag, tagDataObject)
		d.object(x)
	case *[]types.AVU:
		d.tag(tag, tagAVUs)
		*x = makeSlice[types.AVU](&d, 3)
		for i := range *x {
			d.avu(&(*x)[i])
		}
	case *QueryReply:
		d.tag(tag, tagQueryReply)
		x.Hits = d.hits()
		x.Partial = d.strings()
	case *MultiGetReply:
		d.tag(tag, tagMultiGetReply)
		x.Server = d.string()
		x.Items = makeSlice[MultiGetItem](&d, 5)
		for i := range x.Items {
			d.multiGetItem(&x.Items[i])
		}
	case *BulkStatReply:
		d.tag(tag, tagBulkStatReply)
		x.Server = d.string()
		x.Items = makeSlice[BulkStatItem](&d, 4+minStat)
		for i := range x.Items {
			d.bulkStatItem(&x.Items[i])
		}
	default:
		return false, nil
	}
	d.end()
	return true, d.err
}

// tag fails a body whose tag is not want.
func (d *decoder) tag(got, want byte) {
	if got != want {
		if d.err == nil {
			d.err = errTag
		}
		d.off = len(d.b)
	}
}

func appendAVU(b []byte, a *types.AVU) []byte {
	b = appendString(b, a.Name)
	b = appendString(b, a.Value)
	return appendString(b, a.Units)
}

func (d *decoder) avu(a *types.AVU) {
	a.Name = d.string()
	a.Value = d.string()
	a.Units = d.string()
}

func appendCondition(b []byte, c *mcat.Condition) []byte {
	b = appendString(b, c.Attr)
	b = appendString(b, c.Op)
	return appendString(b, c.Value)
}

func (d *decoder) condition(c *mcat.Condition) {
	c.Attr = d.string()
	c.Op = d.string()
	c.Value = d.string()
}

// minStat is the fewest bytes a types.Stat encodes to: one per field.
const minStat = 9

func appendStat(b []byte, s *types.Stat) []byte {
	b = appendString(b, s.Path)
	b = appendBool(b, s.IsCollect)
	b = appendInt(b, int(s.Kind))
	b = appendString(b, s.DataType)
	b = appendString(b, s.Owner)
	b = appendInt64(b, s.Size)
	b = appendTime(b, s.ModifiedAt)
	b = appendInt(b, s.Replicas)
	return appendString(b, s.Container)
}

func (d *decoder) stat(s *types.Stat) {
	s.Path = d.string()
	s.IsCollect = d.bool()
	s.Kind = types.ObjectKind(d.int())
	s.DataType = d.string()
	s.Owner = d.string()
	s.Size = d.varint()
	s.ModifiedAt = d.time()
	s.Replicas = d.int()
	s.Container = d.string()
}

// appendHit writes a hit as its path and its columns in Select order,
// each a string list; the attribute names are the query's, not the
// reply's.
func appendHit(b []byte, h *mcat.Hit) []byte {
	return appendSlice(appendString(b, h.Path), h.Values, appendColumn)
}

func appendColumn(b []byte, col *[]string) []byte { return appendStrings(b, *col) }

// hits decodes a reply's hits. Their columns and the columns' values are
// cut from two slabs, one of each per reply, sized by a first pass that
// counts them in the bytes: every column and every value counted was
// read, at a byte or more apiece, before anything is allocated for it. A
// malformed body fails in that pass and allocates only the hits.
func (d *decoder) hits() []mcat.Hit {
	hits := makeSlice[mcat.Hit](d, 2)
	scan := *d
	ncols, nvals := 0, 0
	for range hits {
		scan.span()
		n, _ := scan.length(1)
		ncols += n
		for ; n > 0; n-- {
			m, _ := scan.length(1)
			nvals += m
			for ; m > 0; m-- {
				scan.span()
			}
		}
	}
	if scan.err != nil {
		d.err, d.off = scan.err, len(d.b)
		return hits
	}
	// Made even when empty: a slab's zero-length cut must be an empty
	// list, not a nil one.
	cols, vals := make([][]string, ncols), make([]string, nvals)
	for i := range hits {
		h := &hits[i]
		h.Path = d.string()
		n, isNil := d.length(1)
		if isNil {
			continue
		}
		h.Values, cols = cols[:n:n], cols[n:]
		for k := range h.Values {
			m, isNil := d.length(1)
			if isNil {
				continue
			}
			col := vals[:m:m]
			for j := range col {
				col[j] = d.string()
			}
			h.Values[k], vals = col, vals[m:]
		}
	}
	return hits
}

func appendMultiGetItem(b []byte, it *MultiGetItem) []byte {
	b = appendString(b, it.Path)
	b = appendBool(b, it.OK)
	b = appendInt64(b, it.Size)
	b = appendString(b, it.ErrKind)
	return appendString(b, it.ErrMsg)
}

func (d *decoder) multiGetItem(it *MultiGetItem) {
	it.Path = d.string()
	it.OK = d.bool()
	it.Size = d.varint()
	it.ErrKind = internKind(d.bytes())
	it.ErrMsg = d.string()
}

// DecodeMultiGetItems decodes a MultiGetReply body without building its
// Items: each item is handed to each in order, so a client decodes the
// manifest straight into the results it returns. It returns the item
// count and the length of the data stream the reply announces.
func DecodeMultiGetItems(body []byte, each func(i int, it MultiGetItem)) (n int, dataLen int64, err error) {
	d := decoder{b: body}
	d.tag(d.byte(), tagMultiGetReply)
	d.string() // Server
	n, _ = d.length(5)
	var it MultiGetItem
	for i := 0; i < n && d.err == nil; i++ {
		if d.multiGetItem(&it); d.err == nil {
			each(i, it)
			if it.OK {
				dataLen += it.Size
			}
		}
	}
	d.end()
	return n, dataLen, d.err
}

func appendBulkStatItem(b []byte, it *BulkStatItem) []byte {
	b = appendString(b, it.Path)
	b = appendBool(b, it.OK)
	b = appendStat(b, &it.Stat)
	b = appendString(b, it.ErrKind)
	return appendString(b, it.ErrMsg)
}

func (d *decoder) bulkStatItem(it *BulkStatItem) {
	it.Path = d.string()
	it.OK = d.bool()
	d.stat(&it.Stat)
	it.ErrKind = internKind(d.bytes())
	it.ErrMsg = d.string()
}

// appendObject writes a catalog record field by field, in declaration
// order; the differential test fails on a field added to DataObject (or
// to a type it holds) and left out here.
func appendObject(b []byte, o *types.DataObject) []byte {
	b = appendInt64(b, int64(o.ID))
	b = appendString(b, o.Name)
	b = appendString(b, o.Collection)
	b = appendInt(b, int(o.Kind))
	b = appendString(b, o.DataType)
	b = appendString(b, o.Owner)
	b = appendInt64(b, o.Size)
	b = appendString(b, o.Checksum)
	b = appendTime(b, o.CreatedAt)
	b = appendTime(b, o.ModifiedAt)
	b = appendSlice(b, o.Replicas, appendReplica)
	b = appendString(b, o.Container)
	b = appendInt64(b, o.ContainerOffset)
	b = appendInt64(b, o.ContainerSize)
	b = appendString(b, o.LinkTarget)
	b = appendString(b, o.URL)
	b = appendSQL(b, o.SQL)
	if b = appendBool(b, o.Method != nil); o.Method != nil {
		b = appendBool(b, o.Method.Proxy)
		b = appendString(b, o.Method.Server)
		b = appendString(b, o.Method.Name)
		b = appendStrings(b, o.Method.Args)
	}
	b = appendSlice(b, o.Alternates, appendAlt)
	b = appendInt(b, int(o.Lock.Kind))
	b = appendString(b, o.Lock.Holder)
	b = appendTime(b, o.Lock.Expires)
	b = appendSlice(b, o.Pins, appendPin)
	b = appendSlice(b, o.Versions, appendVersion)
	return appendString(b, o.CheckedOutBy)
}

func (d *decoder) object(o *types.DataObject) {
	o.ID = types.ObjectID(d.varint())
	o.Name = d.string()
	o.Collection = d.string()
	o.Kind = types.ObjectKind(d.int())
	o.DataType = d.string()
	o.Owner = d.string()
	o.Size = d.varint()
	o.Checksum = d.string()
	o.CreatedAt = d.time()
	o.ModifiedAt = d.time()
	o.Replicas = makeSlice[types.Replica](d, 9)
	for i := range o.Replicas {
		d.replica(&o.Replicas[i])
	}
	o.Container = d.string()
	o.ContainerOffset = d.varint()
	o.ContainerSize = d.varint()
	o.LinkTarget = d.string()
	o.URL = d.string()
	o.SQL = d.sql()
	if d.bool() {
		o.Method = &types.MethodSpec{Proxy: d.bool(), Server: d.string(), Name: d.string(), Args: d.strings()}
	}
	o.Alternates = makeSlice[types.AltSpec](d, 5)
	for i := range o.Alternates {
		d.alt(&o.Alternates[i])
	}
	o.Lock.Kind = types.LockKind(d.int())
	o.Lock.Holder = d.string()
	o.Lock.Expires = d.time()
	o.Pins = makeSlice[types.Pin](d, 3)
	for i := range o.Pins {
		d.pin(&o.Pins[i])
	}
	o.Versions = makeSlice[types.Version](d, 7)
	for i := range o.Versions {
		d.version(&o.Versions[i])
	}
	o.CheckedOutBy = d.string()
}

func appendReplica(b []byte, r *types.Replica) []byte {
	b = appendInt(b, int(r.Number))
	b = appendString(b, r.Resource)
	b = appendString(b, r.PhysicalPath)
	b = appendInt(b, int(r.Status))
	b = appendInt64(b, r.Size)
	b = appendString(b, r.Checksum)
	b = appendTime(b, r.CreatedAt)
	b = appendTime(b, r.ModifiedAt)
	return appendBool(b, r.Registered)
}

func (d *decoder) replica(r *types.Replica) {
	r.Number = types.ReplicaNumber(d.int())
	r.Resource = d.string()
	r.PhysicalPath = d.string()
	r.Status = types.ReplicaStatus(d.int())
	r.Size = d.varint()
	r.Checksum = d.string()
	r.CreatedAt = d.time()
	r.ModifiedAt = d.time()
	r.Registered = d.bool()
}

func appendSQL(b []byte, s *types.SQLSpec) []byte {
	if b = appendBool(b, s != nil); s == nil {
		return b
	}
	b = appendString(b, s.Resource)
	b = appendString(b, s.Query)
	b = appendBool(b, s.Partial)
	return appendString(b, s.Template)
}

func (d *decoder) sql() *types.SQLSpec {
	if !d.bool() {
		return nil
	}
	return &types.SQLSpec{Resource: d.string(), Query: d.string(), Partial: d.bool(), Template: d.string()}
}

func appendAlt(b []byte, a *types.AltSpec) []byte {
	b = appendInt(b, int(a.Kind))
	b = appendString(b, a.URL)
	b = appendSQL(b, a.SQL)
	b = appendString(b, a.Resource)
	return appendString(b, a.PhysicalPath)
}

func (d *decoder) alt(a *types.AltSpec) {
	a.Kind = types.ObjectKind(d.int())
	a.URL = d.string()
	a.SQL = d.sql()
	a.Resource = d.string()
	a.PhysicalPath = d.string()
}

func appendPin(b []byte, p *types.Pin) []byte {
	b = appendString(b, p.Resource)
	b = appendString(b, p.Holder)
	return appendTime(b, p.Expires)
}

func (d *decoder) pin(p *types.Pin) {
	p.Resource = d.string()
	p.Holder = d.string()
	p.Expires = d.time()
}

func appendVersion(b []byte, v *types.Version) []byte {
	b = appendInt(b, v.Number)
	b = appendString(b, v.Resource)
	b = appendString(b, v.Path)
	b = appendInt64(b, v.Size)
	b = appendString(b, v.Checksum)
	b = appendTime(b, v.CreatedAt)
	return appendString(b, v.Comment)
}

func (d *decoder) version(v *types.Version) {
	v.Number = d.int()
	v.Resource = d.string()
	v.Path = d.string()
	v.Size = d.varint()
	v.Checksum = d.string()
	v.CreatedAt = d.time()
	v.Comment = d.string()
}
