// Binary body layouts. Each hot type's layout is written once, in walk:
// a field is one step of codec (str, num, time, list, opt, ...), which
// appends it when encoding and reads it when decoding, so the two
// directions cannot disagree. A reply's query hits are the one decode
// that is not the walk's mirror: decoder.hits reads them into two slabs.
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
	c := codec{enc: true, b: b}
	ok := c.walk(v)
	return c.b, ok
}

// decodeBinary decodes d's body into v when v points to a hot type; ok
// is false (v untouched) when it does not. v does not escape. d says
// where the decoded strings come from (see decoder.string).
func decodeBinary(d decoder, v any) (ok bool, err error) {
	c := codec{d: d}
	if !c.walk(v) {
		return false, nil
	}
	c.d.end()
	return true, c.d.err
}

// walk encodes or decodes *v, when v points to a hot type, as its tag and
// its fields in order: each hot type's layout is written here once, and
// each step (codec.str, num, list, ...) appends or reads as c.enc says. v
// does not escape: the walk calls no function value, and list hands the
// element loop back to its caller for that reason.
func (c *codec) walk(v any) bool {
	switch x := v.(type) {
	case *struct{}:
		c.tag(tagEmpty)
	case *PathArgs:
		c.tag(tagPathArgs)
		c.str(&x.Path)
	case *IngestArgs:
		c.tag(tagIngestArgs)
		c.str(&x.Path)
		c.str(&x.Resource)
		c.str(&x.Container)
		c.str(&x.DataType)
		for i := range list(c, &x.Meta, 3) {
			c.avu(&x.Meta[i])
		}
	case *MetaArgs:
		c.tag(tagMetaArgs)
		c.str(&x.Path)
		num(c, &x.Class)
		c.avu(&x.AVU)
	case *GetMetaArgs:
		c.tag(tagGetMetaArgs)
		c.str(&x.Path)
		num(c, &x.Class)
	case *AnnotateArgs:
		c.tag(tagAnnotateArgs)
		c.str(&x.Path)
		c.str(&x.Ann.Author)
		c.str(&x.Ann.Kind)
		c.str(&x.Ann.Location)
		c.str(&x.Ann.Text)
		c.time(&x.Ann.CreatedAt)
	case *RangeArgs:
		c.tag(tagRangeArgs)
		c.str(&x.Path)
		num(c, &x.Offset)
		num(c, &x.Length)
	case *QueryArgs:
		c.tag(tagQueryArgs)
		c.str(&x.Q.Scope)
		for i := range list(c, &x.Q.Conds, 3) {
			cond := &x.Q.Conds[i]
			c.str(&cond.Attr)
			c.str(&cond.Op)
			c.str(&cond.Value)
		}
		c.strs(&x.Q.Select)
		num(c, &x.Q.Limit)
	case *MultiGetArgs:
		c.tag(tagMultiGetArgs)
		c.strs(&x.Paths)
	case *BulkStatArgs:
		c.tag(tagBulkStatArgs)
		c.strs(&x.Paths)
	case *SizeReply:
		c.tag(tagSizeReply)
		num(c, &x.Size)
	case *types.Stat:
		c.tag(tagStat)
		c.stat(x)
	case *[]types.Stat:
		c.tag(tagStats)
		for i := range list(c, x, minStat) {
			c.stat(&(*x)[i])
		}
	case *types.DataObject:
		c.tag(tagDataObject)
		c.object(x)
	case *[]types.AVU:
		c.tag(tagAVUs)
		for i := range list(c, x, 3) {
			c.avu(&(*x)[i])
		}
	case *QueryReply:
		c.tag(tagQueryReply)
		c.hits(&x.Hits)
		if c.enc && len(x.Partial) == 0 {
			c.b = append(c.b, 0) // omitempty in JSON: an empty list arrives as nil
		} else {
			c.strs(&x.Partial)
		}
	case *MultiGetReply:
		c.tag(tagMultiGetReply)
		c.str(&x.Server)
		for i := range list(c, &x.Items, 5) {
			c.multiGetItem(&x.Items[i])
		}
	case *BulkStatReply:
		c.tag(tagBulkStatReply)
		c.str(&x.Server)
		for i := range list(c, &x.Items, 4+minStat) {
			c.bulkStatItem(&x.Items[i])
		}
	default:
		return false
	}
	return true
}

func (c *codec) avu(a *types.AVU) {
	c.str(&a.Name)
	c.str(&a.Value)
	c.str(&a.Units)
}

// minStat is the fewest bytes a types.Stat encodes to: one per field.
const minStat = 9

func (c *codec) stat(s *types.Stat) {
	c.str(&s.Path)
	c.boolean(&s.IsCollect)
	num(c, &s.Kind)
	c.str(&s.DataType)
	c.str(&s.Owner)
	num(c, &s.Size)
	c.time(&s.ModifiedAt)
	num(c, &s.Replicas)
	c.str(&s.Container)
}

// hits writes each hit as its path and its columns in Select order, each
// a string list; the attribute names are the query's, not the reply's.
// They are read by decoder.hits, into two slabs.
func (c *codec) hits(hits *[]mcat.Hit) {
	if !c.enc {
		*hits = c.d.hits()
		return
	}
	for i := range list(c, hits, 2) {
		h := &(*hits)[i]
		c.str(&h.Path)
		for k := range list(c, &h.Values, 1) {
			c.strs(&h.Values[k])
		}
	}
}

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

func (c *codec) multiGetItem(it *MultiGetItem) {
	c.str(&it.Path)
	c.boolean(&it.OK)
	num(c, &it.Size)
	c.errKind(&it.ErrKind)
	c.str(&it.ErrMsg)
}

// DecodeMultiGetItems decodes a MultiGetReply body without building its
// Items: each item is handed to each in order, so a client decodes the
// manifest straight into the results it returns. It returns the item
// count and the length of the data stream the reply announces.
func DecodeMultiGetItems(body []byte, each func(i int, it MultiGetItem)) (n int, dataLen int64, err error) {
	c := codec{d: decoder{b: body}}
	c.tag(tagMultiGetReply)
	c.d.string() // Server
	n, _ = c.d.length(5)
	var it MultiGetItem
	for i := 0; i < n && c.d.err == nil; i++ {
		if c.multiGetItem(&it); c.d.err == nil {
			each(i, it)
			if it.OK {
				dataLen += it.Size
			}
		}
	}
	c.d.end()
	return n, dataLen, c.d.err
}

func (c *codec) bulkStatItem(it *BulkStatItem) {
	c.str(&it.Path)
	c.boolean(&it.OK)
	c.stat(&it.Stat)
	c.errKind(&it.ErrKind)
	c.str(&it.ErrMsg)
}

// object walks a catalog record field by field, in declaration order; the
// differential test fails on a field added to DataObject (or to a type it
// holds) and left out here.
func (c *codec) object(o *types.DataObject) {
	num(c, &o.ID)
	c.str(&o.Name)
	c.str(&o.Collection)
	num(c, &o.Kind)
	c.str(&o.DataType)
	c.str(&o.Owner)
	num(c, &o.Size)
	c.str(&o.Checksum)
	c.time(&o.CreatedAt)
	c.time(&o.ModifiedAt)
	for i := range list(c, &o.Replicas, 9) {
		c.replica(&o.Replicas[i])
	}
	c.str(&o.Container)
	num(c, &o.ContainerOffset)
	num(c, &o.ContainerSize)
	c.str(&o.LinkTarget)
	c.str(&o.URL)
	c.sql(&o.SQL)
	if opt(c, &o.Method) {
		m := o.Method
		c.boolean(&m.Proxy)
		c.str(&m.Server)
		c.str(&m.Name)
		c.strs(&m.Args)
	}
	for i := range list(c, &o.Alternates, 5) {
		a := &o.Alternates[i]
		num(c, &a.Kind)
		c.str(&a.URL)
		c.sql(&a.SQL)
		c.str(&a.Resource)
		c.str(&a.PhysicalPath)
	}
	num(c, &o.Lock.Kind)
	c.str(&o.Lock.Holder)
	c.time(&o.Lock.Expires)
	for i := range list(c, &o.Pins, 3) {
		p := &o.Pins[i]
		c.str(&p.Resource)
		c.str(&p.Holder)
		c.time(&p.Expires)
	}
	for i := range list(c, &o.Versions, 7) {
		v := &o.Versions[i]
		num(c, &v.Number)
		c.str(&v.Resource)
		c.str(&v.Path)
		num(c, &v.Size)
		c.str(&v.Checksum)
		c.time(&v.CreatedAt)
		c.str(&v.Comment)
	}
	c.str(&o.CheckedOutBy)
}

func (c *codec) replica(r *types.Replica) {
	num(c, &r.Number)
	c.str(&r.Resource)
	c.str(&r.PhysicalPath)
	num(c, &r.Status)
	num(c, &r.Size)
	c.str(&r.Checksum)
	c.time(&r.CreatedAt)
	c.time(&r.ModifiedAt)
	c.boolean(&r.Registered)
}

func (c *codec) sql(p **types.SQLSpec) {
	if opt(c, p) {
		s := *p
		c.str(&s.Resource)
		c.str(&s.Query)
		c.boolean(&s.Partial)
		c.str(&s.Template)
	}
}
