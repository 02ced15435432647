package mcat

import (
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"gosrb/internal/types"
)

// A journal or snapshot line is appended and read by hand. appendEntry
// writes the bytes json.Marshal writes for an entry, then '\n', into the
// caller's buffer, so a line makes no object (the reflective encoder
// makes one for every time.Time it meets). Each payload type has its
// appender, which writes the type's fields in struct order under their
// Go names, leaves out an omitempty field that is empty, writes a nil
// slice or pointer as null and an empty slice as [], and an enum as its
// integer. A field added to a payload type is added to its appender too,
// or the journal drops it: TestJournalFixture and FuzzEntryLine, which
// holds appendEntry to json.Marshal byte for byte, catch the omission.
//
// readEntry and readHead are the inverse: one scan of the line, straight
// into the struct, with one reader per payload type, a table of its
// fields in struct order under their Go names, each with how its value
// is read. They accept exactly the lines json.Unmarshal accepts and
// yield what it yields, so every line an older binary wrote still reads.
// A field added to a payload type is added to its reader too, or the
// reader skips it: FuzzEntryRead, which holds both readers to
// json.Unmarshal, catches the omission.

// appender is a line being appended, and the first error met writing
// it: a time that RFC 3339 cannot hold, which json.Marshal refuses too.
type appender struct {
	b   []byte
	err error
}

var (
	errYear = errors.New("time: year outside of range [0,9999]")
	errZone = errors.New("time: timezone hour outside of range [0,23]")
)

// appendEntry appends e's journal line to b.
func appendEntry(b []byte, e *Entry) ([]byte, error) {
	a := appender{b: b}
	a.raw(`{"Op":`)
	a.str(e.Op)
	if e.User != nil {
		a.raw(`,"User":`)
		a.user(e.User)
	}
	a.optStr(`,"Group":`, e.Group)
	a.optStr(`,"Member":`, e.Member)
	if e.Resource != nil {
		a.raw(`,"Resource":`)
		a.resource(e.Resource)
	}
	if e.Coll != nil {
		a.raw(`,"Coll":`)
		a.coll(e.Coll)
	}
	if e.Object != nil {
		a.raw(`,"Object":`)
		a.object(e.Object)
	}
	a.optStr(`,"Path":`, e.Path)
	a.optStr(`,"Path2":`, e.Path2)
	a.optStr(`,"Name":`, e.Name)
	a.optStr(`,"Grantee":`, e.Grantee)
	a.optInt(`,"Level":`, int64(e.Level))
	a.optInt(`,"Class":`, int64(e.Class))
	if e.AVU != nil {
		a.raw(`,"AVU":`)
		a.avu(e.AVU)
	}
	if e.NewAVU != nil {
		a.raw(`,"NewAVU":`)
		a.avu(e.NewAVU)
	}
	if e.Attr != nil {
		a.raw(`,"Attr":`)
		a.structural(e.Attr)
	}
	if e.Ann != nil {
		a.raw(`,"Ann":`)
		a.annotation(e.Ann)
	}
	if e.Online {
		a.raw(`,"Online":true`)
	}
	a.optStr(`,"Value":`, e.Value)
	if e.Repair != nil {
		a.raw(`,"Repair":`)
		a.repair(e.Repair)
	}
	if len(e.Meta) > 0 {
		a.raw(`,"Meta":[`)
		for i := range e.Meta {
			a.next(i)
			a.avu(&e.Meta[i])
		}
		a.raw("]")
	}
	a.raw("}\n")
	return a.b, a.err
}

// appendHead appends a snapshot's head line to b.
func appendHead(b []byte, h *snapshotHead) ([]byte, error) {
	a := appender{b: b}
	a.raw(`{"Version":`)
	a.int(int64(h.Version))
	a.raw(`,"NextID":`)
	a.int(int64(h.NextID))
	a.optInt(`,"Entries":`, int64(h.Entries))
	if h.Root != nil {
		a.raw(`,"Root":`)
		a.coll(h.Root)
	}
	if h.Gen != 0 {
		a.raw(`,"Gen":`)
		a.b = strconv.AppendUint(a.b, h.Gen, 10)
	}
	a.raw("}\n")
	return a.b, a.err
}

func (a *appender) user(u *types.User) {
	a.raw(`{"Name":`)
	a.str(u.Name)
	a.raw(`,"Domain":`)
	a.str(u.Domain)
	a.raw(`,"CreatedAt":`)
	a.time(u.CreatedAt)
	a.raw(`,"Admin":`)
	a.bool(u.Admin)
	a.raw("}")
}

func (a *appender) resource(r *types.Resource) {
	a.raw(`{"Name":`)
	a.str(r.Name)
	a.raw(`,"Kind":`)
	a.int(int64(r.Kind))
	a.raw(`,"Class":`)
	a.int(int64(r.Class))
	a.raw(`,"Driver":`)
	a.str(r.Driver)
	a.raw(`,"Server":`)
	a.str(r.Server)
	a.raw(`,"Members":`)
	a.strs(r.Members)
	a.raw(`,"Online":`)
	a.bool(r.Online)
	a.optStr(`,"ReplPolicy":`, r.ReplPolicy)
	a.raw(`,"CreatedAt":`)
	a.time(r.CreatedAt)
	a.raw("}")
}

func (a *appender) coll(c *types.Collection) {
	a.raw(`{"Path":`)
	a.str(c.Path)
	a.raw(`,"Owner":`)
	a.str(c.Owner)
	a.raw(`,"CreatedAt":`)
	a.time(c.CreatedAt)
	a.raw(`,"LinkTarget":`)
	a.str(c.LinkTarget)
	a.raw("}")
}

func (a *appender) object(o *types.DataObject) {
	a.raw(`{"ID":`)
	a.int(int64(o.ID))
	a.raw(`,"Name":`)
	a.str(o.Name)
	a.raw(`,"Collection":`)
	a.str(o.Collection)
	a.raw(`,"Kind":`)
	a.int(int64(o.Kind))
	a.raw(`,"DataType":`)
	a.str(o.DataType)
	a.raw(`,"Owner":`)
	a.str(o.Owner)
	a.raw(`,"Size":`)
	a.int(o.Size)
	a.raw(`,"Checksum":`)
	a.str(o.Checksum)
	a.raw(`,"CreatedAt":`)
	a.time(o.CreatedAt)
	a.raw(`,"ModifiedAt":`)
	a.time(o.ModifiedAt)
	a.raw(`,"Replicas":`)
	if a.list(o.Replicas == nil) {
		for i := range o.Replicas {
			a.next(i)
			a.replica(&o.Replicas[i])
		}
		a.raw("]")
	}
	a.raw(`,"Container":`)
	a.str(o.Container)
	a.raw(`,"ContainerOffset":`)
	a.int(o.ContainerOffset)
	a.raw(`,"ContainerSize":`)
	a.int(o.ContainerSize)
	a.raw(`,"LinkTarget":`)
	a.str(o.LinkTarget)
	a.raw(`,"URL":`)
	a.str(o.URL)
	a.raw(`,"SQL":`)
	a.sql(o.SQL)
	a.raw(`,"Method":`)
	if m := o.Method; m == nil {
		a.raw("null")
	} else {
		a.raw(`{"Proxy":`)
		a.bool(m.Proxy)
		a.raw(`,"Server":`)
		a.str(m.Server)
		a.raw(`,"Name":`)
		a.str(m.Name)
		a.raw(`,"Args":`)
		a.strs(m.Args)
		a.raw("}")
	}
	a.raw(`,"Alternates":`)
	if a.list(o.Alternates == nil) {
		for i := range o.Alternates {
			alt := &o.Alternates[i]
			a.next(i)
			a.raw(`{"Kind":`)
			a.int(int64(alt.Kind))
			a.raw(`,"URL":`)
			a.str(alt.URL)
			a.raw(`,"SQL":`)
			a.sql(alt.SQL)
			a.raw(`,"Resource":`)
			a.str(alt.Resource)
			a.raw(`,"PhysicalPath":`)
			a.str(alt.PhysicalPath)
			a.raw("}")
		}
		a.raw("]")
	}
	a.raw(`,"Lock":{"Kind":`)
	a.int(int64(o.Lock.Kind))
	a.raw(`,"Holder":`)
	a.str(o.Lock.Holder)
	a.raw(`,"Expires":`)
	a.time(o.Lock.Expires)
	a.raw(`},"Pins":`)
	if a.list(o.Pins == nil) {
		for i := range o.Pins {
			p := &o.Pins[i]
			a.next(i)
			a.raw(`{"Resource":`)
			a.str(p.Resource)
			a.raw(`,"Holder":`)
			a.str(p.Holder)
			a.raw(`,"Expires":`)
			a.time(p.Expires)
			a.raw("}")
		}
		a.raw("]")
	}
	a.raw(`,"Versions":`)
	if a.list(o.Versions == nil) {
		for i := range o.Versions {
			v := &o.Versions[i]
			a.next(i)
			a.raw(`{"Number":`)
			a.int(int64(v.Number))
			a.raw(`,"Resource":`)
			a.str(v.Resource)
			a.raw(`,"Path":`)
			a.str(v.Path)
			a.raw(`,"Size":`)
			a.int(v.Size)
			a.raw(`,"Checksum":`)
			a.str(v.Checksum)
			a.raw(`,"CreatedAt":`)
			a.time(v.CreatedAt)
			a.raw(`,"Comment":`)
			a.str(v.Comment)
			a.raw("}")
		}
		a.raw("]")
	}
	a.raw(`,"CheckedOutBy":`)
	a.str(o.CheckedOutBy)
	a.raw("}")
}

func (a *appender) replica(r *types.Replica) {
	a.raw(`{"Number":`)
	a.int(int64(r.Number))
	a.raw(`,"Resource":`)
	a.str(r.Resource)
	a.raw(`,"PhysicalPath":`)
	a.str(r.PhysicalPath)
	a.raw(`,"Status":`)
	a.int(int64(r.Status))
	a.raw(`,"Size":`)
	a.int(r.Size)
	a.raw(`,"Checksum":`)
	a.str(r.Checksum)
	a.raw(`,"CreatedAt":`)
	a.time(r.CreatedAt)
	a.raw(`,"ModifiedAt":`)
	a.time(r.ModifiedAt)
	a.raw(`,"Registered":`)
	a.bool(r.Registered)
	a.raw("}")
}

func (a *appender) sql(s *types.SQLSpec) {
	if s == nil {
		a.raw("null")
		return
	}
	a.raw(`{"Resource":`)
	a.str(s.Resource)
	a.raw(`,"Query":`)
	a.str(s.Query)
	a.raw(`,"Partial":`)
	a.bool(s.Partial)
	a.raw(`,"Template":`)
	a.str(s.Template)
	a.raw("}")
}

func (a *appender) avu(v *types.AVU) {
	a.raw(`{"Name":`)
	a.str(v.Name)
	a.raw(`,"Value":`)
	a.str(v.Value)
	a.raw(`,"Units":`)
	a.str(v.Units)
	a.raw("}")
}

func (a *appender) structural(s *types.StructuralAttr) {
	a.raw(`{"Name":`)
	a.str(s.Name)
	a.raw(`,"Defaults":`)
	a.strs(s.Defaults)
	a.raw(`,"Comment":`)
	a.str(s.Comment)
	a.raw(`,"Mandatory":`)
	a.bool(s.Mandatory)
	a.raw(`,"Units":`)
	a.str(s.Units)
	a.raw("}")
}

func (a *appender) annotation(n *types.Annotation) {
	a.raw(`{"Author":`)
	a.str(n.Author)
	a.raw(`,"Kind":`)
	a.str(n.Kind)
	a.raw(`,"Location":`)
	a.str(n.Location)
	a.raw(`,"Text":`)
	a.str(n.Text)
	a.raw(`,"CreatedAt":`)
	a.time(n.CreatedAt)
	a.raw("}")
}

func (a *appender) repair(t *types.RepairTask) {
	a.raw(`{"Key":`)
	a.str(t.Key)
	a.raw(`,"Path":`)
	a.str(t.Path)
	a.raw(`,"Resource":`)
	a.str(t.Resource)
	a.raw(`,"Kind":`)
	a.str(t.Kind)
	a.optStr(`,"Reason":`, t.Reason)
	a.raw(`,"Enqueued":`)
	a.time(t.Enqueued)
	a.optInt(`,"Attempts":`, int64(t.Attempts))
	a.raw("}")
}

func (a *appender) raw(s string) { a.b = append(a.b, s...) }

func (a *appender) int(n int64) { a.b = strconv.AppendInt(a.b, n, 10) }

func (a *appender) bool(v bool) { a.b = strconv.AppendBool(a.b, v) }

// optStr writes key and s unless s is empty (omitempty).
func (a *appender) optStr(key, s string) {
	if s != "" {
		a.raw(key)
		a.str(s)
	}
}

// optInt writes key and n unless n is 0 (omitempty).
func (a *appender) optInt(key string, n int64) {
	if n != 0 {
		a.raw(key)
		a.int(n)
	}
}

// list opens a list, or writes null for a nil slice and reports false.
func (a *appender) list(isNil bool) bool {
	if isNil {
		a.raw("null")
		return false
	}
	a.raw("[")
	return true
}

// next separates the list's element i from the one before it.
func (a *appender) next(i int) {
	if i > 0 {
		a.raw(",")
	}
}

func (a *appender) strs(s []string) {
	if a.list(s == nil) {
		for i := range s {
			a.next(i)
			a.str(s[i])
		}
		a.raw("]")
	}
}

// time writes t as time.Time.MarshalJSON does: RFC 3339 with the
// fraction's trailing zeros cut, refusing a year that is not four digits
// wide and a zone hour past 23.
func (a *appender) time(t time.Time) {
	n := len(a.b) + 1
	a.b = t.AppendFormat(append(a.b, '"'), time.RFC3339Nano)
	s := a.b[n:]
	switch {
	case s[len("9999")] != '-':
		a.fail(errYear)
	case s[len(s)-1] != 'Z':
		z := s[len(s)-len("Z07:00"):]
		if '0' <= z[0] && z[0] <= '9' || 10*(z[1]-'0')+z[2]-'0' >= 24 {
			a.fail(errZone)
		}
	}
	a.b = append(a.b, '"')
}

func (a *appender) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

const hex = "0123456789abcdef"

// str writes s as a JSON string, escaped as encoding/json escapes it:
// '"', '\\', control bytes and the HTML-sensitive '<', '>' and '&';
// U+2028 and U+2029; and each byte of invalid UTF-8 as U+FFFD.
func (a *appender) str(s string) {
	b := append(a.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	a.b = append(append(b, s[start:]...), '"')
}

// errLine is a line readEntry or readHead refuses, as json.Unmarshal
// refuses it: for its syntax, or for a value of the wrong type.
var errLine = errors.New("malformed catalog line")

// maxDepth is encoding/json's nesting limit, which a line keeps to.
const maxDepth = 10000

// reader is a line being read. A refused line is marked bad and read to
// its end, so every later step fails at once.
type reader struct {
	b     []byte
	i     int
	depth int
	bad   bool
}

// readEntry reads one journal or snapshot line into e, which is zero.
func readEntry(line []byte, e *Entry) error {
	var r reader
	return r.entry(line, e)
}

// entry reads line into e, which is zero, with r, which a caller reading
// many lines keeps for all of them.
func (r *reader) entry(line []byte, e *Entry) error {
	*r = reader{b: line}
	entryFields.read(r, e)
	return r.end()
}

// readHead reads a snapshot's head line into h.
func readHead(line []byte, h *snapshotHead) error {
	r := reader{b: line}
	headFields.read(&r, h)
	return r.end()
}

var (
	entryFields = newFields([]field[Entry]{
		{"Op", func(r *reader, e *Entry) { r.str(&e.Op) }},
		{"User", func(r *reader, e *Entry) { ptr(r, &e.User, userFields.read) }},
		{"Group", func(r *reader, e *Entry) { r.str(&e.Group) }},
		{"Member", func(r *reader, e *Entry) { r.str(&e.Member) }},
		{"Resource", func(r *reader, e *Entry) { ptr(r, &e.Resource, resourceFields.read) }},
		{"Coll", func(r *reader, e *Entry) { ptr(r, &e.Coll, collFields.read) }},
		{"Object", func(r *reader, e *Entry) { ptr(r, &e.Object, objectFields.read) }},
		{"Path", func(r *reader, e *Entry) { r.str(&e.Path) }},
		{"Path2", func(r *reader, e *Entry) { r.str(&e.Path2) }},
		{"Name", func(r *reader, e *Entry) { r.str(&e.Name) }},
		{"Grantee", func(r *reader, e *Entry) { r.str(&e.Grantee) }},
		{"Level", func(r *reader, e *Entry) { integer(r, &e.Level) }},
		{"Class", func(r *reader, e *Entry) { integer(r, &e.Class) }},
		{"AVU", func(r *reader, e *Entry) { ptr(r, &e.AVU, avuFields.read) }},
		{"NewAVU", func(r *reader, e *Entry) { ptr(r, &e.NewAVU, avuFields.read) }},
		{"Attr", func(r *reader, e *Entry) { ptr(r, &e.Attr, structuralFields.read) }},
		{"Ann", func(r *reader, e *Entry) { ptr(r, &e.Ann, annotationFields.read) }},
		{"Online", func(r *reader, e *Entry) { r.bool(&e.Online) }},
		{"Value", func(r *reader, e *Entry) { r.str(&e.Value) }},
		{"Repair", func(r *reader, e *Entry) { ptr(r, &e.Repair, repairFields.read) }},
		{"Meta", func(r *reader, e *Entry) { e.Meta = list(r, e.Meta, avuFields.read) }},
	})
	headFields = newFields([]field[snapshotHead]{
		{"Version", func(r *reader, h *snapshotHead) { integer(r, &h.Version) }},
		{"NextID", func(r *reader, h *snapshotHead) { integer(r, &h.NextID) }},
		{"Entries", func(r *reader, h *snapshotHead) { integer(r, &h.Entries) }},
		{"Root", func(r *reader, h *snapshotHead) { ptr(r, &h.Root, collFields.read) }},
		{"Gen", func(r *reader, h *snapshotHead) { r.uint(&h.Gen) }},
	})
	userFields = newFields([]field[types.User]{
		{"Name", func(r *reader, u *types.User) { r.str(&u.Name) }},
		{"Domain", func(r *reader, u *types.User) { r.str(&u.Domain) }},
		{"CreatedAt", func(r *reader, u *types.User) { r.time(&u.CreatedAt) }},
		{"Admin", func(r *reader, u *types.User) { r.bool(&u.Admin) }},
	})
	resourceFields = newFields([]field[types.Resource]{
		{"Name", func(r *reader, res *types.Resource) { r.str(&res.Name) }},
		{"Kind", func(r *reader, res *types.Resource) { integer(r, &res.Kind) }},
		{"Class", func(r *reader, res *types.Resource) { integer(r, &res.Class) }},
		{"Driver", func(r *reader, res *types.Resource) { r.str(&res.Driver) }},
		{"Server", func(r *reader, res *types.Resource) { r.str(&res.Server) }},
		{"Members", func(r *reader, res *types.Resource) { res.Members = list(r, res.Members, (*reader).str) }},
		{"Online", func(r *reader, res *types.Resource) { r.bool(&res.Online) }},
		{"ReplPolicy", func(r *reader, res *types.Resource) { r.str(&res.ReplPolicy) }},
		{"CreatedAt", func(r *reader, res *types.Resource) { r.time(&res.CreatedAt) }},
	})
	collFields = newFields([]field[types.Collection]{
		{"Path", func(r *reader, c *types.Collection) { r.str(&c.Path) }},
		{"Owner", func(r *reader, c *types.Collection) { r.str(&c.Owner) }},
		{"CreatedAt", func(r *reader, c *types.Collection) { r.time(&c.CreatedAt) }},
		{"LinkTarget", func(r *reader, c *types.Collection) { r.str(&c.LinkTarget) }},
	})
	objectFields = newFields([]field[types.DataObject]{
		{"ID", func(r *reader, o *types.DataObject) { integer(r, &o.ID) }},
		{"Name", func(r *reader, o *types.DataObject) { r.str(&o.Name) }},
		{"Collection", func(r *reader, o *types.DataObject) { r.str(&o.Collection) }},
		{"Kind", func(r *reader, o *types.DataObject) { integer(r, &o.Kind) }},
		{"DataType", func(r *reader, o *types.DataObject) { r.str(&o.DataType) }},
		{"Owner", func(r *reader, o *types.DataObject) { r.str(&o.Owner) }},
		{"Size", func(r *reader, o *types.DataObject) { integer(r, &o.Size) }},
		{"Checksum", func(r *reader, o *types.DataObject) { r.str(&o.Checksum) }},
		{"CreatedAt", func(r *reader, o *types.DataObject) { r.time(&o.CreatedAt) }},
		{"ModifiedAt", func(r *reader, o *types.DataObject) { r.time(&o.ModifiedAt) }},
		{"Replicas", func(r *reader, o *types.DataObject) { o.Replicas = list(r, o.Replicas, replicaFields.read) }},
		{"Container", func(r *reader, o *types.DataObject) { r.str(&o.Container) }},
		{"ContainerOffset", func(r *reader, o *types.DataObject) { integer(r, &o.ContainerOffset) }},
		{"ContainerSize", func(r *reader, o *types.DataObject) { integer(r, &o.ContainerSize) }},
		{"LinkTarget", func(r *reader, o *types.DataObject) { r.str(&o.LinkTarget) }},
		{"URL", func(r *reader, o *types.DataObject) { r.str(&o.URL) }},
		{"SQL", func(r *reader, o *types.DataObject) { ptr(r, &o.SQL, sqlFields.read) }},
		{"Method", func(r *reader, o *types.DataObject) { ptr(r, &o.Method, methodFields.read) }},
		{"Alternates", func(r *reader, o *types.DataObject) { o.Alternates = list(r, o.Alternates, altFields.read) }},
		{"Lock", func(r *reader, o *types.DataObject) { lockFields.read(r, &o.Lock) }},
		{"Pins", func(r *reader, o *types.DataObject) { o.Pins = list(r, o.Pins, pinFields.read) }},
		{"Versions", func(r *reader, o *types.DataObject) { o.Versions = list(r, o.Versions, versionFields.read) }},
		{"CheckedOutBy", func(r *reader, o *types.DataObject) { r.str(&o.CheckedOutBy) }},
	})
	replicaFields = newFields([]field[types.Replica]{
		{"Number", func(r *reader, rp *types.Replica) { integer(r, &rp.Number) }},
		{"Resource", func(r *reader, rp *types.Replica) { r.str(&rp.Resource) }},
		{"PhysicalPath", func(r *reader, rp *types.Replica) { r.str(&rp.PhysicalPath) }},
		{"Status", func(r *reader, rp *types.Replica) { integer(r, &rp.Status) }},
		{"Size", func(r *reader, rp *types.Replica) { integer(r, &rp.Size) }},
		{"Checksum", func(r *reader, rp *types.Replica) { r.str(&rp.Checksum) }},
		{"CreatedAt", func(r *reader, rp *types.Replica) { r.time(&rp.CreatedAt) }},
		{"ModifiedAt", func(r *reader, rp *types.Replica) { r.time(&rp.ModifiedAt) }},
		{"Registered", func(r *reader, rp *types.Replica) { r.bool(&rp.Registered) }},
	})
	sqlFields = newFields([]field[types.SQLSpec]{
		{"Resource", func(r *reader, s *types.SQLSpec) { r.str(&s.Resource) }},
		{"Query", func(r *reader, s *types.SQLSpec) { r.str(&s.Query) }},
		{"Partial", func(r *reader, s *types.SQLSpec) { r.bool(&s.Partial) }},
		{"Template", func(r *reader, s *types.SQLSpec) { r.str(&s.Template) }},
	})
	methodFields = newFields([]field[types.MethodSpec]{
		{"Proxy", func(r *reader, m *types.MethodSpec) { r.bool(&m.Proxy) }},
		{"Server", func(r *reader, m *types.MethodSpec) { r.str(&m.Server) }},
		{"Name", func(r *reader, m *types.MethodSpec) { r.str(&m.Name) }},
		{"Args", func(r *reader, m *types.MethodSpec) { m.Args = list(r, m.Args, (*reader).str) }},
	})
	altFields = newFields([]field[types.AltSpec]{
		{"Kind", func(r *reader, a *types.AltSpec) { integer(r, &a.Kind) }},
		{"URL", func(r *reader, a *types.AltSpec) { r.str(&a.URL) }},
		{"SQL", func(r *reader, a *types.AltSpec) { ptr(r, &a.SQL, sqlFields.read) }},
		{"Resource", func(r *reader, a *types.AltSpec) { r.str(&a.Resource) }},
		{"PhysicalPath", func(r *reader, a *types.AltSpec) { r.str(&a.PhysicalPath) }},
	})
	lockFields = newFields([]field[types.Lock]{
		{"Kind", func(r *reader, l *types.Lock) { integer(r, &l.Kind) }},
		{"Holder", func(r *reader, l *types.Lock) { r.str(&l.Holder) }},
		{"Expires", func(r *reader, l *types.Lock) { r.time(&l.Expires) }},
	})
	pinFields = newFields([]field[types.Pin]{
		{"Resource", func(r *reader, p *types.Pin) { r.str(&p.Resource) }},
		{"Holder", func(r *reader, p *types.Pin) { r.str(&p.Holder) }},
		{"Expires", func(r *reader, p *types.Pin) { r.time(&p.Expires) }},
	})
	versionFields = newFields([]field[types.Version]{
		{"Number", func(r *reader, v *types.Version) { integer(r, &v.Number) }},
		{"Resource", func(r *reader, v *types.Version) { r.str(&v.Resource) }},
		{"Path", func(r *reader, v *types.Version) { r.str(&v.Path) }},
		{"Size", func(r *reader, v *types.Version) { integer(r, &v.Size) }},
		{"Checksum", func(r *reader, v *types.Version) { r.str(&v.Checksum) }},
		{"CreatedAt", func(r *reader, v *types.Version) { r.time(&v.CreatedAt) }},
		{"Comment", func(r *reader, v *types.Version) { r.str(&v.Comment) }},
	})
	avuFields = newFields([]field[types.AVU]{
		{"Name", func(r *reader, v *types.AVU) { r.str(&v.Name) }},
		{"Value", func(r *reader, v *types.AVU) { r.str(&v.Value) }},
		{"Units", func(r *reader, v *types.AVU) { r.str(&v.Units) }},
	})
	structuralFields = newFields([]field[types.StructuralAttr]{
		{"Name", func(r *reader, s *types.StructuralAttr) { r.str(&s.Name) }},
		{"Defaults", func(r *reader, s *types.StructuralAttr) { s.Defaults = list(r, s.Defaults, (*reader).str) }},
		{"Comment", func(r *reader, s *types.StructuralAttr) { r.str(&s.Comment) }},
		{"Mandatory", func(r *reader, s *types.StructuralAttr) { r.bool(&s.Mandatory) }},
		{"Units", func(r *reader, s *types.StructuralAttr) { r.str(&s.Units) }},
	})
	annotationFields = newFields([]field[types.Annotation]{
		{"Author", func(r *reader, n *types.Annotation) { r.str(&n.Author) }},
		{"Kind", func(r *reader, n *types.Annotation) { r.str(&n.Kind) }},
		{"Location", func(r *reader, n *types.Annotation) { r.str(&n.Location) }},
		{"Text", func(r *reader, n *types.Annotation) { r.str(&n.Text) }},
		{"CreatedAt", func(r *reader, n *types.Annotation) { r.time(&n.CreatedAt) }},
	})
	repairFields = newFields([]field[types.RepairTask]{
		{"Key", func(r *reader, t *types.RepairTask) { r.str(&t.Key) }},
		{"Path", func(r *reader, t *types.RepairTask) { r.str(&t.Path) }},
		{"Resource", func(r *reader, t *types.RepairTask) { r.str(&t.Resource) }},
		{"Kind", func(r *reader, t *types.RepairTask) { r.str(&t.Kind) }},
		{"Reason", func(r *reader, t *types.RepairTask) { r.str(&t.Reason) }},
		{"Enqueued", func(r *reader, t *types.RepairTask) { r.time(&t.Enqueued) }},
		{"Attempts", func(r *reader, t *types.RepairTask) { integer(r, &t.Attempts) }},
	})
	noFields = newFields([]field[struct{}]{})
)

// field is a payload type's field: its Go name, and how its value is
// read into a T.
type field[T any] struct {
	name string
	read func(*reader, *T)
}

// fields is a payload type's reader: its fields, and each name folded
// (appendFolded), which is how encoding/json matches a key that names
// no field exactly.
type fields[T any] struct {
	list   []field[T]
	folded []string
}

func newFields[T any](list []field[T]) *fields[T] {
	fs := &fields[T]{list: list}
	for _, f := range list {
		fs.folded = append(fs.folded, string(appendFolded(nil, []byte(f.name))))
	}
	return fs
}

// read reads an object into v: each key that names a field (exactly,
// else folded) has its value read into that field, and a key that names
// none has its value skipped. A repeated key is read again over what the
// first left. null leaves v as it was, and any other value refuses the
// line.
func (fs *fields[T]) read(r *reader, v *T) {
	if r.null() || !r.open('{') {
		return
	}
	if !r.next('}') {
		for {
			if i := fs.match(r.key()); i >= 0 {
				fs.list[i].read(r, v)
			} else {
				r.skip()
			}
			if !r.next(',') {
				break
			}
		}
		if !r.next('}') {
			r.fail()
		}
	}
	r.depth--
}

// match returns the index of the field key names, or -1.
func (fs *fields[T]) match(key []byte) int {
	for i := range fs.list {
		if string(key) == fs.list[i].name {
			return i
		}
	}
	var buf [32]byte
	k := appendFolded(buf[:0], key)
	for i, f := range fs.folded {
		if string(k) == f {
			return i
		}
	}
	return -1
}

// appendFolded appends key as encoding/json folds it: ASCII letters
// upper-cased, and every other rune as the least of its case-folding
// orbit, so two keys fold alike exactly when bytes.EqualFold holds.
func appendFolded(b, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			b = append(b, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		b = utf8.AppendRune(b, foldRune(r))
		i += n
	}
	return b
}

// foldRune returns the least rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

func (r *reader) end() error {
	if r.ws(); r.bad || r.i < len(r.b) {
		return errLine
	}
	return nil
}

func (r *reader) fail() {
	r.bad = true
	r.i = len(r.b)
}

func (r *reader) ws() {
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// peek returns the next byte after whitespace, or 0 at the end.
func (r *reader) peek() byte {
	if r.ws(); r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

// next consumes c if it is the next byte after whitespace.
func (r *reader) next(c byte) bool {
	if r.peek() == c {
		r.i++
		return true
	}
	return false
}

// eat consumes c if it is the next byte.
func (r *reader) eat(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// lit consumes the literal s (null, true or false) if it comes next.
func (r *reader) lit(s string) bool {
	if r.peek() == s[0] && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// null consumes a null. It leaves a string, number, bool, time or struct
// as it was, and makes a pointer or a slice nil, as encoding/json does.
func (r *reader) null() bool { return r.lit("null") }

// open consumes c, which opens an object or a list one level deeper.
func (r *reader) open(c byte) bool {
	if r.depth++; !r.next(c) || r.depth > maxDepth {
		r.fail()
		return false
	}
	return true
}

// items reads a list, calling elem for each of its values, and returns
// how many there were.
func (r *reader) items(elem func(i int)) int {
	if !r.open('[') {
		return 0
	}
	n := 0
	if !r.next(']') {
		for {
			elem(n)
			n++
			if !r.next(',') {
				break
			}
		}
		if !r.next(']') {
			r.fail()
		}
	}
	r.depth--
	return n
}

// list reads a list into s as encoding/json does: value i over what s[i]
// held, which a repeated key's earlier list can have left there, s cut to
// the values read, and an empty list as an empty slice, not nil. null
// makes s nil.
func list[T any](r *reader, s []T, elem func(*reader, *T)) []T {
	if r.null() {
		return nil
	}
	n := r.items(func(i int) {
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		elem(r, &s[i])
	})
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// ptr reads an object into *p, made if *p is nil; null makes *p nil.
func ptr[T any](r *reader, p **T, read func(*reader, *T)) {
	if r.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	read(r, *p)
}

// skip reads a value that names no field: any JSON value.
func (r *reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		noFields.read(r, nil)
	case c == '[':
		r.items(func(int) { r.skip() })
	case c == '"':
		r.token()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case !r.lit("true") && !r.lit("false") && !r.lit("null"):
		r.fail()
	}
}

// key reads an object's key, and the colon after it.
func (r *reader) key() []byte {
	tok, plain := r.token()
	if !r.next(':') {
		r.fail()
		return nil
	}
	if !plain {
		return []byte(unquote(tok))
	}
	return tok[1 : len(tok)-1]
}

// token reads a string's token, quotes and all. plain says it holds no
// escape and is valid UTF-8, so the bytes between its quotes are the
// string.
func (r *reader) token() (tok []byte, plain bool) {
	if r.peek() != '"' {
		r.fail()
		return nil, false
	}
	start := r.i
	plain, ascii := true, true
	for r.i++; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			tok = r.b[start:r.i]
			return tok, plain && (ascii || utf8.Valid(tok))
		case c == '\\':
			if plain = false; !r.escape() {
				r.fail()
				return nil, false
			}
		case c < ' ':
			r.fail()
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.fail()
	return nil, false
}

// escape steps over an escape's letter and, for \u, its four hex digits;
// r.i is at the backslash.
func (r *reader) escape() bool {
	if r.i+1 >= len(r.b) {
		return false
	}
	switch r.b[r.i+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		r.i++
		return true
	case 'u':
		if r.i+6 > len(r.b) {
			return false
		}
		for _, h := range r.b[r.i+2 : r.i+6] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return false
			}
		}
		r.i += 5
		return true
	}
	return false
}

// unquote is the string a token with an escape or invalid UTF-8 stands
// for, as encoding/json reads that one token: it turns each byte of
// invalid UTF-8 and each lone surrogate into U+FFFD.
func unquote(tok []byte) (s string) {
	_ = json.Unmarshal(tok, &s)
	return s
}

// str reads a string into an allocation of its own, never a piece of
// the line, which a row holding it would pin whole.
func (r *reader) str(s *string) {
	if r.null() {
		return
	}
	switch tok, plain := r.token(); {
	case r.bad:
	case plain:
		*s = string(tok[1 : len(tok)-1])
	default:
		*s = unquote(tok)
	}
}

// time reads a time as time.Time.UnmarshalJSON does: the bytes between
// the quotes as they stand, escapes and all, through UnmarshalText.
func (r *reader) time(t *time.Time) {
	if r.null() {
		return
	}
	if tok, _ := r.token(); !r.bad && t.UnmarshalText(tok[1:len(tok)-1]) != nil {
		r.fail()
	}
}

func (r *reader) bool(p *bool) {
	switch {
	case r.null():
	case r.lit("true"):
		*p = true
	case r.lit("false"):
		*p = false
	default:
		r.fail()
	}
}

// number reads a number's token to JSON's syntax.
func (r *reader) number() []byte {
	r.ws()
	start := r.i
	r.eat('-')
	ok := r.eat('0') || r.digits()
	if ok && r.eat('.') {
		ok = r.digits()
	}
	if ok && (r.eat('e') || r.eat('E')) {
		_ = r.eat('+') || r.eat('-')
		ok = r.digits()
	}
	if !ok {
		r.fail()
		return nil
	}
	return r.b[start:r.i]
}

// digits consumes a run of digits and reports whether there was one.
func (r *reader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// integer reads an integer as encoding/json does, with strconv.ParseInt:
// a fraction, an exponent, or a value outside T refuses the line, and so
// does any value but a number or null.
func integer[T ~int | ~int64](r *reader, p *T) {
	if r.null() {
		return
	}
	n, err := strconv.ParseInt(string(r.number()), 10, 64)
	if err != nil || int64(T(n)) != n {
		r.fail()
		return
	}
	*p = T(n)
}

func (r *reader) uint(p *uint64) {
	if r.null() {
		return
	}
	n, err := strconv.ParseUint(string(r.number()), 10, 64)
	if err != nil {
		r.fail()
		return
	}
	*p = n
}
