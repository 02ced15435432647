package mcat

import (
	"errors"
	"strconv"
	"time"
	"unicode/utf8"

	"gosrb/internal/types"
)

// A journal or snapshot line is appended by hand: appendEntry writes the
// bytes json.Marshal writes for an entry, then '\n', into the caller's
// buffer, so a line makes no object (the reflective encoder makes one
// for every time.Time it meets). Each payload type has its appender,
// which writes the type's fields in struct order under their Go names,
// leaves out an omitempty field that is empty, writes a nil slice or
// pointer as null and an empty slice as [], and an enum as its integer.
// A field added to a payload type is added to its appender too, or the
// journal drops it: TestJournalFixture and FuzzEntryLine, which holds
// appendEntry to json.Marshal byte for byte, catch the omission. Reading
// stays on encoding/json, which parses every line written here.

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
