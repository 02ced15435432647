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

// A journal or snapshot line is appended and read by hand, both ways
// from one table per payload type: its fields in struct order, each
// under its Go name, with its accessor and its kind (str, num, unsigned,
// boolean, stamp, strs, object, ptr, slice), and opt where its tag says
// omitempty. Each kind builds the field's read step and its append step.
//
// fields.line appends the bytes json.Marshal makes of a value, then
// '\n', into the caller's appender, so a line makes no object (the
// reflective encoder makes one for every time.Time it meets): an opt
// field that is empty is left out, a nil slice or pointer is null and an
// empty slice [], and an enum is its integer. fields.read is the
// inverse: one scan of the line, straight into the struct. It accepts
// exactly the lines json.Unmarshal accepts and yields what it yields, so
// every line an older binary wrote still reads.
//
// A field added to a payload type is added to its table, or the journal
// drops it: TestLineTablesNameEveryField names it, and FuzzEntryLine and
// FuzzEntryRead, which hold the table to json.Marshal and json.Unmarshal,
// catch a wrong kind or accessor.

// appender is a line being appended, and the first error met writing
// it: a time that RFC 3339 cannot hold, which json.Marshal refuses too.
// A line's appender lives in its pooled lineBuf, and a snapshot's in its
// saveLocked: the tables' steps are function values, so an appender
// handed to them is on the heap.
type appender struct {
	b   []byte
	err error
}

var (
	errYear = errors.New("time: year outside of range [0,9999]")
	errZone = errors.New("time: timezone hour outside of range [0,23]")
)

var (
	entryFields = newFields(
		str("Op", func(e *Entry) *string { return &e.Op }),
		opt(ptr("User", func(e *Entry) **types.User { return &e.User }, userFields)),
		opt(str("Group", func(e *Entry) *string { return &e.Group })),
		opt(str("Member", func(e *Entry) *string { return &e.Member })),
		opt(ptr("Resource", func(e *Entry) **types.Resource { return &e.Resource }, resourceFields)),
		opt(ptr("Coll", func(e *Entry) **types.Collection { return &e.Coll }, collFields)),
		opt(ptr("Object", func(e *Entry) **types.DataObject { return &e.Object }, objectFields)),
		opt(str("Path", func(e *Entry) *string { return &e.Path })),
		opt(str("Path2", func(e *Entry) *string { return &e.Path2 })),
		opt(str("Name", func(e *Entry) *string { return &e.Name })),
		opt(str("Grantee", func(e *Entry) *string { return &e.Grantee })),
		opt(num("Level", func(e *Entry) *int { return &e.Level })),
		opt(num("Class", func(e *Entry) *int { return &e.Class })),
		opt(ptr("AVU", func(e *Entry) **types.AVU { return &e.AVU }, avuFields)),
		opt(ptr("NewAVU", func(e *Entry) **types.AVU { return &e.NewAVU }, avuFields)),
		opt(ptr("Attr", func(e *Entry) **types.StructuralAttr { return &e.Attr }, structuralFields)),
		opt(ptr("Ann", func(e *Entry) **types.Annotation { return &e.Ann }, annotationFields)),
		opt(boolean("Online", func(e *Entry) *bool { return &e.Online })),
		opt(str("Value", func(e *Entry) *string { return &e.Value })),
		opt(ptr("Repair", func(e *Entry) **types.RepairTask { return &e.Repair }, repairFields)),
		opt(slice("Meta", func(e *Entry) *[]types.AVU { return &e.Meta }, avuFields)),
	)
	headFields = newFields(
		num("Version", func(h *snapshotHead) *int { return &h.Version }),
		num("NextID", func(h *snapshotHead) *types.ObjectID { return &h.NextID }),
		opt(num("Entries", func(h *snapshotHead) *int { return &h.Entries })),
		opt(ptr("Root", func(h *snapshotHead) **types.Collection { return &h.Root }, collFields)),
		opt(unsigned("Gen", func(h *snapshotHead) *uint64 { return &h.Gen })),
	)
	userFields = newFields(
		str("Name", func(u *types.User) *string { return &u.Name }),
		str("Domain", func(u *types.User) *string { return &u.Domain }),
		stamp("CreatedAt", func(u *types.User) *time.Time { return &u.CreatedAt }),
		boolean("Admin", func(u *types.User) *bool { return &u.Admin }),
	)
	resourceFields = newFields(
		str("Name", func(r *types.Resource) *string { return &r.Name }),
		num("Kind", func(r *types.Resource) *types.ResourceKind { return &r.Kind }),
		num("Class", func(r *types.Resource) *types.ResourceClass { return &r.Class }),
		str("Driver", func(r *types.Resource) *string { return &r.Driver }),
		str("Server", func(r *types.Resource) *string { return &r.Server }),
		strs("Members", func(r *types.Resource) *[]string { return &r.Members }),
		boolean("Online", func(r *types.Resource) *bool { return &r.Online }),
		opt(str("ReplPolicy", func(r *types.Resource) *string { return &r.ReplPolicy })),
		stamp("CreatedAt", func(r *types.Resource) *time.Time { return &r.CreatedAt }),
	)
	collFields = newFields(
		str("Path", func(c *types.Collection) *string { return &c.Path }),
		str("Owner", func(c *types.Collection) *string { return &c.Owner }),
		stamp("CreatedAt", func(c *types.Collection) *time.Time { return &c.CreatedAt }),
		str("LinkTarget", func(c *types.Collection) *string { return &c.LinkTarget }),
	)
	objectFields = newFields(
		num("ID", func(o *types.DataObject) *types.ObjectID { return &o.ID }),
		str("Name", func(o *types.DataObject) *string { return &o.Name }),
		str("Collection", func(o *types.DataObject) *string { return &o.Collection }),
		num("Kind", func(o *types.DataObject) *types.ObjectKind { return &o.Kind }),
		str("DataType", func(o *types.DataObject) *string { return &o.DataType }),
		str("Owner", func(o *types.DataObject) *string { return &o.Owner }),
		num("Size", func(o *types.DataObject) *int64 { return &o.Size }),
		str("Checksum", func(o *types.DataObject) *string { return &o.Checksum }),
		stamp("CreatedAt", func(o *types.DataObject) *time.Time { return &o.CreatedAt }),
		stamp("ModifiedAt", func(o *types.DataObject) *time.Time { return &o.ModifiedAt }),
		slice("Replicas", func(o *types.DataObject) *[]types.Replica { return &o.Replicas }, replicaFields),
		str("Container", func(o *types.DataObject) *string { return &o.Container }),
		num("ContainerOffset", func(o *types.DataObject) *int64 { return &o.ContainerOffset }),
		num("ContainerSize", func(o *types.DataObject) *int64 { return &o.ContainerSize }),
		str("LinkTarget", func(o *types.DataObject) *string { return &o.LinkTarget }),
		str("URL", func(o *types.DataObject) *string { return &o.URL }),
		ptr("SQL", func(o *types.DataObject) **types.SQLSpec { return &o.SQL }, sqlFields),
		ptr("Method", func(o *types.DataObject) **types.MethodSpec { return &o.Method }, methodFields),
		slice("Alternates", func(o *types.DataObject) *[]types.AltSpec { return &o.Alternates }, altFields),
		object("Lock", func(o *types.DataObject) *types.Lock { return &o.Lock }, lockFields),
		slice("Pins", func(o *types.DataObject) *[]types.Pin { return &o.Pins }, pinFields),
		slice("Versions", func(o *types.DataObject) *[]types.Version { return &o.Versions }, versionFields),
		str("CheckedOutBy", func(o *types.DataObject) *string { return &o.CheckedOutBy }),
	)
	replicaFields = newFields(
		num("Number", func(r *types.Replica) *types.ReplicaNumber { return &r.Number }),
		str("Resource", func(r *types.Replica) *string { return &r.Resource }),
		str("PhysicalPath", func(r *types.Replica) *string { return &r.PhysicalPath }),
		num("Status", func(r *types.Replica) *types.ReplicaStatus { return &r.Status }),
		num("Size", func(r *types.Replica) *int64 { return &r.Size }),
		str("Checksum", func(r *types.Replica) *string { return &r.Checksum }),
		stamp("CreatedAt", func(r *types.Replica) *time.Time { return &r.CreatedAt }),
		stamp("ModifiedAt", func(r *types.Replica) *time.Time { return &r.ModifiedAt }),
		boolean("Registered", func(r *types.Replica) *bool { return &r.Registered }),
	)
	sqlFields = newFields(
		str("Resource", func(s *types.SQLSpec) *string { return &s.Resource }),
		str("Query", func(s *types.SQLSpec) *string { return &s.Query }),
		boolean("Partial", func(s *types.SQLSpec) *bool { return &s.Partial }),
		str("Template", func(s *types.SQLSpec) *string { return &s.Template }),
	)
	methodFields = newFields(
		boolean("Proxy", func(m *types.MethodSpec) *bool { return &m.Proxy }),
		str("Server", func(m *types.MethodSpec) *string { return &m.Server }),
		str("Name", func(m *types.MethodSpec) *string { return &m.Name }),
		strs("Args", func(m *types.MethodSpec) *[]string { return &m.Args }),
	)
	altFields = newFields(
		num("Kind", func(a *types.AltSpec) *types.ObjectKind { return &a.Kind }),
		str("URL", func(a *types.AltSpec) *string { return &a.URL }),
		ptr("SQL", func(a *types.AltSpec) **types.SQLSpec { return &a.SQL }, sqlFields),
		str("Resource", func(a *types.AltSpec) *string { return &a.Resource }),
		str("PhysicalPath", func(a *types.AltSpec) *string { return &a.PhysicalPath }),
	)
	lockFields = newFields(
		num("Kind", func(l *types.Lock) *types.LockKind { return &l.Kind }),
		str("Holder", func(l *types.Lock) *string { return &l.Holder }),
		stamp("Expires", func(l *types.Lock) *time.Time { return &l.Expires }),
	)
	pinFields = newFields(
		str("Resource", func(p *types.Pin) *string { return &p.Resource }),
		str("Holder", func(p *types.Pin) *string { return &p.Holder }),
		stamp("Expires", func(p *types.Pin) *time.Time { return &p.Expires }),
	)
	versionFields = newFields(
		num("Number", func(v *types.Version) *int { return &v.Number }),
		str("Resource", func(v *types.Version) *string { return &v.Resource }),
		str("Path", func(v *types.Version) *string { return &v.Path }),
		num("Size", func(v *types.Version) *int64 { return &v.Size }),
		str("Checksum", func(v *types.Version) *string { return &v.Checksum }),
		stamp("CreatedAt", func(v *types.Version) *time.Time { return &v.CreatedAt }),
		str("Comment", func(v *types.Version) *string { return &v.Comment }),
	)
	avuFields = newFields(
		str("Name", func(v *types.AVU) *string { return &v.Name }),
		str("Value", func(v *types.AVU) *string { return &v.Value }),
		str("Units", func(v *types.AVU) *string { return &v.Units }),
	)
	structuralFields = newFields(
		str("Name", func(s *types.StructuralAttr) *string { return &s.Name }),
		strs("Defaults", func(s *types.StructuralAttr) *[]string { return &s.Defaults }),
		str("Comment", func(s *types.StructuralAttr) *string { return &s.Comment }),
		boolean("Mandatory", func(s *types.StructuralAttr) *bool { return &s.Mandatory }),
		str("Units", func(s *types.StructuralAttr) *string { return &s.Units }),
	)
	annotationFields = newFields(
		str("Author", func(n *types.Annotation) *string { return &n.Author }),
		str("Kind", func(n *types.Annotation) *string { return &n.Kind }),
		str("Location", func(n *types.Annotation) *string { return &n.Location }),
		str("Text", func(n *types.Annotation) *string { return &n.Text }),
		stamp("CreatedAt", func(n *types.Annotation) *time.Time { return &n.CreatedAt }),
	)
	repairFields = newFields(
		str("Key", func(t *types.RepairTask) *string { return &t.Key }),
		str("Path", func(t *types.RepairTask) *string { return &t.Path }),
		str("Resource", func(t *types.RepairTask) *string { return &t.Resource }),
		str("Kind", func(t *types.RepairTask) *string { return &t.Kind }),
		opt(str("Reason", func(t *types.RepairTask) *string { return &t.Reason })),
		stamp("Enqueued", func(t *types.RepairTask) *time.Time { return &t.Enqueued }),
		opt(num("Attempts", func(t *types.RepairTask) *int { return &t.Attempts })),
	)
	noFields = newFields[struct{}]()
)

// field is a payload type's field: its Go name, its key as a line
// writes it after another field, whether it is left out when empty
// (omitempty), and its kind's steps on a T: reading its value, appending
// it, and telling whether it is empty.
type field[T any] struct {
	name  string
	key   string
	opt   bool
	read  func(*reader, *T)
	write func(*appender, *T)
	empty func(*T) bool
}

// opt marks f omitempty.
func opt[T any](f field[T]) field[T] {
	f.opt = true
	return f
}

func str[T any](name string, at func(*T) *string) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { r.str(at(v)) },
		write: func(a *appender, v *T) { a.str(*at(v)) },
		empty: func(v *T) bool { return *at(v) == "" },
	}
}

// num is an integer field: an int, an int64 or an enum over one.
func num[T any, F ~int | ~int64](name string, at func(*T) *F) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { integer(r, at(v)) },
		write: func(a *appender, v *T) { a.b = strconv.AppendInt(a.b, int64(*at(v)), 10) },
		empty: func(v *T) bool { return *at(v) == 0 },
	}
}

func unsigned[T any](name string, at func(*T) *uint64) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { r.uint(at(v)) },
		write: func(a *appender, v *T) { a.b = strconv.AppendUint(a.b, *at(v), 10) },
		empty: func(v *T) bool { return *at(v) == 0 },
	}
}

func boolean[T any](name string, at func(*T) *bool) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { r.bool(at(v)) },
		write: func(a *appender, v *T) { a.b = strconv.AppendBool(a.b, *at(v)) },
		empty: func(v *T) bool { return !*at(v) },
	}
}

// stamp is a time.Time field, which omitempty never leaves out.
func stamp[T any](name string, at func(*T) *time.Time) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { r.time(at(v)) },
		write: func(a *appender, v *T) { a.time(*at(v)) },
		empty: func(*T) bool { return false },
	}
}

// strs is a list of strings.
func strs[T any](name string, at func(*T) *[]string) field[T] {
	return listOf(name, at, (*reader).str, func(a *appender, s *string) { a.str(*s) })
}

// object is a struct field, read and appended by its type's table;
// omitempty never leaves it out.
func object[T, F any](name string, at func(*T) *F, fs *fields[F]) field[T] {
	return field[T]{name: name,
		read:  func(r *reader, v *T) { fs.read(r, at(v)) },
		write: func(a *appender, v *T) { fs.write(a, at(v)) },
		empty: func(*T) bool { return false },
	}
}

// ptr is a pointer to a struct: read into *p, made if *p is nil, and
// null makes *p nil.
func ptr[T, F any](name string, at func(*T) **F, fs *fields[F]) field[T] {
	return field[T]{name: name,
		read: func(r *reader, v *T) {
			p := at(v)
			switch {
			case r.null():
				*p = nil
				return
			case *p == nil:
				*p = new(F)
			}
			fs.read(r, *p)
		},
		write: func(a *appender, v *T) {
			if p := *at(v); p == nil {
				a.raw("null")
			} else {
				fs.write(a, p)
			}
		},
		empty: func(v *T) bool { return *at(v) == nil },
	}
}

// slice is a list of structs.
func slice[T, F any](name string, at func(*T) *[]F, fs *fields[F]) field[T] {
	return listOf(name, at, fs.read, fs.write)
}

// listOf is a list, each element read and appended by the steps given:
// a nil slice is null, an empty one [].
func listOf[T, F any](name string, at func(*T) *[]F, read func(*reader, *F), write func(*appender, *F)) field[T] {
	return field[T]{name: name,
		read: func(r *reader, v *T) { p := at(v); *p = list(r, *p, read) },
		write: func(a *appender, v *T) {
			s := *at(v)
			if s == nil {
				a.raw("null")
				return
			}
			a.raw("[")
			for i := range s {
				if i > 0 {
					a.raw(",")
				}
				write(a, &s[i])
			}
			a.raw("]")
		},
		empty: func(v *T) bool { return len(*at(v)) == 0 },
	}
}

// fields is a payload type's table: its fields, and each name folded
// (appendFolded), which is how encoding/json matches a key that names
// no field exactly.
type fields[T any] struct {
	list   []field[T]
	folded []string
}

func newFields[T any](list ...field[T]) *fields[T] {
	fs := &fields[T]{list: list}
	for i := range list {
		list[i].key = `,"` + list[i].name + `":`
		fs.folded = append(fs.folded, string(appendFolded(nil, []byte(list[i].name))))
	}
	return fs
}

// line appends v's line to a.b: what json.Marshal makes of v, then '\n'.
func (fs *fields[T]) line(a *appender, v *T) error {
	a.err = nil
	fs.write(a, v)
	a.raw("\n")
	return a.err
}

// write appends v as json.Marshal does: its fields in order, but for an
// opt one that is empty.
func (fs *fields[T]) write(a *appender, v *T) {
	a.b = append(a.b, '{')
	comma := 1 // the first key written goes without its comma
	for i := range fs.list {
		f := &fs.list[i]
		if f.opt && f.empty(v) {
			continue
		}
		a.b = append(a.b, f.key[comma:]...)
		comma = 0
		f.write(a, v)
	}
	a.b = append(a.b, '}')
}

func (a *appender) raw(s string) { a.b = append(a.b, s...) }

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
