package mcat

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gosrb/internal/types"
)

// EncodeLine encodes e into a pooled line and hands the line back, for
// the allocation fences in package mcat_test.
func EncodeLine(e *Entry) error {
	l, err := encodeLine(e)
	if err == nil {
		l.free()
	}
	return err
}

// FuzzEntryLine holds entryFields.line and headFields.line to
// json.Marshal: the same bytes, then '\n', and an error exactly where
// json.Marshal refuses. The corpus is every line of the journal
// fixtures, which hold every entry kind (TestJournalFixture checks
// that), each as it is and with its strings, times, slices and pointers
// replaced by fuzzed ones.
func FuzzEntryLine(f *testing.F) {
	hostile := "a\x00\x1f\b\f\n\r\t<>&\u2028\u2029\"\\\xff\xc3|é\x7f|"
	for _, file := range []string{"testdata/journal.v1", "testdata/journal.ingest"} {
		fixture, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(fixture), []byte("\n")) {
			f.Add(line, "", int64(0), int64(0), 0, uint8(0))
			f.Add(line, hostile, int64(1_000_000_000), int64(123_456_789), 5*3600+1800, uint8(0xff))
			f.Add(line, "|x|", int64(-62135596800), int64(0), 0, uint8(0x0f)) // the zero time, in UTC
			f.Add(line, "", int64(1_000_000_000), int64(500), -3600-15, uint8(0x9a))
		}
	}
	f.Add([]byte(`{"Op":"annotate"}`), "", int64(253402300800), int64(0), 0, uint8(0x06)) // year 10000
	f.Add([]byte(`{"Op":"adduser"}`), "", int64(-62167219201), int64(0), 0, uint8(0x06))  // year -1
	f.Add([]byte(`{"Op":"addresource"}`), "", int64(0), int64(0), 24*3600, uint8(0x86))   // zone hour 24
	f.Add([]byte(`{"Op":"repairenq"}`), "", int64(0), int64(0), -100*3600, uint8(0x86))   // zone hour 100
	f.Add([]byte(`not a line`), hostile, int64(0), int64(1), 59, uint8(0xff))

	f.Fuzz(func(t *testing.T, line []byte, s string, sec, nsec int64, off int, mask uint8) {
		var e Entry
		_ = json.Unmarshal(line, &e)
		tm := time.Unix(sec, nsec).UTC()
		if mask&0x80 != 0 {
			tm = tm.In(time.FixedZone("", off))
		}
		m := mutator{pieces: strings.Split(s, "|"), time: tm, mask: mask}
		m.walk(reflect.ValueOf(&e).Elem())
		sameLine(t, "entry", &e, entryFields)
		h := snapshotHead{Version: int(nsec), NextID: types.ObjectID(sec), Entries: off, Root: e.Coll, Gen: uint64(sec)}
		sameLine(t, "head", &h, headFields)
	})
}

// sameLine holds what fs.line appends after a prefix to what
// json.Marshal makes of v, then '\n'.
func sameLine[T any](t *testing.T, what string, v *T, fs *fields[T]) {
	t.Helper()
	want, werr := json.Marshal(v)
	a := appender{b: []byte("prefix")}
	gerr := fs.line(&a, v)
	got := a.b
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%s: json.Marshal error %v, appended error %v", what, werr, gerr)
	case werr != nil:
	case !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], append(want, '\n')):
		t.Fatalf("%s: appended\n%q\njson.Marshal\n%q", what, got, want)
	}
}

// mutator replaces an entry's fields, each kind under one bit of mask:
// strings with the pieces in turn, times with time, nil pointers with
// zero structs, nil slices with empty ones or with one zero element,
// integers with the piece count, and bools with true.
type mutator struct {
	pieces []string
	next   int
	time   time.Time
	mask   uint8
}

var timeType = reflect.TypeOf(time.Time{})

func (m *mutator) walk(v reflect.Value) {
	switch {
	case v.Type() == timeType:
		if m.mask&0x02 != 0 {
			v.Set(reflect.ValueOf(m.time))
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				m.walk(v.Field(i))
			}
		}
	case v.Kind() == reflect.Pointer:
		if v.IsNil() && m.mask&0x04 != 0 {
			v.Set(reflect.New(v.Type().Elem()))
		}
		if !v.IsNil() {
			m.walk(v.Elem())
		}
	case v.Kind() == reflect.Slice:
		switch {
		case !v.IsNil():
		case m.mask&0x10 != 0:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case m.mask&0x08 != 0:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		}
		for i := 0; i < v.Len(); i++ {
			m.walk(v.Index(i))
		}
	case v.Kind() == reflect.String:
		if m.mask&0x01 != 0 {
			v.SetString(m.pieces[m.next%len(m.pieces)])
			m.next++
		}
	case v.Kind() == reflect.Int || v.Kind() == reflect.Int64:
		if m.mask&0x20 != 0 {
			v.SetInt(int64(len(m.pieces)) - 2)
		}
	case v.Kind() == reflect.Bool:
		if m.mask&0x40 != 0 {
			v.SetBool(true)
		}
	}
}

// FuzzEntryRead holds readEntry and readHead to json.Unmarshal: the same
// accept or refuse decision, and on accept a reflect.DeepEqual result.
// The corpus is every line of the journal and snapshot fixtures, and
// hostile lines: keys reordered, case-folded and repeated, nulls,
// escapes, invalid UTF-8, numbers an integer field refuses, values of the
// wrong type, unknown keys and deep nesting. Each input is also read as
// FuzzEntryLine mutates it, appended by entryFields.line (and
// headFields.line), so every field the tables write is read back.
func FuzzEntryRead(f *testing.F) {
	for _, file := range []string{"testdata/journal.v1", "testdata/journal.ingest", "testdata/snapshot.v2"} {
		fixture, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(fixture), []byte("\n")) {
			f.Add(line, "", int64(0), int64(0), 0, uint8(0))
			f.Add(line, "a\"\\\xff\xc3|é\u2028|", int64(1_000_000_000), int64(123_456_789), 5*3600+1800, uint8(0xff))
			f.Add(line, "|x|", int64(-62135596800), int64(0), 0, uint8(0x3d))
		}
	}
	deep := strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1)
	for _, line := range []string{
		`{"Object":{"Name":"x","Replicas":[{"Status":1,"Number":2}],"ID":3},"Op":"ingest"}`,
		`{"op":"mkcoll","COLL":{"pAth":"/a","ſ":1},"\u212aey":2}`,
		"{\"Op\":\"ingest\",\"Object\":{\"\u212aind\":2,\"ID\":1,\"checkedoutBY\":\"x\"},\"PATH2\":\"/b\"}",
		`{"Op":"a","Op":"b","User":{"Name":"a"},"User":{"Domain":"b"},"Repair":{"Key":"k"},"Repair":null}`,
		`{"Meta":[{"Name":"x","Value":"y"},{"Name":"z"}],"Meta":[{"Units":"u"}],"Meta":[null,{},{"Name":"w"}]}`,
		`{"Resource":{"Members":["a","b","c"]},"Resource":{"Members":["d"]},"Resource":{"Members":[null,null]}}`,
		`{"Meta":[{"Name":"x"}],"Meta":[]}`, `{"Coll":{"Path":"/a"},"Coll":null}`, `{"Meta":[{}],"Meta":null}`,
		`{"Op":null,"Level":null,"Online":null,"Object":{"Replicas":null,"Lock":null,"CreatedAt":null,"ID":null,"SQL":null,"Pins":[]}}`,
		`{"Op":"\u0069ngest","Path":"\/a\"b\\c\n\u00e9\ud83d\ude00\u003c","Name":"\ud800x","Value":"\udc00\ud800\ud800"}`,
		"{\"Op\":\"x\xff\",\"Path\":\"\xc3\",\"\xffOp\":1,\"Name\":\"\xed\xa0\x80\"}",
		`{"Level":1e2}`, `{"Level":1.0}`, `{"Level":01}`, `{"Level":-0}`, `{"Level":-}`, `{"Level":.5}`,
		`{"Level":9223372036854775807}`, `{"Level":9223372036854775808}`, `{"Level":-9223372036854775809}`,
		`{"Object":{"Size":99999999999999999999,"Kind":"1"}}`,
		`{"Version":2,"NextID":7,"Entries":1,"Root":{"Path":"/"},"Gen":18446744073709551615}`,
		`{"Version":2,"Gen":-1}`, `{"Version":2,"Gen":18446744073709551616}`, `{"Version":2.5}`, `{"Root":[]}`,
		`{"Op":1}`, `{"User":"x"}`, `{"Meta":{}}`, `{"Online":"true"}`, `{"Online":tru}`, `{"Group":nul}`,
		`{"Object":{"CreatedAt":5}}`, `{"Object":{"CreatedAt":{}}}`, `{"Object":{"CreatedAt":"2002-07-24T09:00:00\u005a"}}`,
		`{"Object":{"CreatedAt":"2002-07-24T09:00:00+05:30","ModifiedAt":"2002-07-24T09:00:00.5-01:00"}}`,
		`{"Object":{"CreatedAt":"2002-7-24T09:00:00Z"}}`, `{"Object":{"Lock":{"Expires":"10000-01-01T00:00:00Z"}}}`,
		`{"Op":"x","junk":{"a":[1,-2.5e+3,{"b":null}],"c":true,"d":"\u00e9"},"more":[],"x":false}`,
		`{"junk":[1,]}`, `{"junk":{"a"}}`, `{"junk":{"a":1,}}`, `{"Op":"x",}`, `{,}`, `{"Op" "x"}`, `{"Op":"x" "Path":"y"}`,
		" \t{ \"Op\" : \"x\" , \"Level\" : 2 , \"Meta\" : [ { } , { \"Name\" : \"n\" } ] } \r\n",
		`null`, `[]`, `"x"`, `5`, ``, ` `, `{}`, `{"Op":"x"} x`, `{"Op":"x"}{}`, `{"Op":"x"`, `{"Op`,
		"{\"Op\":\"a\x01\"}", `{"Op":"\x"}`, `{"Op":"\u12"}`, `{"Op":"\u12g4"}`, "{\"Op\":\"a\x7f\"}",
		`{"x":` + deep + `}`, `{"x":[` + deep + `]}`, `{"Meta":[` + deep + `]}`,
	} {
		f.Add([]byte(line), "", int64(0), int64(0), 0, uint8(0))
	}

	f.Fuzz(func(t *testing.T, line []byte, s string, sec, nsec int64, off int, mask uint8) {
		sameRead(t, line)
		var e Entry
		_ = json.Unmarshal(line, &e)
		tm := time.Unix(sec, nsec).UTC()
		if mask&0x80 != 0 {
			tm = tm.In(time.FixedZone("", off))
		}
		m := mutator{pieces: strings.Split(s, "|"), time: tm, mask: mask}
		m.walk(reflect.ValueOf(&e).Elem())
		var a appender
		if entryFields.line(&a, &e) == nil {
			sameRead(t, a.b)
		}
		h := snapshotHead{Version: int(nsec), NextID: types.ObjectID(sec), Entries: off, Root: e.Coll, Gen: uint64(sec)}
		if a.b = a.b[:0]; headFields.line(&a, &h) == nil {
			sameRead(t, a.b)
		}
	})
}

// sameRead holds readEntry and readHead on line to json.Unmarshal.
func sameRead(t *testing.T, line []byte) {
	t.Helper()
	var want, got Entry
	same(t, line, json.Unmarshal(line, &want), readEntry(line, &got), &want, &got)
	var wantH, gotH snapshotHead
	same(t, line, json.Unmarshal(line, &wantH), readHead(line, &gotH), &wantH, &gotH)
}

func same(t *testing.T, line []byte, werr, gerr error, want, got any) {
	t.Helper()
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%q into %T: json.Unmarshal error %v, read error %v", line, want, werr, gerr)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%q into %T:\nread           %+v\njson.Unmarshal %+v", line, want, got, want)
	}
}

// TestLineTablesNameEveryField holds each line table to its type: the
// type's exported fields in struct order, each under its Go name, and
// opt exactly where the field's tag says omitempty. A field added to a
// payload type and not to its table fails here by name.
func TestLineTablesNameEveryField(t *testing.T) {
	tableNames(t, entryFields)
	tableNames(t, headFields)
	tableNames(t, userFields)
	tableNames(t, resourceFields)
	tableNames(t, collFields)
	tableNames(t, objectFields)
	tableNames(t, replicaFields)
	tableNames(t, sqlFields)
	tableNames(t, methodFields)
	tableNames(t, altFields)
	tableNames(t, lockFields)
	tableNames(t, pinFields)
	tableNames(t, versionFields)
	tableNames(t, avuFields)
	tableNames(t, structuralFields)
	tableNames(t, annotationFields)
	tableNames(t, repairFields)
}

func tableNames[T any](t *testing.T, fs *fields[T]) {
	typ := reflect.TypeFor[T]()
	t.Run(typ.Name(), func(t *testing.T) {
		var want, got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Name
			if _, opts, _ := strings.Cut(f.Tag.Get("json"), ","); slices.Contains(strings.Split(opts, ","), "omitempty") {
				name += ",omitempty"
			}
			want = append(want, name)
		}
		for _, f := range fs.list {
			if f.opt {
				f.name += ",omitempty"
			}
			got = append(got, f.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("the table names\n%q\nthe type's fields are\n%q", got, want)
		}
	})
}

// BenchmarkLine appends a one-replica put's journal line into a pooled
// buffer, and reads it back.
func BenchmarkLine(b *testing.B) {
	at := time.Date(2002, 7, 24, 9, 0, 0, 123456789, time.UTC)
	e := &Entry{Op: "ingest", Meta: []types.AVU{{Name: "band", Value: "J"}, {Name: "mag", Value: "7"}}, Object: &types.DataObject{
		ID: 7, Collection: "/zone/proj", Name: "frame.fits", Owner: "alice", DataType: "generic",
		Size: 4096, Checksum: "4f2a9c", CreatedAt: at, ModifiedAt: at, Replicas: []types.Replica{{
			Resource: "disk1", PhysicalPath: "/vault/007/oid7.r0", Status: types.ReplicaClean,
			Size: 4096, Checksum: "4f2a9c", CreatedAt: at, ModifiedAt: at,
		}},
	}}
	l, err := encodeLine(e)
	if err != nil {
		b.Fatal(err)
	}
	line := bytes.Clone(l.b)
	l.free()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			l, err := encodeLine(e)
			if err != nil {
				b.Fatal(err)
			}
			l.free()
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var got Entry
			if err := readEntry(line, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
