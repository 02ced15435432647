package mcat

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
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

// FuzzEntryLine holds appendEntry and appendHead to json.Marshal: the
// same bytes, then '\n', and an error exactly where json.Marshal refuses.
// The corpus is every line of the journal fixtures, which hold every
// entry kind (TestJournalFixture checks that), each as it is and with
// its strings, times, slices and pointers replaced by fuzzed ones.
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
		sameLine(t, "entry", &e, func(b []byte) ([]byte, error) { return appendEntry(b, &e) })
		h := snapshotHead{Version: int(nsec), NextID: types.ObjectID(sec), Entries: off, Root: e.Coll, Gen: uint64(sec)}
		sameLine(t, "head", &h, func(b []byte) ([]byte, error) { return appendHead(b, &h) })
	})
}

// sameLine holds what appendLine appends after a prefix to what
// json.Marshal makes of v, then '\n'.
func sameLine(t *testing.T, what string, v any, appendLine func([]byte) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, gerr := appendLine([]byte("prefix"))
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
