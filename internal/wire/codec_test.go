package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gosrb/internal/lend"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// hotTypes is every type with a binary codec: the differential test
// and the body fuzzer run over this one list.
var hotTypes = []hotType{
	hot[struct{}]{}, hot[PathArgs]{}, hot[IngestArgs]{}, hot[MetaArgs]{}, hot[GetMetaArgs]{},
	hot[AnnotateArgs]{}, hot[RangeArgs]{}, hot[QueryArgs]{}, hot[MultiGetArgs]{}, hot[BulkStatArgs]{},
	hot[SizeReply]{}, hot[types.Stat]{}, hot[[]types.Stat]{}, hot[types.DataObject]{}, hot[[]types.AVU]{},
	hot[QueryReply]{}, hot[MultiGetReply]{}, hot[BulkStatReply]{},
}

type hotType interface {
	// name is the type's Go name.
	name() string
	// sample encodes a random value of the type.
	sample(r *rand.Rand) []byte
	// differential fails t unless a random value comes back the same
	// through the binary codec, as args and as a reply, and through JSON.
	differential(t *testing.T, r *rand.Rand)
	// decode decodes raw as the type, as args and as a reply.
	decode(raw []byte)
}

type hot[T any] struct{}

func (hot[T]) name() string { return reflect.TypeOf((*T)(nil)).Elem().String() }

func (hot[T]) sample(r *rand.Rand) []byte {
	var v T
	fill(reflect.ValueOf(&v).Elem(), r)
	b, _ := AppendBody(nil, &v)
	return b
}

func (hot[T]) decode(raw []byte) {
	DecodeArgs[T](raw)
	var slab strings.Builder
	DecodeArgsIn[T](raw, &slab)
	DecodeBody(raw, new(T))
}

// diffSlab is the slab the differential test decodes args into, one for
// the whole run, so its samples roll it many times.
var diffSlab strings.Builder

// TestCodecDifferential sends seeded random values of every hot type
// through the binary codec — as args (DecodeArgs) and as a reply
// (DecodeBody) — and through JSON, and wants the same value back from
// all three. The values are filled by reflection, field by field, so a
// field added to a hot type and left out of its codec fails here.
func TestCodecDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		for _, h := range hotTypes {
			h.differential(t, r)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/bodies.hex from the current codec")

// bodiesFixture holds seeded samples of every hot type, one body a line
// as its type's name and its bytes in hex.
const bodiesFixture = "testdata/bodies.hex"

// TestBodyBytesPinned pins the body bytes themselves: the same seeded
// samples of every hot type must encode to the bytes in bodiesFixture,
// which an older build wrote. The differential test only shows that a
// value survives a round trip; this one fails on any change to a layout,
// which a peer running another build would misread. Regenerate with
// -update only for a deliberate format change, under new body tags.
func TestBodyBytesPinned(t *testing.T) {
	var out bytes.Buffer
	r := rand.New(rand.NewSource(57))
	for i := 0; i < 20; i++ {
		for _, h := range hotTypes {
			fmt.Fprintf(&out, "%s %s\n", h.name(), hex.EncodeToString(h.sample(r)))
		}
	}
	if *update {
		if err := os.WriteFile(bodiesFixture, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(bodiesFixture)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d bodies encoded, the fixture holds %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Fatalf("body %d encodes as\n%s\nthe fixture holds\n%s", i, got[i], wantLines[i])
		}
	}
}

// BenchmarkBodyCodec encodes and decodes, as a reply, a value of each of
// the shapes the small-object workload sends most: a path, a stat, a
// 100-entry listing and a two-replica catalog record.
func BenchmarkBodyCodec(b *testing.B) {
	at := time.Date(2002, 7, 24, 9, 30, 0, 123, time.UTC)
	st := types.Stat{Path: "/small/c000/o00000", Owner: "bench", Size: 4096, Replicas: 1, DataType: "generic", ModifiedAt: at}
	list := make([]types.Stat, 100)
	for i := range list {
		list[i] = st
		list[i].Path = fmt.Sprintf("/small/c000/o%05d", i)
	}
	obj := types.DataObject{ID: 42, Name: "o00000", Collection: "/small/c000", DataType: "generic", Owner: "bench",
		Size: 4096, Checksum: "sha256:0123456789abcdef", CreatedAt: at, ModifiedAt: at}
	for n := 0; n < 2; n++ {
		obj.Replicas = append(obj.Replicas, types.Replica{Number: types.ReplicaNumber(n), Resource: fmt.Sprintf("disk%d", n),
			PhysicalPath: fmt.Sprintf("/vault%d/00/42.%d", n, n), Size: 4096, Checksum: obj.Checksum, CreatedAt: at, ModifiedAt: at})
	}
	b.Run("PathArgs", benchBody(&PathArgs{Path: st.Path}))
	b.Run("Stat", benchBody(&st))
	b.Run("Stats100", benchBody(&list))
	b.Run("DataObject2", benchBody(&obj))
}

func benchBody[T any](v *T) func(*testing.B) {
	return func(b *testing.B) {
		buf, _ := AppendBody(nil, v)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendBody(buf[:0], v)
			var out T
			if err := DecodeBody(buf, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func (hot[T]) differential(t *testing.T, r *rand.Rand) {
	t.Helper()
	var v T
	fill(reflect.ValueOf(&v).Elem(), r)
	body, err := AppendBody(nil, &v)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	// A body only JSON can read is not binary.
	if err := DecodeBody(body, new(any)); !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("%T has no binary codec: its body decodes as JSON (%v)", v, err)
	}
	var reply T
	if err := DecodeBody(body, &reply); err != nil {
		t.Fatalf("%T: decode as reply: %v", v, err)
	}
	args, err := DecodeArgs[T](body)
	if err != nil {
		t.Fatalf("%T: decode as args: %v", v, err)
	}
	slabbed, err := DecodeArgsIn[T](body, &diffSlab)
	if err != nil {
		t.Fatalf("%T: decode as args in a slab: %v", v, err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: json: %v", v, err)
	}
	var want T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%T: json: %v", v, err)
	}
	for _, p := range []*T{&reply, &args, &slabbed, &want} {
		utcTimes(reflect.ValueOf(p).Elem())
	}
	if !reflect.DeepEqual(reply, want) {
		t.Fatalf("%T through the reply codec:\n got %+v\nwant %+v (JSON)", v, reply, want)
	}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("%T through the args codec:\n got %+v\nwant %+v (JSON)", v, args, want)
	}
	if !reflect.DeepEqual(slabbed, want) {
		t.Fatalf("%T through the args codec in a slab:\n got %+v\nwant %+v (JSON)", v, slabbed, want)
	}
}

var timeType = reflect.TypeOf(time.Time{})

// fill sets v to a random value that JSON can carry: strings empty, ASCII
// or not; integers zero, small or extreme; slices and maps nil, empty or
// full; pointers nil or set; times zero, UTC or in a zone of their own.
func fill(v reflect.Value, r *rand.Rand) {
	if v.Type() == timeType {
		v.Set(reflect.ValueOf(randTime(r)))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString([]string{"", "x", "/home/a/b.txt", "Grüße/数据/😀", fmt.Sprint(r.Int63())}[r.Intn(5)])
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63() - r.Int63()}[r.Intn(6)])
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), r)
		}
	case reflect.Pointer:
		if r.Intn(2) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), r)
	case reflect.Slice:
		switch n := r.Intn(5); n {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < n-1; i++ {
				fill(v.Index(i), r)
			}
		}
	case reflect.Map:
		switch n := r.Intn(4); n {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n-1; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k, r)
				fill(e, r)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// randTime is zero, or an instant in the years JSON can write, with
// nanoseconds, in UTC, Local or a fixed zone a whole number of minutes
// off.
func randTime(r *rand.Rand) time.Time {
	if r.Intn(4) == 0 {
		return time.Time{}
	}
	lo, hi := time.Date(2, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(9998, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	t := time.Unix(lo+r.Int63n(hi-lo), r.Int63n(1e9))
	switch r.Intn(3) {
	case 0:
		return t.UTC()
	case 1:
		return t
	}
	return t.In(time.FixedZone("", (r.Intn(28*60)-14*60)*60))
}

// utcTimes rewrites every time in v to UTC: equal instants then compare
// equal with reflect.DeepEqual, as they do with Time.Equal.
func utcTimes(v reflect.Value) {
	if v.Type() == timeType {
		v.Set(reflect.ValueOf(v.Interface().(time.Time).UTC()))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			utcTimes(v.Field(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			utcTimes(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			utcTimes(v.Index(i))
		}
	}
}

// TestCodecEdges pins the rules the differential test can only sample: a
// zero time is zero, nil and empty stay apart, and a body decoded into
// another type than its own fails.
func TestCodecEdges(t *testing.T) {
	st := types.Stat{Path: "/p", ModifiedAt: time.Time{}}
	body, _ := AppendBody(nil, &st)
	var back types.Stat
	if err := DecodeBody(body, &back); err != nil || !back.ModifiedAt.IsZero() || back != st {
		t.Errorf("zero time: got %+v, %v", back, err)
	}
	for _, in := range []MultiGetArgs{{}, {Paths: []string{}}} {
		body, _ := AppendBody(nil, &in)
		out, err := DecodeArgs[MultiGetArgs](body)
		if err != nil || (out.Paths == nil) != (in.Paths == nil) {
			t.Errorf("paths %#v came back as %#v, %v", in.Paths, out.Paths, err)
		}
	}
	if _, err := DecodeArgs[RangeArgs](body); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("a Stat body decoded as RangeArgs: %v", err)
	}
	jsonBody, _ := AppendBody(nil, &ShardPullArgs{Shard: 1})
	if _, err := DecodeArgs[PathArgs](jsonBody); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("a JSON body decoded as PathArgs: %v", err)
	}
	if _, err := DecodeArgs[ShardPullArgs](body); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("a binary body decoded as JSON: %v", err)
	}
	if a, err := DecodeArgs[PathArgs](nil); err != nil || a != (PathArgs{}) {
		t.Errorf("absent args = %+v, %v; want the zero struct", a, err)
	}
}

// TestDecodeMultiGetItems: the item-by-item decode a client's multiget
// uses hands over the items DecodeBody decodes, in order, and announces
// their DataLen; a body cut short, or of another type, fails.
func TestDecodeMultiGetItems(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var rep MultiGetReply
		fill(reflect.ValueOf(&rep).Elem(), r)
		body, _ := AppendBody(nil, &rep)
		var want MultiGetReply
		if err := DecodeBody(body, &want); err != nil {
			t.Fatal(err)
		}
		var got []MultiGetItem
		n, dataLen, err := DecodeMultiGetItems(body, func(i int, it MultiGetItem) {
			if i != len(got) {
				t.Fatalf("item %d handed over as %d", len(got), i)
			}
			got = append(got, it)
		})
		if err != nil || n != len(want.Items) || dataLen != want.DataLen() || len(got) != n {
			t.Fatalf("decoded %d items, %d bytes, %v; want %d items, %d bytes", n, dataLen, err, len(want.Items), want.DataLen())
		}
		for i := range got {
			if got[i] != want.Items[i] {
				t.Fatalf("item %d = %+v, want %+v", i, got[i], want.Items[i])
			}
		}
		for cut := 0; cut < len(body); cut++ {
			if _, _, err := DecodeMultiGetItems(body[:cut], func(int, MultiGetItem) {}); err == nil {
				t.Fatalf("a body cut at %d of %d decoded", cut, len(body))
			}
		}
	}
	stat, _ := AppendBody(nil, &types.Stat{Path: "/p"})
	if _, _, err := DecodeMultiGetItems(stat, func(int, MultiGetItem) {}); err == nil {
		t.Error("a Stat body decoded as a multiget manifest")
	}
}

// TestQueryReplyEncodesDeterministically: a hit's values travel as
// columns in Select order, so one reply encodes to the same bytes every
// time, and they decode into the same columns, a nil one still nil and
// an empty one still empty.
func TestQueryReplyEncodesDeterministically(t *testing.T) {
	sel := []string{"mag", "band", "dc:title", "sys:size"}
	column := func(i, k int) []string {
		switch {
		case i == 0 && k == 1:
			return nil
		case i == 0 && k == 2:
			return []string{}
		}
		return []string{fmt.Sprintf("%s-%d", sel[k], i), "second"}[:1+i%2]
	}
	var reply QueryReply
	for i := 0; i < 8; i++ {
		h := mcat.Hit{Path: fmt.Sprintf("/z/p/o%d", i)}
		for k := range sel {
			h.Values = append(h.Values, column(i, k))
		}
		reply.Hits = append(reply.Hits, h)
	}
	first, err := AppendBody(nil, &reply)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 100; n++ {
		if b, _ := AppendBody(nil, &reply); !bytes.Equal(b, first) {
			t.Fatalf("encoding %d of one reply differs from the first:\n%x\n%x", n, b, first)
		}
	}
	var back QueryReply
	if err := DecodeBody(first, &back); err != nil {
		t.Fatal(err)
	}
	for i, h := range back.Hits {
		if len(h.Values) != len(sel) {
			t.Fatalf("hit %d has %d columns, want %d", i, len(h.Values), len(sel))
		}
		for k := range sel {
			if got, want := h.Values[k], column(i, k); !reflect.DeepEqual(got, want) {
				t.Errorf("hit %d column %d (Select %q) = %#v, want %#v", i, k, sel[k], got, want)
			}
		}
	}
}

// TestEnvelopeRoundTrip: every envelope field survives the frame codec,
// and a frame cut short anywhere fails rather than decoding.
func TestEnvelopeRoundTrip(t *testing.T) {
	req := Request{ID: 1 << 40, Op: OpStat, OnBehalf: "alice", Ticket: "tk", Trace: 0x7b, Span: 1 << 63,
		Attempt: 2, TimeoutMillis: -1, Args: []byte{tagPathArgs, 1, 'x'}}
	resp := Response{ID: 9, OK: false, ErrKind: "notfound", ErrMsg: "no /x", Body: []byte{1, 2, 3}, DataFollows: true}
	rd := Redirect{ID: 3, Server: "srb2", Addr: "127.0.0.1:5545"}
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteRequest(&req); err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if _, err := c.ReadRequest(&gotReq); err != nil || !reflect.DeepEqual(gotReq, req) {
		t.Errorf("request %+v came back as %+v, %v", req, gotReq, err)
	}
	if err := c.WriteResponse(&resp); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRedirect(&rd); err != nil {
		t.Fatal(err)
	}
	_, p, _ := c.ReadMsg()
	var gotResp Response
	if err := DecodeResponse(*p, &gotResp); err != nil || !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("response %+v came back as %+v, %v", resp, gotResp, err)
	}
	_, p, _ = c.ReadMsg()
	var gotRd Redirect
	if err := DecodeRedirect(*p, &gotRd); err != nil || gotRd != rd {
		t.Errorf("redirect %+v came back as %+v, %v", rd, gotRd, err)
	}
	// Cut before the args, the request is short of a field; the redirect,
	// which has no open tail, is short wherever it is cut.
	full := appendRequest(nil, &Request{ID: 1, Op: OpStat, Trace: 1})
	for n := 0; n < len(full); n++ {
		if err := DecodeRequest(full[:n], new(Request)); !errors.Is(err, types.ErrInvalid) {
			t.Errorf("request cut to %d of %d bytes decoded: %v", n, len(full), err)
		}
	}
	full = appendRedirect(nil, &rd)
	for n := 0; n < len(full); n++ {
		if err := DecodeRedirect(full[:n], new(Redirect)); !errors.Is(err, types.ErrInvalid) {
			t.Errorf("redirect cut to %d of %d bytes decoded: %v", n, len(full), err)
		}
	}
}

// TestCodecAllocs fences the per-request cost of the codec. A server
// decodes a stat request and its args and encodes the reply frame in two
// objects: the path (a string that outlives the frame) and the boxed
// reply; the trace ID is an integer, and the body is encoded into a frame
// from the pool, as the server's reply is (it took a third object while
// the body was a slice of its own). A client
// decodes a 100-entry listing in three: the slice, its header and one
// string the entries' strings share.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled || lend.Canary {
		t.Skip("the race detector allocates on its own account, and under framecanary the frame pool keeps nothing")
	}
	args, _ := AppendBody(nil, &PathArgs{Path: "/small/c000/o00000"})
	payload := appendRequest(nil, &Request{ID: 7, Op: OpStat, Trace: 0x0123456789abcdef, Args: args})
	st := types.Stat{Path: "/small/c000/o00000", Owner: "bench", Size: 4096, Replicas: 1, DataType: "generic", ModifiedAt: time.Now()}
	c := NewConn(&discardRW{})
	server := testing.AllocsPerRun(200, func() {
		var req Request
		if err := DecodeRequest(payload, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeArgs[PathArgs](req.Args); err != nil {
			t.Fatal(err)
		}
		bp := GetFrame()
		defer PutFrame(bp)
		body, err := AppendBody(*bp, &st)
		if err != nil {
			t.Fatal(err)
		}
		*bp = body
		resp := Response{ID: req.ID, OK: true, Body: body}
		if err := c.WriteResponse(&resp); err != nil {
			t.Fatal(err)
		}
	})
	if server > 2 {
		t.Errorf("server stat decode + reply encode: %.1f objects, want ≤ 2", server)
	}

	list := make([]types.Stat, 100)
	for i := range list {
		list[i] = st
		list[i].Path = fmt.Sprintf("/small/c000/o%05d", i)
	}
	body, _ := AppendBody(nil, &list)
	payload = appendResponse(nil, &Response{ID: 7, OK: true, Body: body})
	client := testing.AllocsPerRun(200, func() {
		var resp Response
		if err := DecodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		var out []types.Stat
		if err := DecodeBody(resp.Body, &out); err != nil || len(out) != 100 {
			t.Fatal(err)
		}
	})
	if client > 3 {
		t.Errorf("client 100-entry list decode: %.1f objects, want ≤ 3", client)
	}
}

// TestDecodeStringAllocs fences how decoded strings are allocated. A
// request header's strings (OnBehalf, Ticket) share one copy of the
// header, and a header with neither — a client's call, whose trace and
// span IDs are integers — allocates nothing, nor does one whose OnBehalf
// repeats the previous request's, decoded into the same Request (a
// peer's hops, each asserting the same user); args under
// maxPooled share one copy of the args from their first string on;
// args over it give each string its own allocation, so no kept string
// pins more than 64 KiB. Args decoded into a slab cost no allocation for
// their strings (a slab made every few dozen requests rounds to none),
// unless they are over a quarter of it: those take the one copy.
func TestDecodeStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// No one-byte strings: Go converts those without allocating.
	meta := []types.AVU{{Name: "band", Value: "JH", Units: "nm"}, {Name: "mag", Value: "12.5", Units: "dex"}, {Name: "run", Value: "r7", Units: "id"}}
	small, _ := AppendBody(nil, &IngestArgs{Path: "/home/x", Resource: "d1", DataType: "generic", Meta: meta})
	large, _ := AppendBody(nil, &IngestArgs{Path: "/home/x", Resource: "d1", DataType: strings.Repeat("t", maxPooled), Meta: meta})
	mid, _ := AppendBody(nil, &IngestArgs{Path: "/home/x", Resource: "d1", DataType: strings.Repeat("t", slabSize/4), Meta: meta})
	header := appendRequest(nil, &Request{ID: 7, Op: OpStat, OnBehalf: "alice", Trace: 0x0123456789abcdef, Span: 0x01234567, Args: small})
	plain := appendRequest(nil, &Request{ID: 7, Op: OpStat, Trace: 0x0123456789abcdef, Args: small})
	var prev Request
	if err := DecodeRequest(header, &prev); err != nil {
		t.Fatal(err)
	}
	var slab strings.Builder
	for _, c := range []struct {
		name string
		want float64
		run  func() error
	}{
		// The Meta slice, and one string the 12 strings share.
		{"ingest args, 3 AVUs", 2, func() error { _, err := DecodeArgs[IngestArgs](small); return err }},
		// The Meta slice, and each of the 12 strings.
		{"ingest args over 64 KiB", 13, func() error { _, err := DecodeArgs[IngestArgs](large); return err }},
		{"request header", 1, func() error { var r Request; return DecodeRequest(header, &r) }},
		{"client request header", 0, func() error { var r Request; return DecodeRequest(plain, &r) }},
		{"request header repeating its OnBehalf", 0, func() error { return DecodeRequest(header, &prev) }},
		// The Meta slice.
		{"ingest args in a slab, 3 AVUs", 1, func() error { _, err := DecodeArgsIn[IngestArgs](small, &slab); return err }},
		// The Meta slice, and one string the 12 strings share.
		{"ingest args over a quarter slab", 2, func() error { _, err := DecodeArgsIn[IngestArgs](mid, &slab); return err }},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	var r Request
	if err := DecodeRequest(header, &r); err != nil || r.OnBehalf != "alice" || r.Ticket != "" || r.Trace != 0x0123456789abcdef || r.Span != 0x01234567 || !bytes.Equal(r.Args, small) {
		t.Errorf("header decoded as %+v, %v", r, err)
	}
	// A header that asserts another user, or names a ticket, after one
	// that did not is decoded afresh.
	bob := appendRequest(nil, &Request{ID: 8, Op: OpGet, OnBehalf: "bob", Ticket: "tk1", Args: small})
	if err := DecodeRequest(bob, &r); err != nil || r.OnBehalf != "bob" || r.Ticket != "tk1" {
		t.Errorf("a second header decoded as %+v, %v", r, err)
	}
	if err := DecodeRequest(plain, &r); err != nil || r.OnBehalf != "" || r.Ticket != "" {
		t.Errorf("a plain header after a peer's decoded as %+v, %v", r, err)
	}
}

// TestSlabStringsOutliveTheSlab: a string cut from a slab (DecodeArgsIn)
// is never written again, however many decodes after it roll the slab
// over. A reader goroutine checks every hundredth string while later
// args are still being written into its slab, so under -race a write
// into bytes already handed out is also a reported race. Args over a
// quarter of the slab take a copy of their own and leave the slab as it
// is.
func TestSlabStringsOutliveTheSlab(t *testing.T) {
	var slab strings.Builder
	path := func(i int) string { return fmt.Sprintf("/home/slab/%06d/%s", i, strings.Repeat("p", i%97)) }
	type kept struct{ got, want string }
	check := make(chan kept, 16)
	done := make(chan []string)
	go func() {
		var held []string
		var bad []string
		for k := range check {
			held = append(held, k.got)
			if k.got != k.want {
				bad = append(bad, fmt.Sprintf("%q read as %q", k.want, k.got))
			}
		}
		// Read once more at the end: every slab they were cut from has
		// been dropped by then.
		for i, s := range held {
			if want := path(100 * i); s != want {
				bad = append(bad, fmt.Sprintf("%q read at the end as %q", want, s))
			}
		}
		done <- bad
	}()
	const n = 10000
	rolls, last := 0, 0
	for i := 0; i < n; i++ {
		a, err := DecodeArgsIn[PathArgs](mustBody(t, &PathArgs{Path: path(i)}), &slab)
		if err != nil || a.Path != path(i) {
			t.Fatalf("decode %d = %q, %v", i, a.Path, err)
		}
		if slab.Len() < last {
			rolls++
		}
		last = slab.Len()
		if i%100 == 0 {
			check <- kept{a.Path, path(i)}
		}
	}
	close(check)
	for _, b := range <-done {
		t.Error(b)
	}
	if rolls < 100 {
		t.Errorf("%d decodes rolled the slab %d times, want at least 100", n, rolls)
	}
	before := slab.Len()
	long := strings.Repeat("L", slabSize/4)
	a, err := DecodeArgsIn[PathArgs](mustBody(t, &PathArgs{Path: long}), &slab)
	if err != nil || a.Path != long {
		t.Fatalf("args over a quarter slab decoded as %d bytes, %v", len(a.Path), err)
	}
	if slab.Len() != before {
		t.Errorf("args over a quarter slab were written into it: %d bytes, was %d", slab.Len(), before)
	}
}

func mustBody[T any](t *testing.T, v *T) []byte {
	t.Helper()
	b, err := AppendBody(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type discardRW struct{}

func (discardRW) Read([]byte) (int, error)    { return 0, errors.New("write-only") }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
