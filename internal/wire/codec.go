// The request path's encoding. Request, Response and Redirect frames are
// built append-style in one pooled buffer — fixed field order, uvarint
// lengths — and sent with one Write; they decode without reflection.
// Bodies (a request's Args, a response's Body) open with a one-byte tag
// naming their Go type: a hot type (see walk) follows in its own binary
// layout, any other type as JSON. Which encoding a value gets is thus a
// property of its type, identical at both ends, and a body decoded into a
// type other than the one it was encoded from fails instead of decoding
// into garbage. The handshake frames stay JSON (WriteJSON,
// ReadJSON): they cross once per connection.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"

	"gosrb/internal/lend"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
)

var (
	// errMalformed reports a frame or body that does not parse: truncated,
	// a length beyond the bytes left, a bad flag, or bytes left over.
	errMalformed = fmt.Errorf("wire: malformed frame or body: %w", types.ErrInvalid)
	// errTag reports a body decoded into another type than it was encoded
	// from.
	errTag = fmt.Errorf("wire: body encodes another type: %w", types.ErrInvalid)
)

// ---- pooled frame buffers ----

// hdrLen is the frame header every pooled buffer reserves room for.
const hdrLen = 5

// maxPooled bounds the buffers returned to the pool, so one large frame (a
// bulk manifest) does not stay pinned for the life of the process.
const maxPooled = 64 << 10

// framePool holds the buffers frames are built in and read into: a
// writer borrows one for the frame it sends, ReadMsg one for the frame it
// receives (see readPayload), and a server keeps one per request until
// its reply is written.
var framePool = lend.NewPool(32, func() *[]byte { b := make([]byte, 0, 512); return &b })

// GetFrame lends an empty buffer from framePool: what ReadMsg reads a
// frame into, and what a server builds a reply body in (AppendBody)
// until the frame that carries it is written. Hand it back with PutFrame.
func GetFrame() *[]byte { return framePool.Get() }

// PutFrame hands back a frame ReadMsg or ReadRequest lent. Nothing may
// read the frame, or a slice of it, afterwards: the next frame either
// end sends or receives is built in it. A frame larger than maxPooled is
// left to the GC. A nil frame is ignored.
func PutFrame(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooled {
		return
	}
	poison(*bp)
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// send writes a frame built in b, whose first hdrLen bytes are reserved
// for the header, with one Write.
func (c *Conn) send(t MsgType, b []byte) error {
	n := len(b) - hdrLen
	if n > MaxFrame {
		return types.E("write", "", fmt.Errorf("frame of %d bytes exceeds limit: %w", n, types.ErrInvalid))
	}
	b[0] = byte(t)
	binary.BigEndian.PutUint32(b[1:hdrLen], uint32(n))
	_, err := c.rw.Write(b)
	return err
}

// WriteRequest sends one request frame.
func (c *Conn) WriteRequest(r *Request) error {
	bp := GetFrame()
	defer PutFrame(bp)
	*bp = appendRequest(append(*bp, make([]byte, hdrLen)...), r)
	return c.send(MsgRequest, *bp)
}

// WriteResponse sends one response frame.
func (c *Conn) WriteResponse(r *Response) error {
	bp := GetFrame()
	defer PutFrame(bp)
	*bp = appendResponse(append(*bp, make([]byte, hdrLen)...), r)
	return c.send(MsgResponse, *bp)
}

// WriteRedirect sends one redirect frame.
func (c *Conn) WriteRedirect(r *Redirect) error {
	bp := GetFrame()
	defer PutFrame(bp)
	*bp = appendRedirect(append(*bp, make([]byte, hdrLen)...), r)
	return c.send(MsgRedirect, *bp)
}

// ReadRequest receives a frame, requiring a request, and decodes it into
// r. It returns the frame, which r.Args is a slice of: the caller hands
// it back with PutFrame once r.Args is decoded (DecodeArgs copies what it
// keeps). On error the frame is already back.
func (c *Conn) ReadRequest(r *Request) (*[]byte, error) {
	t, frame, err := c.ReadMsg()
	if err != nil {
		return nil, err
	}
	if t != MsgRequest {
		PutFrame(frame)
		return nil, fmt.Errorf("wire: expected a request, got message type %d: %w", t, types.ErrInvalid)
	}
	if err := DecodeRequest(*frame, r); err != nil {
		PutFrame(frame)
		r.Args = nil
		return nil, err
	}
	return frame, nil
}

// ---- envelopes ----

// A request frame's header, in order: ID (uvarint), Op, OnBehalf and
// Ticket (each a uvarint length and its bytes), Trace and Span (each 8
// big-endian bytes, zero for none), Attempt and TimeoutMillis (varints).
// Args is the rest of the frame.
func appendRequest(b []byte, r *Request) []byte {
	b = binary.AppendUvarint(b, r.ID)
	b = appendString(b, r.Op)
	b = appendString(b, r.OnBehalf)
	b = appendString(b, r.Ticket)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Trace))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Span))
	b = binary.AppendVarint(b, int64(r.Attempt))
	b = binary.AppendVarint(b, r.TimeoutMillis)
	return append(b, r.Args...) // the rest of the frame
}

// DecodeRequest decodes a request frame's payload into r. The op name is
// resolved through the op table; Args is a slice of p. OnBehalf and
// Ticket share one copy of their own bytes, made only when either is
// set, so a string a request's span or log line keeps pins none of the
// args; a plain client call sets neither and costs nothing here. Either
// that spells what r already holds keeps r's string: a reader that
// decodes each request into the same r (a server's reader loop) makes
// nothing for a peer that asserts the same user request after request.
func DecodeRequest(p []byte, r *Request) error {
	d := decoder{b: p}
	r.ID = d.uvarint()
	op := d.bytes()
	if s := specByName[string(op)]; s != nil {
		r.Op = s.Name
	} else {
		r.Op = string(op)
	}
	h := d
	d.span()
	d.span()
	h.b = p[:d.off]
	r.OnBehalf = h.stringOr(r.OnBehalf)
	r.Ticket = h.stringOr(r.Ticket)
	r.Trace = traceid.ID(d.uint64())
	r.Span = traceid.ID(d.uint64())
	r.Attempt = int(d.varint())
	r.TimeoutMillis = d.varint()
	r.Args = d.rest()
	return d.err
}

const (
	respOK          = 1 << iota // Response.OK
	respDataFollows             // Response.DataFollows
)

func appendResponse(b []byte, r *Response) []byte {
	b = binary.AppendUvarint(b, r.ID)
	var flags byte
	if r.OK {
		flags |= respOK
	}
	if r.DataFollows {
		flags |= respDataFollows
	}
	b = append(b, flags)
	b = appendString(b, r.ErrKind)
	b = appendString(b, r.ErrMsg)
	return append(b, r.Body...) // the rest of the frame
}

// DecodeResponse decodes a response frame's payload into r. Body is a
// slice of p; ErrMsg is a copy of its own, which pins no body.
func DecodeResponse(p []byte, r *Response) error {
	d := decoder{b: p}
	r.ID = d.uvarint()
	flags := d.byte()
	if flags&^(respOK|respDataFollows) != 0 {
		d.fail()
	}
	r.OK, r.DataFollows = flags&respOK != 0, flags&respDataFollows != 0
	r.ErrKind = internKind(d.bytes())
	r.ErrMsg = string(d.bytes())
	r.Body = d.rest()
	return d.err
}

// internKind returns the errKinds name spelled by b without allocating.
func internKind(b []byte) string {
	for _, k := range errKinds {
		if k.name == string(b) {
			return k.name
		}
	}
	return string(b)
}

func appendRedirect(b []byte, r *Redirect) []byte {
	b = binary.AppendUvarint(b, r.ID)
	b = appendString(b, r.Server)
	return appendString(b, r.Addr)
}

// DecodeRedirect decodes a redirect frame's payload into r.
func DecodeRedirect(p []byte, r *Redirect) error {
	d := decoder{b: p}
	r.ID = d.uvarint()
	r.Server = d.string()
	r.Addr = d.string()
	d.end()
	return d.err
}

// ---- bodies ----

// AppendBody appends *v's body encoding to b: its type tag, then *v in
// its binary layout, or as JSON when its type has none. v does not
// escape: a hot type is encoded where it lies, and only the JSON path
// pays for a heap copy, as DecodeArgs does. A v that points to an
// interface encodes the value the interface holds, as that value's own
// type would (appendBoxed).
func AppendBody[T any](b []byte, v *T) ([]byte, error) {
	if p, ok := any(v).(*any); ok {
		return appendBoxed(b, *p)
	}
	if out, ok := appendBinary(b, v); ok {
		return out, nil
	}
	return appendJSON(b, *v)
}

// appendBoxed encodes a value an interface holds: a hot type's value is
// copied once so that appendBinary can take its address.
func appendBoxed(b []byte, v any) ([]byte, error) {
	if v != nil {
		p := reflect.New(reflect.TypeOf(v))
		p.Elem().Set(reflect.ValueOf(v))
		if out, ok := appendBinary(b, p.Interface()); ok {
			return out, nil
		}
	}
	return appendJSON(b, v)
}

func appendJSON(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, tagJSON), raw...), nil
}

// DecodeBody decodes a reply body into *v, of the type the body was
// encoded from. An empty body leaves *v as it is. v does not escape, as
// in AppendBody; a v that points to an interface holding a pointer
// decodes into what that pointer points to. The decoded strings share
// one allocation, a copy of the body from the first of them on,
// whatever the body's size: a reply is the client's to keep whole.
func DecodeBody[T any](body []byte, v *T) error {
	if len(body) == 0 {
		return nil
	}
	if p, ok := any(v).(*any); ok && *p != nil {
		return decodeBoxed(body, *p)
	}
	if ok, err := decodeBinary(decoder{b: body}, v); ok {
		return err
	}
	p := new(T)
	*p = *v
	err := decodeJSON(body, p)
	*v = *p
	return err
}

// decodeBoxed decodes a body into p, a pointer held in an interface.
func decodeBoxed(body []byte, p any) error {
	if ok, err := decodeBinary(decoder{b: body}, p); ok {
		return err
	}
	return decodeJSON(body, p)
}

// DecodeArgs decodes a request's arguments into the op's argument struct;
// absent arguments are the zero struct. The decoded strings share one
// allocation, a copy of the args from the first of them on, and never
// the frame: a string that outlives the request (a catalog row, a heat
// key) pins at most its own args. Args over maxPooled (64 KiB) give
// each string an allocation of its own instead, so no kept string pins
// more than that. A server decodes a mutating op's args so: they are the
// only strings a catalog row is built from.
func DecodeArgs[A any](raw []byte) (a A, err error) {
	return decodeArgs[A](raw, decoder{b: raw, own: len(raw) > maxPooled})
}

// slabSize is the size of an args slab (DecodeArgsIn). Args over a
// quarter of it are decoded by DecodeArgs instead, so a slab serves at
// least four requests before it is dropped.
const slabSize = 4 << 10

// DecodeArgsIn is DecodeArgs cutting the decoded strings from slab, an
// append-only buffer the caller keeps from one request to the next:
// decoding args costs no allocation until the slab is full. Bytes written
// into the slab are never written again: when the args do not fit in
// what is left of it, the slab is dropped for a fresh one of slabSize
// bytes, and every string cut from the old one stays valid for as long
// as anything holds it. So a kept string pins at most one slab, and only
// a holder with a bound of its own (a ring, a bounded table) may keep
// one: a server decodes an idempotent op's args so, whose strings no
// catalog row is built from. Args over slabSize/4 take DecodeArgs'
// copy; the JSON path allocates its strings as DecodeArgs' does.
func DecodeArgsIn[A any](raw []byte, slab *strings.Builder) (a A, err error) {
	if len(raw) > slabSize/4 {
		return DecodeArgs[A](raw)
	}
	// The strings are at most the args' bytes, so they never grow the
	// slab past its size: its bytes are never copied to a larger one.
	if slab.Cap()-slab.Len() < len(raw) {
		*slab = strings.Builder{}
		slab.Grow(slabSize)
	}
	return decodeArgs[A](raw, decoder{b: raw, slab: slab})
}

// decodeArgs is DecodeArgs and DecodeArgsIn, d saying where the
// strings come from.
func decodeArgs[A any](raw []byte, d decoder) (a A, err error) {
	if len(raw) == 0 {
		return a, nil
	}
	// &a goes only where it does not escape: a binary-coded A stays on the
	// stack, and only the JSON path pays for a heap copy.
	if ok, err := decodeBinary(d, &a); ok {
		return a, err
	}
	p := new(A)
	err = decodeJSON(raw, p)
	return *p, err
}

// decodeJSON decodes a JSON-coded body. A body that does not decode is
// malformed input, as a binary one is: the error wraps types.ErrInvalid.
func decodeJSON(body []byte, v any) error {
	if body[0] != tagJSON {
		return errTag
	}
	if err := json.Unmarshal(body[1:], v); err != nil {
		return fmt.Errorf("wire: %w: %w", err, types.ErrInvalid)
	}
	return nil
}

// ---- primitives ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// codec is one walk over a hot value (see walk): with enc set, each step
// appends its field to b; otherwise it reads the field from d. A type's
// layout is thus written once, for both directions.
type codec struct {
	enc bool
	b   []byte
	d   decoder
}

// tag writes a body's type tag, or fails a body whose tag is another.
func (c *codec) tag(t byte) {
	if c.enc {
		c.b = append(c.b, t)
		return
	}
	if got := c.d.byte(); got != t && c.d.err == nil {
		c.d.err, c.d.off = errTag, len(c.d.b)
	}
}

func (c *codec) str(s *string) {
	if c.enc {
		c.b = appendString(c.b, *s)
		return
	}
	*s = c.d.string()
}

// errKind is a string that decodes to its errKinds name without
// allocating.
func (c *codec) errKind(s *string) {
	if c.enc {
		c.b = appendString(c.b, *s)
		return
	}
	*s = internKind(c.d.bytes())
}

func (c *codec) boolean(v *bool) {
	if !c.enc {
		*v = c.d.bool()
	} else if *v {
		c.b = append(c.b, 1)
	} else {
		c.b = append(c.b, 0)
	}
}

func num[T ~int | ~int64](c *codec, v *T) {
	if c.enc {
		c.b = binary.AppendVarint(c.b, int64(*v))
		return
	}
	*v = T(c.d.varint())
}

// time writes a zero time as one 0 byte (UnixNano is undefined for it),
// any other as 1, Unix seconds and nanoseconds. The location is not kept:
// the instant is.
func (c *codec) time(t *time.Time) {
	switch {
	case !c.enc:
		*t = c.d.time()
	case t.IsZero():
		c.b = append(c.b, 0)
	default:
		c.b = binary.AppendVarint(append(c.b, 1), t.Unix())
		c.b = binary.AppendUvarint(c.b, uint64(t.Nanosecond()))
	}
}

// list writes a slice's length as n+1, keeping 0 for nil (the distinction
// JSON keeps between null and []), or reads one and makes the slice; min
// is the fewest bytes an element encodes to (see decoder.length). It
// returns the length, and the caller walks the elements.
func list[T any](c *codec, s *[]T, min int) int {
	if !c.enc {
		*s = makeSlice[T](&c.d, min)
	} else if *s == nil {
		c.b = append(c.b, 0)
	} else {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s))+1)
	}
	return len(*s)
}

func (c *codec) strs(s *[]string) {
	for i := range list(c, s, 1) {
		c.str(&(*s)[i])
	}
}

// opt writes whether *p is set, or reads it and sets *p to a new T or
// nil. It reports whether *p is set, and the caller walks what it points
// to.
func opt[T any](c *codec, p **T) bool {
	set := *p != nil
	if c.boolean(&set); !c.enc {
		*p = nil
		if set {
			*p = new(T)
		}
	}
	return set
}

// decoder reads one encoded value. The first malformed read latches err
// and leaves nothing more to read, so decoders need not check after each
// field. Every length is checked against the bytes left before anything is
// allocated for it, which keeps the frame reader's guarantee — memory
// tracks bytes actually received — through the body decoders.
type decoder struct {
	b   []byte
	off int
	err error
	// str is b from base on as one string, copied when the first
	// non-empty string is read; every later string is cut from it. With
	// own set, each string is an allocation of its own instead; with slab
	// set, each is appended to the slab and cut from it (DecodeArgsIn).
	str  string
	base int
	own  bool
	slab *strings.Builder
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errMalformed
	}
	d.off = len(d.b)
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// uint64 reads 8 big-endian bytes.
func (d *decoder) uint64() uint64 {
	if d.left() < 8 {
		d.fail()
		return 0
	}
	d.off += 8
	return binary.BigEndian.Uint64(d.b[d.off-8:])
}

func (d *decoder) byte() byte {
	if d.left() < 1 {
		d.fail()
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) bool() bool {
	v := d.byte()
	if v > 1 {
		d.fail()
	}
	return v == 1
}

// span reads a length-prefixed run and returns its offsets in b.
func (d *decoder) span() (int, int) {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail()
		return d.off, d.off
	}
	start := d.off
	d.off += int(n)
	return start, d.off
}

// bytes reads a length-prefixed run as a slice of b.
func (d *decoder) bytes() []byte {
	i, j := d.span()
	return d.b[i:j]
}

func (d *decoder) string() string {
	i, j := d.span()
	switch {
	case i == j:
		return ""
	case d.own:
		return string(d.b[i:j])
	case d.slab != nil:
		d.slab.Write(d.b[i:j])
		s := d.slab.String()
		return s[len(s)-(j-i):]
	case d.str == "":
		d.str, d.base = string(d.b[i:]), i
	}
	return d.str[i-d.base : j-d.base]
}

// stringOr reads a string, returning prev itself when the bytes spell
// it: comparing them makes no object.
func (d *decoder) stringOr(prev string) string {
	off := d.off
	if string(d.bytes()) == prev {
		return prev
	}
	d.off = off
	return d.string()
}

func (d *decoder) time() time.Time {
	switch d.byte() {
	case 0:
		return time.Time{}
	case 1:
		sec := d.varint()
		nsec := d.uvarint()
		if nsec >= 1e9 {
			d.fail()
		}
		if d.err != nil {
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec))
	}
	d.fail()
	return time.Time{}
}

// length reads a slice or map length (nil reports a nil one). min is the
// fewest bytes one element encodes to, so no length can claim more
// elements than the bytes left could hold.
func (d *decoder) length(min int) (n int, isNil bool) {
	v := d.uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(d.left()/min) {
		d.fail()
		return 0, true
	}
	return int(v - 1), false
}

// makeSlice reads a slice length and makes the slice for its elements.
func makeSlice[T any](d *decoder, min int) []T {
	n, isNil := d.length(min)
	if isNil {
		return nil
	}
	return make([]T, n)
}

// rest returns the unread bytes (nil when there are none).
func (d *decoder) rest() []byte {
	if d.err != nil || d.left() == 0 {
		return nil
	}
	r := d.b[d.off:]
	d.off = len(d.b)
	return r
}

// end fails a decode that left bytes unread.
func (d *decoder) end() {
	if d.left() != 0 {
		d.fail()
	}
}
