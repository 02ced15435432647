// Package wire implements the SRB client/server protocol: a framed
// message layer over TCP with a challenge–response authentication
// handshake (JSON), binary-encoded requests and responses (codec.go),
// raw frames for bulk data, and a redirect message for the federation
// ("users can connect to any SRB server to access data from any other
// SRB server").
//
// Frame layout: 1-byte type, 4-byte big-endian payload length, payload.
// Bulk data flows as a sequence of Data frames ended by a DataEnd frame
// so transfers stream without knowing the total size up front.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"gosrb/internal/chunk"
	"gosrb/internal/traceid"
	"gosrb/internal/types"
)

// MsgType tags each frame.
type MsgType byte

const (
	// MsgChallenge carries the server's authentication nonce.
	MsgChallenge MsgType = iota + 1
	// MsgAuth carries the client's identity and challenge response.
	MsgAuth
	// MsgAuthOK confirms authentication.
	MsgAuthOK
	// MsgRequest carries one Request.
	MsgRequest
	// MsgResponse carries one Response.
	MsgResponse
	// MsgData carries a raw chunk of bulk data.
	MsgData
	// MsgDataEnd terminates a bulk data stream.
	MsgDataEnd
	// MsgRedirect tells the client to retry against another server.
	MsgRedirect
)

// MaxFrame bounds a single frame payload (16 MiB) so a corrupt length
// cannot exhaust memory; bulk data is chunked beneath it.
const MaxFrame = 16 << 20

// MaxBody bounds the body of a success response: MaxFrame less the widest
// envelope appendResponse writes around it (an ID of up to 10 bytes, the
// flags byte, and an empty ErrKind and ErrMsg of one byte each). A larger
// body cannot be sent.
const MaxBody = MaxFrame - binary.MaxVarintLen64 - 3

// DataChunk is the bulk transfer chunk size: the payload of one Data
// frame, and the size of the pooled buffer every hop copies through.
const DataChunk = chunk.Size

// Challenge is the server's opening message.
type Challenge struct {
	Server string
	Nonce  string
}

// Auth answers a challenge. Exactly one of User or Peer is set.
type Auth struct {
	User     string
	Peer     string // federated server name for server-to-server auth
	Response string // HMAC of the nonce under the derived key
}

// Request is one operation. Args is the op's argument struct, encoded
// by AppendBody (DecodeArgs reads it back). OnBehalf names
// the effective user and is honoured only on peer-authenticated
// connections — the federation's single sign-on: the owning server
// trusts a zone peer's assertion of who the end user is.
type Request struct {
	// ID correlates this request with its response: requests are
	// pipelined over a shared connection and answered out of order. The
	// client-side Mux assigns it, never zero, and the server echoes it;
	// a server refuses a request without one.
	ID       uint64 `json:",omitempty"`
	Op       string
	OnBehalf string
	// Ticket optionally presents a delegated-access ticket; read
	// operations honour it when the caller's own ACLs do not suffice.
	Ticket string
	// Trace carries the request-scoped trace ID. The client mints one
	// per logical call (kept across redirects); the server mints one when
	// absent (zero) and copies it onto every proxied request, so one user
	// action carries the same ID on every federation hop it touches.
	Trace traceid.ID `json:",omitempty"`
	// Span is the caller's span ID. The span the receiving server opens
	// for this request becomes its child, so the per-hop records
	// reassemble into one tree instead of a flat list. Zero on
	// client-originated requests (the server opens a root span).
	Span traceid.ID `json:",omitempty"`
	// Attempt is the caller's 0-based retry attempt for this logical
	// call. When positive, the receiving server annotates its span with
	// a retry event, making client-side retries visible in the trace.
	Attempt int `json:",omitempty"`
	// TimeoutMillis is the request's remaining time budget. Zero means
	// unbounded. The receiving server starts the clock at dispatch; a
	// federation hop forwards only what is left, so the budget shrinks
	// across the grid and a slow peer cannot stall the whole chain.
	TimeoutMillis int64 `json:",omitempty"`
	Args          []byte
}

// SetBudget rewrites the request's time budget to what remains before
// deadline (zero: leave it alone). Every sender does this just before
// the request leaves, so the budget shrinks on each federation hop and a
// slow peer cannot stall the whole chain. An exhausted budget fails
// here, before any bytes cross the wire.
func (r *Request) SetBudget(deadline time.Time) error {
	if deadline.IsZero() {
		return nil
	}
	left := time.Until(deadline)
	if left <= 0 {
		// The error keeps a copy of the op name, not the request's: a
		// request whose Args sit in its caller's stack buffer stays there.
		return types.E(strings.Clone(r.Op), "", types.ErrTimeout)
	}
	r.TimeoutMillis = left.Milliseconds()
	if r.TimeoutMillis < 1 {
		r.TimeoutMillis = 1
	}
	return nil
}

// Response answers a Request. Body is the op's reply, encoded by
// AppendBody (DecodeBody reads it back). ErrKind names a types sentinel
// so clients can reconstruct errors.Is-compatible errors.
type Response struct {
	// ID echoes the request's correlation ID.
	ID      uint64 `json:",omitempty"`
	OK      bool
	ErrKind string
	ErrMsg  string
	Body    []byte
	// DataFollows indicates that Data frames follow this response.
	DataFollows bool
}

// Redirect tells the client which server holds the data.
type Redirect struct {
	// ID echoes the request's correlation ID.
	ID     uint64 `json:",omitempty"`
	Server string
	Addr   string
}

// AuthOK is the body of the MsgAuthOK frame.
type AuthOK struct {
	Server string
}

// errKinds maps sentinel errors to wire names and back.
var errKinds = []struct {
	name string
	err  error
}{
	{"notfound", types.ErrNotFound},
	{"exists", types.ErrExists},
	{"permission", types.ErrPermission},
	{"locked", types.ErrLocked},
	{"offline", types.ErrOffline},
	{"invalid", types.ErrInvalid},
	{"notempty", types.ErrNotEmpty},
	{"unsupported", types.ErrUnsupported},
	{"auth", types.ErrAuth},
	{"mandatorymeta", types.ErrMandatoryMeta},
	{"timeout", types.ErrTimeout},
	{"readonly", types.ErrReadOnly},
}

// KindOf names err's sentinel for the wire; "" if unclassified.
func KindOf(err error) string {
	for _, k := range errKinds {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	return ""
}

// ErrFromKind reconstructs a client-side error: its text is the
// server's message verbatim, and it wraps the sentinel kind names.
func ErrFromKind(kind, msg string) error {
	for _, k := range errKinds {
		if k.name == kind {
			return &remoteError{msg: msg, err: k.err}
		}
	}
	return errors.New(msg)
}

// remoteError is an error a server sent: the message already names the
// sentinel, which Unwrap exposes to errors.Is.
type remoteError struct {
	msg string
	err error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.err }

// Conn frames messages over an io.ReadWriter. At most one goroutine
// may write and one may read at a time (frames from two writers would
// interleave anyway); the header scratch arrays rely on it.
type Conn struct {
	rw   io.ReadWriter
	whdr [5]byte
	rhdr [5]byte
	// in is the inbound data stream currently being read (OpenData).
	in DataReader
}

// NewConn wraps a transport.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// WriteMsg sends one frame.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return types.E("write", "", fmt.Errorf("frame of %d bytes exceeds limit: %w", len(payload), types.ErrInvalid))
	}
	c.whdr[0] = byte(t)
	binary.BigEndian.PutUint32(c.whdr[1:], uint32(len(payload)))
	if _, err := c.rw.Write(c.whdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.rw.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readHeader receives one frame header: its type and payload length.
func (c *Conn) readHeader() (MsgType, int, error) {
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		return 0, 0, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[1:])
	if n > MaxFrame {
		return 0, 0, types.E("read", "", fmt.Errorf("frame of %d bytes exceeds limit: %w", n, types.ErrInvalid))
	}
	return MsgType(c.rhdr[0]), int(n), nil
}

// ReadMsg receives one frame; *frame is its payload. Control frames come
// this way; bulk data is read through OpenData or RecvData, which fill
// the caller's buffer instead. The frame is lent (see readPayload): the
// caller hands it back with PutFrame once it has decoded the payload, or
// leaves it to the GC.
func (c *Conn) ReadMsg() (MsgType, *[]byte, error) {
	t, n, err := c.readHeader()
	if err != nil {
		return 0, nil, err
	}
	frame, err := readPayload(c.rw, n)
	if err != nil {
		return 0, nil, err
	}
	return t, frame, nil
}

// readPayload reads exactly n payload bytes into a frame. Who owns it:
// a payload of up to maxPooled bytes is read into a buffer borrowed from
// framePool, the pool frames are written from, and the reader of the
// frame owns it until it hands it back with PutFrame; a string or slice
// that must outlive that is copied out first (DecodeArgs, DecodeBody and
// DecodeResponse's ErrMsg copy theirs; Args and Body alias the frame).
// A larger payload is read into a buffer that starts at maxPooled and
// doubles as bytes arrive, so a truncated or malicious frame never costs
// more than one step beyond the bytes received: a forged header can
// declare any length up to MaxFrame, and allocating that up front would
// let 5 attacker bytes pin 16 MiB per connection. PutFrame leaves such a
// frame to the GC.
func readPayload(r io.Reader, n int) (*[]byte, error) {
	if n <= maxPooled {
		bp := GetFrame()
		if cap(*bp) < n {
			*bp = make([]byte, n)
		}
		*bp = (*bp)[:n]
		if _, err := io.ReadFull(r, *bp); err != nil {
			PutFrame(bp)
			return nil, err
		}
		return bp, nil
	}
	buf := make([]byte, maxPooled)
	got := 0
	for got < n {
		if got == len(buf) {
			grow := 2 * len(buf)
			if grow > n {
				grow = n
			}
			next := make([]byte, grow)
			copy(next, buf)
			buf = next
		}
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got = len(buf)
	}
	buf = buf[:n]
	return &buf, nil
}

// WriteJSON sends a JSON-encoded frame: the handshake's.
func (c *Conn) WriteJSON(t MsgType, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.WriteMsg(t, b)
}

// ReadJSON receives a frame, requiring the given type, and decodes it.
func (c *Conn) ReadJSON(want MsgType, v any) error {
	t, frame, err := c.ReadMsg()
	if err != nil {
		return err
	}
	defer PutFrame(frame)
	if t != want {
		return fmt.Errorf("wire: expected message type %d, got %d: %w", want, t, types.ErrInvalid)
	}
	return json.Unmarshal(*frame, v)
}

// OkResponse builds a success response with the given body, encoded
// into a slice of its own size. No request path calls it: a server
// encodes a reply's body into a frame from the pool (GetFrame) and hands
// the frame back once the response is written. The benchmark's wire
// ladder (bench/ladder.go) builds its canned reply with it.
func OkResponse[T any](body T, dataFollows bool) (Response, error) {
	bp := GetFrame()
	defer PutFrame(bp)
	raw, err := AppendBody(*bp, &body)
	if err != nil {
		return Response{}, err
	}
	*bp = raw
	return Response{OK: true, Body: append([]byte(nil), raw...), DataFollows: dataFollows}, nil
}

// ErrResponse marshals a failure response carrying err.
func ErrResponse(err error) Response {
	return Response{OK: false, ErrKind: KindOf(err), ErrMsg: err.Error()}
}

// Err reconstructs the error carried by a failure response.
func (r *Response) Err() error {
	if r.OK {
		return nil
	}
	return ErrFromKind(r.ErrKind, r.ErrMsg)
}
