package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"time"

	"gosrb/internal/chunk"
	"gosrb/internal/lend"
	"gosrb/internal/obs"
	"gosrb/internal/storage"
)

// Handle is one opened object's reader, and where its bytes are counted:
// they move wherever the caller copies them — a socket, another driver,
// one exact-size buffer — so the handle adds up the bytes delivered, the
// first read error and, for a replica, the time spent inside the driver.
// Closing a replica's handle files the storage.read phase, the
// transfer-observatory row and the hot-object record; a read error also
// counts against the resource's breaker, so a retried read fails over to
// a sibling replica. A handle that holds a reader produced in memory
// (Hold) counts the bytes and the error and files nothing.
type Handle struct {
	f        storage.ReadFile
	m        *Manager // nil when the handle holds an in-memory reader
	sp       *obs.Span
	path     string
	resource string
	busy     time.Duration // open plus time inside Read/ReadAt
	n        int64
	err      error
	closed   bool
}

// Hold makes h serve f, with no replica accounting.
func (h *Handle) Hold(f storage.ReadFile) { *h = Handle{f: f} }

// N returns the bytes read through h so far.
func (h *Handle) N() int64 { return h.n }

// Err returns the first read error h saw (io.EOF is not one).
func (h *Handle) Err() error { return h.err }

func (h *Handle) account(start time.Time, n int, err error) {
	h.busy += time.Since(start)
	h.n += int64(n)
	if err != nil && err != io.EOF && h.err == nil {
		h.err = err
		if h.m != nil {
			h.m.breaker(h.resource).Failure()
		}
	}
}

func (h *Handle) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := h.f.Read(p)
	h.account(start, n, err)
	return n, err
}

func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := h.f.ReadAt(p, off)
	h.account(start, n, err)
	return n, err
}

func (h *Handle) Seek(off int64, whence int) (int64, error) { return h.f.Seek(off, whence) }

// Close files the read's accounting and closes the driver's handle, both
// once: the driver's handle may be lent (package lend), and a second
// Close of it would hand back what the pool has since lent to another
// reader. A later Close returns nil.
func (h *Handle) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	if h.m != nil {
		h.sp.Phase(obs.PhaseStorageRead, h.busy)
		h.m.peers.Record("", h.resource, h.busy, h.n, h.err != nil)
		h.m.heat.Record(h.path, h.n)
	}
	return h.f.Close()
}

// Dest is one replica file a Fanout writes.
type Dest struct {
	Resource string
	Path     string
	// Err is why this destination does not hold the stream: its own write
	// or close failed, or the source broke. nil after Copy means the file
	// is complete and published.
	Err error
	// Torn reports that the path no longer holds what it held before the
	// fan-out: the member's own write failed, or its driver could not
	// discard a half-written file without deleting it.
	Torn bool

	d storage.Driver
	w storage.WriteFile
}

// Fanout writes one stream to several replica files in a single pass,
// hashing it on the way: the source is read once, through one pooled
// chunk, however many members take a copy. A destination whose write
// fails drops out of the pass and the others carry on; because bytes the
// source has already yielded cannot be replayed, a member that fails
// mid-stream cannot be substituted by another — the caller marks it
// dirty and leaves it to repair. The first two destinations and the
// digest live inside the Fanout, and Fanouts are pooled with their
// digest state, so a put to one or two members makes no object for
// them.
type Fanout struct {
	m     *Manager
	dests []*Dest // on ptrs until a third destination
	ptrs  [2]*Dest
	own   [2]Dest // the first two destinations
	live  int
	h     hash.Hash
	sum   [sha256.Size]byte
	size  int64
	busy  time.Duration
}

// fanoutPool lends Fanouts with their digest state: one is in flight per
// put being stored.
var fanoutPool = lend.NewPool(16, func() *Fanout { return &Fanout{h: sha256.New()} })

// NewFanout starts an empty fan-out, lent from a pool: the caller hands
// it back with Release.
func (m *Manager) NewFanout() *Fanout {
	f := fanoutPool.Get()
	f.m = m
	f.dests = f.ptrs[:0]
	return f
}

// Release hands f back to the pool once its caller is done with f and
// with every Dest its Add returned.
func (f *Fanout) Release() {
	h := f.h
	h.Reset()
	*f = Fanout{h: h}
	fanoutPool.Put(f)
}

// Add opens path on resource as one more destination. An error means the
// member cannot take part at all (no driver here, Create refused);
// nothing has been read from the source yet, so the caller may pick
// another member instead.
func (f *Fanout) Add(resource, path string) (*Dest, error) {
	d, err := f.m.drivers.Driver(resource)
	if err != nil {
		f.m.fanoutFail.Inc()
		return nil, err
	}
	start := time.Now()
	w, err := d.Create(path)
	f.busy += time.Since(start)
	if err != nil {
		f.m.fanoutFail.Inc()
		f.m.breaker(resource).Failure()
		return nil, err
	}
	var dst *Dest
	if n := len(f.dests); n < len(f.own) {
		dst = &f.own[n]
	} else {
		dst = new(Dest)
	}
	*dst = Dest{Resource: resource, Path: path, d: d, w: w}
	f.dests = append(f.dests, dst)
	f.live++
	return dst, nil
}

// Live returns how many destinations are still taking bytes.
func (f *Fanout) Live() int { return f.live }

// Size returns the bytes the source yielded.
func (f *Fanout) Size() int64 { return f.size }

// Checksum returns the hex SHA-256 of the bytes the source yielded: the
// digest is summed into the Fanout and hex-encoded on the stack, so the
// string is the one allocation.
func (f *Fanout) Checksum() string {
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], f.h.Sum(f.sum[:0]))
	return string(buf[:])
}

// Busy returns the time spent inside the destinations' drivers (create,
// write, close) — the storage.write share of the pass.
func (f *Fanout) Busy() time.Duration { return f.busy }

// errNoDest stops the copy loop once every destination has failed.
var errNoDest = errors.New("replica: every fan-out destination failed")

// fail drops dst out of the pass after its own write or close error.
func (f *Fanout) fail(dst *Dest, err error) {
	storage.Abort(dst.d, dst.Path, dst.w)
	dst.w, dst.Err, dst.Torn = nil, err, true
	f.live--
	f.m.fanoutFail.Inc()
	f.m.breaker(dst.Resource).Failure()
}

// Write hands one chunk to the hash and to every live destination.
func (f *Fanout) Write(p []byte) (int, error) {
	f.h.Write(p)
	f.size += int64(len(p))
	start := time.Now()
	for _, dst := range f.dests {
		if dst.w == nil {
			continue
		}
		if _, err := dst.w.Write(p); err != nil {
			f.fail(dst, err)
		}
	}
	f.busy += time.Since(start)
	if f.live == 0 {
		return 0, errNoDest
	}
	return len(p), nil
}

// Copy runs the pass: src to EOF into every destination, then each
// survivor is closed (published). The returned error is the source's:
// when src breaks, every destination is aborted — staged bytes dropped,
// previous contents kept where the driver can (Dest.Torn says where it
// could not) — and nothing of the stream is stored anywhere. Destination
// failures are reported per Dest, never here.
func (f *Fanout) Copy(src io.Reader) error {
	if f.live == 0 {
		return nil
	}
	_, err := chunk.Copy(f, src)
	if err != nil && !errors.Is(err, errNoDest) {
		for _, dst := range f.dests {
			if dst.w != nil {
				dst.Torn = !storage.Abort(dst.d, dst.Path, dst.w)
				dst.w, dst.Err = nil, err
				f.live--
			}
		}
		return err
	}
	start := time.Now()
	for _, dst := range f.dests {
		if dst.w == nil {
			continue
		}
		w := dst.w
		if err := w.Close(); err != nil {
			f.fail(dst, err)
			continue
		}
		dst.w = nil
		f.m.fanoutOK.Inc()
		f.m.breaker(dst.Resource).Success()
	}
	f.busy += time.Since(start)
	return nil
}

// ChecksumOf hashes the file at path on d through a pooled chunk and
// returns its hex SHA-256 — the scrubber's re-hash, with no copy of the
// replica in memory.
func ChecksumOf(d storage.Driver, path string) (string, error) {
	f, err := d.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := chunk.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
