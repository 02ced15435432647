package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"time"

	"gosrb/internal/chunk"
	"gosrb/internal/obs"
	"gosrb/internal/storage"
)

// readHandle is the replica a read is being served from. The bytes move
// wherever the caller copies them — a socket, another driver, one
// exact-size buffer — so the handle is where they are counted: it adds
// up the bytes delivered and the time spent inside the driver, and files
// both when it is closed (storage.read phase, transfer-observatory row,
// hot-object record). A read error counts against the resource's
// breaker, so a retried read fails over to a sibling replica.
type readHandle struct {
	storage.ReadFile
	m        *Manager
	sp       *obs.Span
	path     string
	resource string
	busy     time.Duration // open plus time inside Read/ReadAt
	n        int64
	failed   bool
	closed   bool
}

func (h *readHandle) account(start time.Time, n int, err error) {
	h.busy += time.Since(start)
	h.n += int64(n)
	if err != nil && err != io.EOF && !h.failed {
		h.failed = true
		h.m.breaker(h.resource).Failure()
	}
}

func (h *readHandle) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := h.ReadFile.Read(p)
	h.account(start, n, err)
	return n, err
}

func (h *readHandle) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := h.ReadFile.ReadAt(p, off)
	h.account(start, n, err)
	return n, err
}

func (h *readHandle) Close() error {
	if !h.closed {
		h.closed = true
		h.sp.Phase(obs.PhaseStorageRead, h.busy)
		h.m.peers.Record("", h.resource, h.busy, h.n, h.failed)
		h.m.heat.Record(h.path, h.n)
	}
	return h.ReadFile.Close()
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
// dirty and leaves it to repair.
type Fanout struct {
	m     *Manager
	dests []*Dest
	live  int
	h     hash.Hash
	size  int64
	busy  time.Duration
}

// NewFanout starts an empty fan-out.
func (m *Manager) NewFanout() *Fanout { return &Fanout{m: m, h: sha256.New()} }

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
	dst := &Dest{Resource: resource, Path: path, d: d, w: w}
	f.dests = append(f.dests, dst)
	f.live++
	return dst, nil
}

// Live returns how many destinations are still taking bytes.
func (f *Fanout) Live() int { return f.live }

// Size returns the bytes the source yielded.
func (f *Fanout) Size() int64 { return f.size }

// Checksum returns the hex SHA-256 of the bytes the source yielded.
func (f *Fanout) Checksum() string { return hex.EncodeToString(f.h.Sum(nil)) }

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
