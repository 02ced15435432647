package storage

import (
	"io/fs"

	"gosrb/internal/lend"
	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// IOMetrics are the per-driver byte and operation counters an
// instrumented driver records into. Any field may be nil (not counted).
type IOMetrics struct {
	// BytesIn counts bytes written into the driver (ingest side).
	BytesIn *obs.Counter
	// BytesOut counts bytes read out of the driver (retrieval side).
	BytesOut *obs.Counter
	// Reads counts Open calls, Writes counts Create/OpenAppend calls.
	Reads  *obs.Counter
	Writes *obs.Counter
	// Errors counts failed driver calls.
	Errors *obs.Counter
}

// Instrument decorates d so every byte moved through it is accounted in
// m. The decorator is transparent: physical paths, semantics and the
// optional UsageReporter extension pass straight through.
func Instrument(d Driver, m IOMetrics) Driver {
	if u, ok := d.(UsageReporter); ok {
		return &instrumentedUsage{instrumented{d: d, m: m}, u}
	}
	return &instrumented{d: d, m: m}
}

type instrumented struct {
	d Driver
	m IOMetrics
}

// instrumentedUsage adds the UsageReporter passthrough for drivers that
// track capacity.
type instrumentedUsage struct {
	instrumented
	u UsageReporter
}

func (i *instrumentedUsage) Usage() Usage { return i.u.Usage() }

func (i *instrumented) err(e error) error {
	if e != nil {
		i.m.Errors.Inc()
	}
	return e
}

func (i *instrumented) Create(path string) (WriteFile, error) {
	return i.counting(i.d.Create(path))
}

func (i *instrumented) OpenAppend(path string) (WriteFile, error) {
	return i.counting(i.d.OpenAppend(path))
}

// counting wraps a write handle the driver opened in a countingWriter.
func (i *instrumented) counting(w WriteFile, err error) (WriteFile, error) {
	if err != nil {
		return nil, i.err(err)
	}
	i.m.Writes.Inc()
	c := countingWriters.Get()
	c.w, c.n = w, i.m.BytesIn
	return c, nil
}

func (i *instrumented) Open(path string) (ReadFile, error) {
	r, err := i.d.Open(path)
	if err != nil {
		return nil, i.err(err)
	}
	i.m.Reads.Inc()
	c := countingReaders.Get()
	c.r, c.n = r, i.m.BytesOut
	return c, nil
}

func (i *instrumented) Stat(path string) (FileInfo, error) {
	fi, err := i.d.Stat(path)
	return fi, i.err(err)
}

func (i *instrumented) Remove(path string) error { return i.err(i.d.Remove(path)) }

func (i *instrumented) Rename(oldPath, newPath string) error {
	return i.err(i.d.Rename(oldPath, newPath))
}

func (i *instrumented) List(dir string) ([]FileInfo, error) {
	infos, err := i.d.List(dir)
	return infos, i.err(err)
}

func (i *instrumented) Mkdir(path string) error { return i.err(i.d.Mkdir(path)) }

// countingWriter counts bytes accepted by the underlying WriteFile. It
// is lent from countingWriters (package lend): the first Close or Abort
// that succeeds zeroes the writer and hands it back, so a late call on it
// finds it closed until the pool lends it again. One that fails keeps
// it, for the caller's Abort (storage.Abort) still has the driver's
// handle to discard.
type countingWriter struct {
	w WriteFile
	n *obs.Counter
}

// countingWriters lends countingWriters: a replica write makes none. One
// is in flight per replica file being written.
var countingWriters = lend.NewPool(64, func() *countingWriter { return &countingWriter{} })

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.w == nil {
		return 0, closed("write")
	}
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Close() error {
	if c.w == nil {
		return closed("close")
	}
	return c.done(c.w.Close())
}

func (c *countingWriter) Abort() error {
	if c.w == nil {
		return closed("abort")
	}
	return c.done(ForwardAbort(c.w))
}

// done hands c back once the driver's handle is settled (err is nil).
func (c *countingWriter) done(err error) error {
	if err == nil {
		*c = countingWriter{}
		countingWriters.Put(c)
	}
	return err
}

// countingReader counts bytes served by the underlying ReadFile across
// all three read styles. It is lent from countingReaders (package lend):
// Close closes the driver's handle, zeroes the reader and hands it back,
// so a late call on it finds it closed until the pool lends it again.
type countingReader struct {
	r ReadFile
	n *obs.Counter
}

// countingReaders lends countingReaders: a get makes none. One is in
// flight per replica file being read.
var countingReaders = lend.NewPool(64, func() *countingReader { return &countingReader{} })

// closed is the error of a call on a closed counting handle.
func closed(op string) error {
	return lend.Stale("storage: counting handle", types.E(op, "", fs.ErrClosed))
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.r == nil {
		return 0, closed("read")
	}
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	if c.r == nil {
		return 0, closed("read")
	}
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Seek(offset int64, whence int) (int64, error) {
	if c.r == nil {
		return 0, closed("seek")
	}
	return c.r.Seek(offset, whence)
}

func (c *countingReader) Close() error {
	if c.r == nil {
		return closed("close")
	}
	err := c.r.Close()
	*c = countingReader{}
	countingReaders.Put(c)
	return err
}
