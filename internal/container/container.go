// Package container implements SRB containers: append-only segment
// files that aggregate many small data objects into one physical block,
// "for storage into archives, and for decreasing latency when accessed
// over a wide area network" (paper §2). "One can view containers as
// tarfiles but with more flexibility in accessing and updating files."
//
// A segment begins with a file header and holds a sequence of records,
// each framed with a marker and length so segments are self-describing:
// Scan recovers the member table from the bytes alone, while in normal
// operation MCAT tracks each member's (offset, size). A member is read
// as a replica is: the replica manager selects one of the container's
// segment replicas, with its breakers and failover, and Member narrows
// the open segment to the member's record, so the member streams
// without touching the rest of the segment. Segments are replicated and
// synchronised as whole files, like any other object's replicas.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// fileMagic begins every container segment.
var fileMagic = []byte("SRBC0001")

// recMagic begins every record header.
var recMagic = []byte("RC01")

// recHeaderSize is the record framing overhead: marker + 8-byte length.
const recHeaderSize = 4 + 8

// HeaderSize is the segment file header length.
const HeaderSize = 8

// Writer appends records to a container segment on a storage driver.
// It is not safe for concurrent use; the broker serialises appends per
// container.
type Writer struct {
	d    storage.Driver
	path string
	off  int64 // current end of segment
}

// Create makes an empty segment at path on d, replacing any file there.
func Create(d storage.Driver, path string) (*Writer, error) {
	w, err := d.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(fileMagic); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Writer{d: d, path: path, off: HeaderSize}, nil
}

// NewWriter opens (or creates) the segment at path on d and positions
// at its end.
func NewWriter(d storage.Driver, path string) (*Writer, error) {
	fi, err := d.Stat(path)
	switch {
	case errors.Is(err, types.ErrNotFound):
		return Create(d, path)
	case err != nil:
		return nil, err
	}
	if fi.Size < HeaderSize {
		return nil, types.E("container", path, fmt.Errorf("segment shorter than header: %w", types.ErrInvalid))
	}
	return &Writer{d: d, path: path, off: fi.Size}, nil
}

// Size returns the current segment length in bytes.
func (w *Writer) Size() int64 { return w.off }

// Path returns the segment's physical path.
func (w *Writer) Path() string { return w.path }

// Append frames data as one record at the end of the segment and
// returns the payload offset MCAT should record for the member.
func (w *Writer) Append(data []byte) (offset int64, err error) {
	h, err := w.d.OpenAppend(w.path)
	if err != nil {
		return 0, err
	}
	var hdr [recHeaderSize]byte
	copy(hdr[:4], recMagic)
	binary.BigEndian.PutUint64(hdr[4:], uint64(len(data)))
	if _, err := h.Write(hdr[:]); err != nil {
		h.Close()
		return 0, err
	}
	if _, err := h.Write(data); err != nil {
		h.Close()
		return 0, err
	}
	if err := h.Close(); err != nil {
		return 0, err
	}
	offset = w.off + recHeaderSize
	w.off += recHeaderSize + int64(len(data))
	return offset, nil
}

// Member narrows f, an open segment, to the member recorded in the
// catalog at payload offset and size: reads stream the member's bytes
// and nothing else of the segment. An offset inside the segment's
// framing, or a segment too short to hold the member (a replica that
// missed an append), is refused and f is closed, so a caller choosing
// among segment replicas moves on to the next.
func Member(f storage.ReadFile, offset, size int64) (storage.ReadFile, error) {
	var err error
	if offset < HeaderSize+recHeaderSize || size < 0 {
		err = types.ErrInvalid
	} else if n, serr := storage.SizeOf(f); serr != nil {
		err = serr
	} else if n < offset+size {
		err = fmt.Errorf("segment of %d bytes ends before the member's end at %d: %w", n, offset+size, types.ErrInvalid)
	}
	if err != nil {
		f.Close()
		return nil, types.E("container-read", "", err)
	}
	return member{io.NewSectionReader(f, offset, size), f}, nil
}

// member is one record's window onto its open segment.
type member struct {
	*io.SectionReader
	seg storage.ReadFile
}

func (m member) Close() error { return m.seg.Close() }

// Record locates one member found by Scan.
type Record struct {
	Offset int64 // payload offset
	Size   int64
}

// Scan walks the segment's framing and returns every record. It is the
// recovery path when a catalog must be rebuilt from raw segments.
func Scan(d storage.Driver, path string) ([]Record, error) {
	r, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var head [HeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, types.E("container-scan", path, types.ErrInvalid)
	}
	if string(head[:]) != string(fileMagic) {
		return nil, types.E("container-scan", path, fmt.Errorf("bad segment magic: %w", types.ErrInvalid))
	}
	var out []Record
	off := int64(HeaderSize)
	for {
		var hdr [recHeaderSize]byte
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, types.E("container-scan", path, fmt.Errorf("truncated record header at %d: %w", off, types.ErrInvalid))
		}
		if string(hdr[:4]) != string(recMagic) {
			return out, types.E("container-scan", path, fmt.Errorf("bad record magic at %d: %w", off, types.ErrInvalid))
		}
		size := int64(binary.BigEndian.Uint64(hdr[4:]))
		if size < 0 {
			return out, types.E("container-scan", path, types.ErrInvalid)
		}
		payload := off + recHeaderSize
		if _, err := r.Seek(size, io.SeekCurrent); err != nil {
			return out, types.E("container-scan", path, err)
		}
		// Verify the payload is fully present by probing its last byte.
		if size > 0 {
			var b [1]byte
			if _, err := r.ReadAt(b[:], payload+size-1); err != nil {
				return out, types.E("container-scan", path, fmt.Errorf("truncated payload at %d: %w", payload, types.ErrInvalid))
			}
		}
		out = append(out, Record{Offset: payload, Size: size})
		off = payload + size
	}
}
