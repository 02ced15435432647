//go:build !(linux && (amd64 || arm64))

package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// fd is an open file on a target without fd_linux.go's raw descriptors,
// held as an *os.File. Its methods act as the syscalls of that file do:
// they return the bare cause of an error, which durable.go wraps with
// the operation and the path, and a read returns 0, nil at end of file.
type fd struct{ f *os.File }

// bare strips the *fs.PathError or *os.LinkError os puts around a cause.
func bare(err error) error {
	var pe *fs.PathError
	var le *os.LinkError
	switch {
	case errors.As(err, &pe):
		return pe.Err
	case errors.As(err, &le):
		return le.Err
	}
	return err
}

func (f fd) write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	return n, bare(err)
}

func (f fd) pwrite(p []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(p, off)
	return n, bare(err)
}

func (f fd) read(p []byte) (int, error) {
	n, err := f.f.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, bare(err)
}

func (f fd) pread(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	return n, bare(err)
}

func (f fd) seek(off int64, whence int) (int64, error) {
	n, err := f.f.Seek(off, whence)
	return n, bare(err)
}

func (f fd) close() error { return bare(f.f.Close()) }

func (f fd) isDir() bool {
	fi, err := f.f.Stat()
	return err == nil && fi.IsDir()
}

func openat(p fpath, flag int, perm uint32) (fd, error) {
	f, err := os.OpenFile(p.String(), flag, os.FileMode(perm))
	return fd{f}, bare(err)
}

func renameat(from, to fpath) error {
	return bare(os.Rename(from.String(), to.String()))
}

// unlinkat removes a file. os.Remove would remove an empty directory
// too, so a directory is refused first, with EISDIR as on Linux.
func unlinkat(p fpath) error {
	name := p.String()
	if fi, err := os.Stat(name); err == nil && fi.IsDir() {
		return syscall.EISDIR
	}
	return bare(os.Remove(name))
}
