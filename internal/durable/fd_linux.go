//go:build linux && (amd64 || arm64)

package durable

import (
	"bytes"
	"io"
	"syscall"
	"unsafe"
)

// fd is a raw file descriptor. Opening a file this way makes no
// *os.File: os.OpenFile allocates two objects per file, copies the path
// to the heap, tries to register a regular file with the poller (two
// fcntl calls and an epoll_ctl that fails, then two fcntl calls back)
// and sets a finalizer. Each method below is one syscall, or a loop of
// them for a short transfer, retried on EINTR; none of them allocates.
// (riscv64 has no SYS_RENAMEAT, so it takes fd_other.go.)
type fd int

// atFDCWD is AT_FDCWD (-100, linux/fcntl.h), which package syscall does
// not export, as a syscall argument: a relative path resolves against
// the working directory.
const atFDCWD = ^uintptr(99)

func (f fd) write(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := syscall.Write(int(f), p[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return n, err
		}
		if m == 0 {
			return n, io.ErrUnexpectedEOF
		}
		n += m
	}
	return n, nil
}

func (f fd) pwrite(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		m, err := syscall.Pwrite(int(f), p[n:], off+int64(n))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return n, err
		}
		if m == 0 {
			return n, io.ErrUnexpectedEOF
		}
		n += m
	}
	return n, nil
}

// read is one read(2); it returns 0, nil at end of file.
func (f fd) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(f), p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, err
		}
		return n, nil
	}
}

// pread is one pread(2); it returns 0, nil at end of file.
func (f fd) pread(p []byte, off int64) (int, error) {
	for {
		n, err := syscall.Pread(int(f), p, off)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, err
		}
		return n, nil
	}
}

func (f fd) seek(off int64, whence int) (int64, error) {
	return syscall.Seek(int(f), off, whence)
}

// close is not retried on EINTR: Linux releases the descriptor either
// way, and its number may already be another file's.
func (f fd) close() error { return syscall.Close(int(f)) }

// isDir reports whether f is a directory, from an fstat into a Stat_t
// on the stack.
func (f fd) isDir() bool {
	var st syscall.Stat_t
	return syscall.Fstat(int(f), &st) == nil && st.Mode&syscall.S_IFMT == syscall.S_IFDIR
}

// cpath writes p into buf as a NUL-terminated string, refusing what the
// kernel would misread: a NUL inside the path (EINVAL) and a path too
// long for PATH_MAX (ENAMETOOLONG, as the kernel says).
func cpath(buf *[syscall.PathMax]byte, p fpath) (*byte, error) {
	b := p.appendTo(buf[:0])
	if len(b) >= len(buf) {
		return nil, syscall.ENAMETOOLONG
	}
	if bytes.IndexByte(b, 0) >= 0 {
		return nil, syscall.EINVAL
	}
	buf[len(b)] = 0
	return &buf[0], nil
}

func openat(p fpath, flag int, perm uint32) (fd, error) {
	var buf [syscall.PathMax]byte
	s, err := cpath(&buf, p)
	if err != nil {
		return -1, err
	}
	for {
		r, _, e := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(s)), uintptr(flag|syscall.O_CLOEXEC|syscall.O_LARGEFILE), uintptr(perm), 0, 0)
		switch e {
		case 0:
			return fd(r), nil
		case syscall.EINTR:
			continue
		}
		return -1, e
	}
}

// renameat moves from onto to. A directory at to is refused as EEXIST,
// which is how os.Rename reports it (the kernel says EISDIR).
func renameat(from, to fpath) error {
	var fb, tb [syscall.PathMax]byte
	f, err := cpath(&fb, from)
	if err != nil {
		return err
	}
	t, err := cpath(&tb, to)
	if err != nil {
		return err
	}
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, atFDCWD, uintptr(unsafe.Pointer(f)), atFDCWD, uintptr(unsafe.Pointer(t)), 0, 0)
		switch e {
		case 0:
			return nil
		case syscall.EINTR:
			continue
		case syscall.EISDIR:
			return syscall.EEXIST
		}
		return e
	}
}

// unlinkat removes a file; a directory is refused with EISDIR.
func unlinkat(p fpath) error {
	var buf [syscall.PathMax]byte
	s, err := cpath(&buf, p)
	if err != nil {
		return err
	}
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_UNLINKAT, atFDCWD, uintptr(unsafe.Pointer(s)), 0, 0, 0, 0)
		switch e {
		case 0:
			return nil
		case syscall.EINTR:
			continue
		}
		return e
	}
}
