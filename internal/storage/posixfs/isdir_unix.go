//go:build unix

package posixfs

import (
	"os"
	"syscall"
)

// isDir reports whether fh is a directory. It asks fstat into a
// syscall.Stat_t on the stack, so unlike fh.Stat it makes no
// os.FileInfo.
func isDir(fh *os.File) bool {
	var st syscall.Stat_t
	return syscall.Fstat(int(fh.Fd()), &st) == nil && st.Mode&syscall.S_IFMT == syscall.S_IFDIR
}
