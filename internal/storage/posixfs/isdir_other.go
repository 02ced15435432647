//go:build !unix

package posixfs

import "os"

// isDir reports whether fh is a directory.
func isDir(fh *os.File) bool {
	fi, err := fh.Stat()
	return err == nil && fi.IsDir()
}
