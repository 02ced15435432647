// Package dbfs implements a database-backed storage driver: file
// contents live as LOBs in a relational table, standing in for the
// paper's Oracle / DB2 / Sybase resources ("a file that can exist ...
// as a LOB in a database system").
//
// The same database instance also hosts ordinary user tables, which is
// what registered SQL objects query at retrieval time; Database exposes
// it to the broker.
package dbfs

import (
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"time"

	"gosrb/internal/sqlengine"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// lobTable is the reserved table holding file contents.
const lobTable = "srb_lobs"

// FS is a database-resident storage.Driver.
type FS struct {
	mu   sync.Mutex // serialises read-modify-write cycles on the LOB table
	db   *sqlengine.DB
	dirs map[string]bool // explicitly created directories
	now  func() time.Time
}

// New returns a driver over a fresh database.
func New() *FS {
	db := sqlengine.NewDB()
	if err := db.CreateTable(lobTable, []string{"path", "data", "mtime"}); err != nil {
		panic("dbfs: " + err.Error()) // fresh DB cannot collide
	}
	return &FS{db: db, dirs: make(map[string]bool), now: time.Now}
}

// Database exposes the underlying engine for user tables and registered
// SQL queries.
func (f *FS) Database() *sqlengine.DB { return f.db }

// SetClock overrides the time source (tests).
func (f *FS) SetClock(now func() time.Time) { f.now = now }

func clean(p string) (string, error) {
	if strings.Contains(p, "\x00") {
		return "", types.E("path", p, types.ErrInvalid)
	}
	c := types.CleanPath(p)
	if c == "/" {
		return "", types.E("path", p, types.ErrInvalid)
	}
	return c, nil
}

// quote escapes a string literal for the SQL engine.
func quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// lookup returns (data, mtime, found). Callers hold mu.
func (f *FS) lookup(path string) (string, float64, bool, error) {
	res, err := f.db.Exec(fmt.Sprintf("SELECT data, mtime FROM %s WHERE path = %s", lobTable, quote(path)))
	if err != nil {
		return "", 0, false, types.E("dbfs", path, err)
	}
	if len(res.Rows) == 0 {
		return "", 0, false, nil
	}
	return res.Rows[0][0].Str, res.Rows[0][1].Float(), true, nil
}

// store upserts a LOB. Callers hold mu.
func (f *FS) store(path, data string) error {
	if _, err := f.db.Exec(fmt.Sprintf("DELETE FROM %s WHERE path = %s", lobTable, quote(path))); err != nil {
		return types.E("dbfs", path, err)
	}
	err := f.db.Insert(lobTable, sqlengine.Row{
		sqlengine.String(path),
		sqlengine.String(data),
		sqlengine.Number(float64(f.now().UnixNano())),
	})
	if err != nil {
		return types.E("dbfs", path, err)
	}
	return nil
}

// Create implements storage.Driver.
func (f *FS) Create(path string) (storage.WriteFile, error) {
	p, err := clean(path)
	if err != nil {
		return nil, err
	}
	return &writer{f: f, path: p}, nil
}

// OpenAppend implements storage.Driver.
func (f *FS) OpenAppend(path string) (storage.WriteFile, error) {
	p, err := clean(path)
	if err != nil {
		return nil, err
	}
	w := &writer{f: f, path: p}
	f.mu.Lock()
	data, _, found, err := f.lookup(p)
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if found {
		w.buf.WriteString(data)
	}
	return w, nil
}

type writer struct {
	f      *FS
	path   string
	buf    strings.Builder
	closed bool
}

func (w *writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, types.E("write", w.path, types.ErrInvalid)
	}
	return w.buf.Write(p)
}

func (w *writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	return w.f.store(w.path, w.buf.String())
}

// Abort drops the accumulated bytes without storing them.
func (w *writer) Abort() error {
	w.closed = true
	w.buf.Reset()
	return nil
}

// Open implements storage.Driver.
func (f *FS) Open(path string) (storage.ReadFile, error) {
	p, err := clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	data, _, found, err := f.lookup(p)
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, types.E("open", path, types.ErrNotFound)
	}
	return &reader{rd: *strings.NewReader(data)}, nil
}

// reader serves a LOB's bytes; after Close every call fails.
type reader struct {
	rd     strings.Reader
	closed bool
}

func (r *reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, types.E("read", "", fs.ErrClosed)
	}
	return r.rd.Read(p)
}

func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, types.E("read", "", fs.ErrClosed)
	}
	return r.rd.ReadAt(p, off)
}

func (r *reader) Seek(off int64, whence int) (int64, error) {
	if r.closed {
		return 0, types.E("seek", "", fs.ErrClosed)
	}
	return r.rd.Seek(off, whence)
}

func (r *reader) Close() error {
	r.closed = true
	return nil
}

// Stat implements storage.Driver.
func (f *FS) Stat(path string) (storage.FileInfo, error) {
	p, err := clean(path)
	if err != nil {
		return storage.FileInfo{}, err
	}
	f.mu.Lock()
	data, mtime, found, err := f.lookup(p)
	f.mu.Unlock()
	if err != nil {
		return storage.FileInfo{}, err
	}
	if !found {
		f.mu.Lock()
		isDir := f.dirs[p]
		f.mu.Unlock()
		if isDir {
			return storage.FileInfo{Path: p, IsDir: true}, nil
		}
		return storage.FileInfo{}, types.E("stat", path, types.ErrNotFound)
	}
	return storage.FileInfo{Path: p, Size: int64(len(data)), ModTime: time.Unix(0, int64(mtime))}, nil
}

// Remove implements storage.Driver.
func (f *FS) Remove(path string) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	res, err := f.db.Exec(fmt.Sprintf("DELETE FROM %s WHERE path = %s", lobTable, quote(p)))
	if err != nil {
		return types.E("remove", path, err)
	}
	if res.Rows[0][0].Float() == 0 {
		return types.E("remove", path, types.ErrNotFound)
	}
	return nil
}

// Rename implements storage.Driver.
func (f *FS) Rename(oldPath, newPath string) error {
	op, err := clean(oldPath)
	if err != nil {
		return err
	}
	np, err := clean(newPath)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, _, found, err := f.lookup(op)
	if err != nil {
		return err
	}
	if !found {
		return types.E("rename", oldPath, types.ErrNotFound)
	}
	if err := f.store(np, data); err != nil {
		return err
	}
	_, err = f.db.Exec(fmt.Sprintf("DELETE FROM %s WHERE path = %s", lobTable, quote(op)))
	return types.E("rename", oldPath, err)
}

// List implements storage.Driver: entries directly under dir.
func (f *FS) List(dir string) ([]storage.FileInfo, error) {
	d := types.CleanPath(dir)
	f.mu.Lock()
	res, err := f.db.Exec(fmt.Sprintf("SELECT path, data, mtime FROM %s", lobTable))
	f.mu.Unlock()
	if err != nil {
		return nil, types.E("list", dir, err)
	}
	seen := make(map[string]storage.FileInfo)
	any := false
	for _, row := range res.Rows {
		p := row[0].Str
		if !types.Within(d, p) {
			continue
		}
		any = true
		if types.Parent(p) == d {
			seen[p] = storage.FileInfo{Path: p, Size: int64(len(row[1].Str)), ModTime: time.Unix(0, int64(row[2].Float()))}
		} else {
			rest := strings.TrimPrefix(p, strings.TrimSuffix(d, "/")+"/")
			child := types.Join(d, strings.SplitN(rest, "/", 2)[0])
			seen[child] = storage.FileInfo{Path: child, IsDir: true}
		}
	}
	if !any && d != "/" {
		return nil, types.E("list", dir, types.ErrNotFound)
	}
	out := make([]storage.FileInfo, 0, len(seen))
	for _, fi := range seen {
		out = append(out, fi)
	}
	storage.SortInfos(out)
	return out, nil
}

// Mkdir implements storage.Driver. The LOB namespace is flat; explicit
// directories are tracked only so Stat can see them.
func (f *FS) Mkdir(path string) error {
	p, err := clean(path)
	if err != nil {
		if types.CleanPath(path) == "/" {
			return nil
		}
		return err
	}
	f.mu.Lock()
	f.dirs[p] = true
	for _, a := range types.Ancestors(p) {
		if a != "/" {
			f.dirs[a] = true
		}
	}
	f.mu.Unlock()
	return nil
}

// Usage implements storage.UsageReporter.
func (f *FS) Usage() storage.Usage {
	f.mu.Lock()
	defer f.mu.Unlock()
	res, err := f.db.Exec(fmt.Sprintf("SELECT data FROM %s", lobTable))
	if err != nil {
		return storage.Usage{}
	}
	var u storage.Usage
	for _, row := range res.Rows {
		u.Bytes += int64(len(row[0].Str))
		u.Files++
	}
	return u
}

var _ storage.Driver = (*FS)(nil)
var _ storage.UsageReporter = (*FS)(nil)
