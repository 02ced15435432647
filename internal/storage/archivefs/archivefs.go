// Package archivefs simulates an archival storage system in the mould
// of HPSS, UniTree or ADSM: opening a file that is not staged pays a
// configurable stage latency (tape mount and positioning), after which
// the file sits in a bounded staging cache with LRU eviction and reads
// stream at a configurable bandwidth.
//
// The paper's testbeds used real tape archives; this driver preserves
// the property those systems impose on the design — high fixed
// per-open cost, cheap sequential streaming — which is precisely what
// containers and cache resources exploit.
package archivefs

import (
	"container/list"
	"sync"
	"time"

	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
)

// Config shapes the simulated archive.
type Config struct {
	// StageLatency is paid on each open of an unstaged file.
	StageLatency time.Duration
	// BandwidthBytesPerSec throttles streaming reads; 0 means unlimited.
	BandwidthBytesPerSec int64
	// StageCapacity bounds how many files stay staged; 0 means 64.
	StageCapacity int
}

// Stats counts archive activity; retrieve with Stats.
type Stats struct {
	Stages    int64 // cold opens that paid the stage latency
	CacheHits int64 // opens served from the staging cache
	Evictions int64 // staged files displaced by LRU pressure
}

// FS is a simulated archival storage.Driver. Safe for concurrent use.
type FS struct {
	cfg  Config
	tape *memfs.FS

	mu     sync.Mutex
	lru    *list.List               // front = most recent
	staged map[string]*list.Element // path -> lru node
	stats  Stats

	// sleep is swappable so tests can count simulated waits without
	// slowing the suite down.
	sleep func(time.Duration)
}

// New returns an empty simulated archive.
func New(cfg Config) *FS {
	if cfg.StageCapacity <= 0 {
		cfg.StageCapacity = 64
	}
	return &FS{
		cfg:    cfg,
		tape:   memfs.New(),
		lru:    list.New(),
		staged: make(map[string]*list.Element),
		sleep:  time.Sleep,
	}
}

// SetSleep overrides the wait function (tests inject a recorder).
func (f *FS) SetSleep(fn func(time.Duration)) { f.sleep = fn }

// Stats returns a snapshot of the activity counters.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Staged reports whether path is currently in the staging cache.
func (f *FS) Staged(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.staged[path]
	return ok
}

// stage simulates the tape fetch for path and returns the wait served.
func (f *FS) stage(path string) time.Duration {
	f.mu.Lock()
	if el, ok := f.staged[path]; ok {
		f.lru.MoveToFront(el)
		f.stats.CacheHits++
		f.mu.Unlock()
		return 0
	}
	f.stats.Stages++
	el := f.lru.PushFront(path)
	f.staged[path] = el
	for f.lru.Len() > f.cfg.StageCapacity {
		victim := f.lru.Back()
		f.lru.Remove(victim)
		delete(f.staged, victim.Value.(string))
		f.stats.Evictions++
	}
	f.mu.Unlock()
	return f.cfg.StageLatency
}

// unstage drops path from the staging cache (used after remove/rename).
func (f *FS) unstage(path string) {
	f.mu.Lock()
	if el, ok := f.staged[path]; ok {
		f.lru.Remove(el)
		delete(f.staged, path)
	}
	f.mu.Unlock()
}

// Create implements storage.Driver. Writes land in the archive's disk
// cache and the file is considered staged afterwards.
func (f *FS) Create(path string) (storage.WriteFile, error) {
	w, err := f.tape.Create(path)
	if err != nil {
		return nil, err
	}
	return &stagedWriter{f: f, path: path, inner: w}, nil
}

// OpenAppend implements storage.Driver.
func (f *FS) OpenAppend(path string) (storage.WriteFile, error) {
	w, err := f.tape.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &stagedWriter{f: f, path: path, inner: w}, nil
}

type stagedWriter struct {
	f     *FS
	path  string
	inner storage.WriteFile
}

func (w *stagedWriter) Write(p []byte) (int, error) { return w.inner.Write(p) }

func (w *stagedWriter) Close() error {
	if err := w.inner.Close(); err != nil {
		return err
	}
	// Freshly written files are hot in the disk cache.
	w.f.stage(w.path)
	return nil
}

func (w *stagedWriter) Abort() error { return storage.ForwardAbort(w.inner) }

// Open implements storage.Driver, paying the stage latency on cold hits.
func (f *FS) Open(path string) (storage.ReadFile, error) {
	r, err := f.tape.Open(path)
	if err != nil {
		return nil, err
	}
	if wait := f.stage(path); wait > 0 {
		f.sleep(wait)
	}
	return &throttledReader{inner: r, bw: f.cfg.BandwidthBytesPerSec, sleep: f.sleep}, nil
}

// throttledReader delays reads to model streaming bandwidth.
type throttledReader struct {
	inner storage.ReadFile
	bw    int64
	sleep func(time.Duration)
}

func (r *throttledReader) wait(n int) {
	if r.bw <= 0 || n <= 0 {
		return
	}
	d := time.Duration(int64(n) * int64(time.Second) / r.bw)
	if d > 0 {
		r.sleep(d)
	}
}

func (r *throttledReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	r.wait(n)
	return n, err
}

func (r *throttledReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.inner.ReadAt(p, off)
	r.wait(n)
	return n, err
}

func (r *throttledReader) Seek(offset int64, whence int) (int64, error) {
	return r.inner.Seek(offset, whence)
}

func (r *throttledReader) Close() error { return r.inner.Close() }

// Stat implements storage.Driver (no latency: MCAT-style metadata is on
// disk even for tape-resident files).
func (f *FS) Stat(path string) (storage.FileInfo, error) { return f.tape.Stat(path) }

// Remove implements storage.Driver.
func (f *FS) Remove(path string) error {
	f.unstage(path)
	return f.tape.Remove(path)
}

// Rename implements storage.Driver.
func (f *FS) Rename(oldPath, newPath string) error {
	f.unstage(oldPath)
	return f.tape.Rename(oldPath, newPath)
}

// List implements storage.Driver.
func (f *FS) List(dir string) ([]storage.FileInfo, error) { return f.tape.List(dir) }

// Mkdir implements storage.Driver.
func (f *FS) Mkdir(path string) error { return f.tape.Mkdir(path) }

// Usage implements storage.UsageReporter.
func (f *FS) Usage() storage.Usage { return f.tape.Usage() }

var _ storage.Driver = (*FS)(nil)
var _ storage.UsageReporter = (*FS)(nil)
