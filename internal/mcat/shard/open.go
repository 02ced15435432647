package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// OpenOptions configures a persistent sharded catalog store.
type OpenOptions struct {
	// Shards is the desired partition count (>= 1).
	Shards int
	// CatalogPath/JournalPath are the snapshot and append-log paths.
	// With one shard they are used verbatim (the monolithic layout);
	// with N they expand to <path>.shard<i>, and the shard map is
	// journaled next to the catalog as <CatalogPath>.shardmap.
	// Empty paths mean a memory-only catalog, as before.
	CatalogPath string
	JournalPath string
	// Admin/Domain seed fresh catalogs.
	Admin  string
	Domain string
	// Logf receives boot/replication notices (default: discard).
	Logf func(format string, args ...any)
}

// Store is the persistence side of a sharded catalog: per-shard
// snapshot + journal files plus the journaled shard map.
type Store struct {
	r        *Router
	opt      OpenOptions
	journals []*mcat.Journal
	// ReplaySkipped counts corrupt or truncated journal lines skipped
	// across all shards during boot replay (surfaced as a metric).
	ReplaySkipped int
}

func (o OpenOptions) catPath(n, i int) string {
	if n == 1 {
		return o.CatalogPath
	}
	return fmt.Sprintf("%s.shard%d", o.CatalogPath, i)
}

func (o OpenOptions) jnlPath(n, i int) string {
	if n == 1 {
		return o.JournalPath
	}
	return fmt.Sprintf("%s.shard%d", o.JournalPath, i)
}

func (o OpenOptions) mapPath() string { return o.CatalogPath + ".shardmap" }

// Open loads (or creates) a sharded catalog store. With Shards == 1
// and no prior shard map this is exactly the monolithic boot sequence:
// load the snapshot, bring the catalog up to the journal (Resume) and a
// rotation tail an older binary left, append to the same journal file.
// When the configured shard count differs from the journaled map, the
// store first rebalances on disk, then boots the new layout the same
// way.
func Open(opt OpenOptions) (*Store, error) {
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	prev := opt.Shards
	if opt.CatalogPath != "" {
		m, err := LoadMapFile(opt.mapPath())
		if err != nil {
			return nil, err
		}
		switch {
		case m != nil:
			prev = m.Shards
		case opt.Shards > 1 && (exists(opt.CatalogPath) || exists(opt.JournalPath)):
			// No shard map but monolithic files on disk: a legacy
			// single-shard catalog being split for the first time.
			prev = 1
		}
	}
	skipped := 0
	if prev != opt.Shards {
		var err error
		if skipped, err = rebalance(opt, prev); err != nil {
			return nil, err
		}
	}
	st, err := load(opt, opt.Shards)
	if err != nil {
		return nil, err
	}
	st.ReplaySkipped += skipped
	if opt.CatalogPath != "" && opt.Shards > 1 {
		if err := st.r.m.SaveFile(opt.mapPath()); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st.attach(), nil
}

// rebalance rewrites the prev-shard layout on disk as opt.Shards shards
// (reshard), then retires the old files. It returns the journal lines
// the old layout's boot skipped.
func rebalance(opt OpenOptions, prev int) (int, error) {
	opt.Logf("mcat shard count changed %d -> %d; rebalancing", prev, opt.Shards)
	old, err := load(opt, prev)
	if err != nil {
		return 0, err
	}
	nw := NewRouter(opt.Shards, opt.Admin, opt.Domain)
	err = reshard(old.r, nw)
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, types.E("reshard", opt.CatalogPath, err)
	}
	// Persist the new layout before retiring the old one.
	for i := 0; i < nw.n; i++ {
		if err := nw.shards[i].cat.Compact(opt.catPath(opt.Shards, i)); err != nil {
			return 0, err
		}
		os.Remove(opt.jnlPath(opt.Shards, i))
	}
	if opt.Shards > 1 {
		if err := nw.m.SaveFile(opt.mapPath()); err != nil {
			return 0, err
		}
	}
	retire(opt, prev, opt.Shards)
	return old.ReplaySkipped, nil
}

// attach ends the boot: a store with no journal path gets memory
// journals, and one with a snapshot path compacts through it. Boot
// compacts no journal; one an older binary wrote keeps generation 0 (a
// catch-up for every pull) until the first Snapshot.
func (st *Store) attach() *Store {
	if st.opt.JournalPath == "" {
		st.r.EnableMemoryJournals()
	}
	if st.opt.CatalogPath != "" {
		st.r.compact = st.compact
	}
	return st
}

// load boots an n-shard router from its files: snapshot, journal
// (mcat.Catalog.Resume), and a rotation tail an older binary left. A snapshot that is absent is a fresh start; one that
// cannot be read is fatal — booting empty over it would let the next
// Snapshot overwrite a damaged but recoverable file. Corrupt journal
// lines are skipped and counted, not silently dropped and not fatal.
func load(opt OpenOptions, n int) (*Store, error) {
	r := NewRouter(n, opt.Admin, opt.Domain)
	r.SetLogf(opt.Logf)
	st := &Store{r: r, opt: opt}
	for i := 0; i < n; i++ {
		if err := st.loadShard(i); err != nil {
			st.Close()
			return nil, fmt.Errorf("catalog shard %d/%d: %w", i, n, err)
		}
	}
	return st, nil
}

func (st *Store) loadShard(i int) error {
	opt, n, c := st.opt, st.r.n, st.r.shards[i].cat
	if opt.CatalogPath != "" {
		switch err := c.LoadFile(opt.catPath(n, i)); {
		case err == nil:
			opt.Logf("catalog shard %d/%d loaded from %s", i, n, opt.catPath(n, i))
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	if opt.JournalPath == "" {
		return nil
	}
	jp := opt.jnlPath(n, i)
	j, err := mcat.OpenJournalFile(jp)
	if err != nil {
		return err
	}
	st.journals = append(st.journals, j)
	rs, err := c.Resume(j)
	if err != nil {
		return err
	}
	tailSkipped, err := absorbTail(c, jp+".new")
	if err != nil {
		return err
	}
	st.ReplaySkipped += rs.Corrupt + tailSkipped
	if rs.Applied > 0 || rs.Corrupt > 0 {
		opt.Logf("shard %d/%d: replayed %d journal entries, skipped %d corrupt lines", i, n, rs.Applied, rs.Corrupt)
	}
	return nil
}

// absorbTail commits the rotation tail an older binary, killed between
// its journal swap and rename, left beside the journal, then removes it.
// ApplyEntry appends each line to c's journal before applying it, so a
// second crash loses none; a line that does not parse is counted.
func absorbTail(c *mcat.Catalog, tail string) (int, error) {
	f, err := os.Open(tail)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, types.E("replay", tail, err)
	}
	defer f.Close()
	skipped, err := durable.Replay(f, func(line []byte) bool { return c.ApplyEntry(line) == nil })
	if err == nil {
		err = c.JournalErr()
	}
	if err != nil {
		return skipped, types.E("replay", tail, err)
	}
	return skipped, os.Remove(tail)
}

func exists(path string) bool {
	if path == "" {
		return false
	}
	_, err := os.Stat(path)
	return err == nil
}

// retire removes files of the previous layout that the new one does
// not reuse. Two sharded layouts share the names <path>.shard<i> below
// the smaller count, and those now hold the new layout.
func retire(opt OpenOptions, prev, cur int) {
	if prev == cur {
		return
	}
	for i := 0; i < prev; i++ {
		if prev > 1 && cur > 1 && i < cur {
			continue
		}
		os.Remove(opt.catPath(prev, i))
		os.Remove(opt.jnlPath(prev, i))
	}
	if cur == 1 {
		os.Remove(opt.mapPath())
	}
}

// Router returns the catalog router behind the store.
func (st *Store) Router() *Router { return st.r }

// Snapshot compacts every shard: its snapshot is published, then its
// journal emptied under a new generation, under one hold of the shard
// catalog's lock (mcat.Catalog.Compact).
func (st *Store) Snapshot() error {
	if st.opt.CatalogPath == "" {
		return nil
	}
	var firstErr error
	for i := 0; i < st.r.n; i++ {
		if err := st.compact(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// compact compacts shard i alone: the router calls it when a catch-up
// has loaded state that is in no line of the shard's journal.
func (st *Store) compact(i int) error {
	return st.r.shards[i].cat.Compact(st.opt.catPath(st.r.n, i))
}

// Close syncs and closes the journals.
func (st *Store) Close() error {
	var firstErr error
	for _, j := range st.journals {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reshard rebuilds the old router's catalog in the new layout: every
// old shard is exported and each entry written where a live write of
// it would land. Broadcast state is exported by every old shard, so a
// copy that already exists is skipped; anything else that does not
// apply stops the reshard. No new shard hands out an ID the old layout
// ever handed out, a deleted object's included.
func reshard(old, nw *Router) error {
	var next types.ObjectID
	for _, src := range old.shards {
		next = max(next, src.cat.NextID())
	}
	for _, dst := range nw.shards {
		dst.cat.ReserveIDs(next)
	}
	for _, src := range old.shards {
		for _, e := range src.cat.Export("/") {
			op, path := e.Op, e.Target()
			err := nw.write(op, path, func(c *mcat.Catalog) error { return c.Apply(e) })
			if err != nil && (nw.route(op, path) != everyShard || !errors.Is(err, types.ErrExists)) {
				return err
			}
		}
	}
	return nil
}
