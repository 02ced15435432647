package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

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
	r   *Router
	opt OpenOptions
	// mu serialises Snapshot and Close: both swap or close the journals,
	// and a periodic save must not interleave with the shutdown one.
	mu       sync.Mutex
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
// load the snapshot, replay the journal and its rotation tail, append
// to the same journal file. When the configured shard count differs
// from the journaled map, the store rebalances: it loads the old
// layout, redistributes every entry by the new map, snapshots the new
// layout and retires the old files.
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

	if prev != opt.Shards {
		opt.Logf("mcat shard count changed %d -> %d; rebalancing", prev, opt.Shards)
		old, err := load(opt, prev)
		if err != nil {
			return nil, err
		}
		nw := NewRouter(opt.Shards, opt.Admin, opt.Domain)
		nw.SetLogf(opt.Logf)
		if err := reshard(old.r, nw); err != nil {
			return nil, types.E("reshard", opt.CatalogPath, err)
		}
		st := &Store{r: nw, opt: opt, ReplaySkipped: old.ReplaySkipped}
		if opt.CatalogPath != "" {
			// Persist the new layout before retiring the old one.
			for i := 0; i < nw.n; i++ {
				if err := nw.shards[i].cat.SaveFile(opt.catPath(opt.Shards, i)); err != nil {
					return nil, err
				}
				os.Remove(opt.jnlPath(opt.Shards, i))
				os.Remove(opt.jnlPath(opt.Shards, i) + ".new")
			}
			if err := st.saveMap(); err != nil {
				return nil, err
			}
			retire(opt, prev, opt.Shards)
		}
		return st.attach()
	}

	st, err := load(opt, opt.Shards)
	if err != nil {
		return nil, err
	}
	if opt.CatalogPath != "" && opt.Shards > 1 {
		if err := st.saveMap(); err != nil {
			return nil, err
		}
	}
	return st.attach()
}

// attach ends every boot path: it opens the journals (in-memory ones
// without a journal path) and bases every shard's replication log on a
// boot-unique, strictly increasing sequence. The in-memory log cannot
// serve history from before this boot (snapshotted state, or a previous
// incarnation a follower's applied sequence still points into), so a
// follower positioned at or below the base must take the snapshot path
// rather than be told "caught up" with none of that state.
func (st *Store) attach() (*Store, error) {
	if st.opt.JournalPath == "" {
		st.r.EnableMemoryJournals()
	} else if err := st.openJournals(); err != nil {
		return nil, err
	}
	st.r.SetRepLogBase(uint64(time.Now().UnixNano()))
	return st, nil
}

// load boots an n-shard router from its files: snapshot, journal,
// rotation tail. A snapshot that is absent is a fresh start; one that
// cannot be read is fatal — booting empty over it would let the next
// Snapshot overwrite a damaged but recoverable file. Corrupt journal
// lines are skipped and counted, not silently dropped and not fatal.
func load(opt OpenOptions, n int) (*Store, error) {
	r := NewRouter(n, opt.Admin, opt.Domain)
	r.SetLogf(opt.Logf)
	st := &Store{r: r, opt: opt}
	for i := 0; i < n; i++ {
		c := r.shards[i].cat
		if opt.CatalogPath != "" {
			switch err := c.LoadFile(opt.catPath(n, i)); {
			case err == nil:
				opt.Logf("catalog shard %d/%d loaded from %s", i, n, opt.catPath(n, i))
			case !errors.Is(err, fs.ErrNotExist):
				return nil, fmt.Errorf("catalog shard %d/%d: %w", i, n, err)
			}
		}
		if opt.JournalPath == "" {
			continue
		}
		jp := opt.jnlPath(n, i)
		rs, err := c.ReplayFileCounted(jp)
		if err != nil {
			return nil, err
		}
		// A crash between journal swap and rename leaves a .new tail.
		rs2, err := c.ReplayFileCounted(jp + ".new")
		if err != nil {
			return nil, err
		}
		os.Remove(jp + ".new")
		applied, skipped := rs.Applied+rs2.Applied, rs.Corrupt+rs2.Corrupt
		st.ReplaySkipped += skipped
		if applied > 0 || skipped > 0 {
			opt.Logf("shard %d/%d: replayed %d journal entries, skipped %d corrupt lines", i, n, applied, skipped)
		}
	}
	return st, nil
}

func exists(path string) bool {
	if path == "" {
		return false
	}
	_, err := os.Stat(path)
	return err == nil
}

// openJournals attaches (creating or appending) each shard's journal.
func (st *Store) openJournals() error {
	n := st.r.n
	st.journals = make([]*mcat.Journal, n)
	for i := 0; i < n; i++ {
		j, err := mcat.OpenJournalFile(st.opt.jnlPath(n, i))
		if err != nil {
			return err
		}
		st.journals[i] = j
		st.r.AttachJournal(i, j)
	}
	return nil
}

func (st *Store) saveMap() error {
	return st.r.m.SaveFile(st.opt.mapPath())
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
		os.Remove(opt.jnlPath(prev, i) + ".new")
	}
	if cur == 1 {
		os.Remove(opt.mapPath())
	}
}

// Router returns the catalog router behind the store.
func (st *Store) Router() *Router { return st.r }

// Snapshot saves every shard and rotates its journal: the fresh
// journal swaps in before the save so concurrent mutations land in the
// new file; replaying an entry captured by both is harmless, exactly
// as in the monolithic snapshot path.
func (st *Store) Snapshot() error {
	if st.opt.CatalogPath == "" {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.r.n
	var firstErr error
	for i := 0; i < n; i++ {
		cp, jp := st.opt.catPath(n, i), st.opt.jnlPath(n, i)
		var old *mcat.Journal
		if st.journals != nil {
			fresh, err := mcat.OpenJournalFile(jp + ".new")
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			old = st.journals[i]
			st.journals[i] = fresh
			st.r.AttachJournal(i, fresh)
		}
		err := st.r.shards[i].cat.SaveFile(cp)
		if old != nil {
			// Closed whether or not the save held: a failed save leaves
			// its lines on disk beside the .new tail, and boot replays both.
			old.Close()
			if err == nil {
				err = st.journals[i].Rename(jp)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close syncs and closes the journals.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
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
