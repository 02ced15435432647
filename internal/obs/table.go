package obs

import (
	"sort"
	"sync"
)

// table is the bounded keyed map behind UsageTable, PeerHistory and
// HeatTable: rows under one mutex, at most max of them. It owns what the
// three share — a copy-out Snapshot in the type's order and a bounded
// Restore, both safe on a nil table; each type keeps its own Record rule
// for a new key once the table is full (usage folds it into "(other)",
// peers drop it, heat evicts the coldest row).
type table[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*V
	max int
}

// snapshot copies every row out under the lock, then orders the copies.
func (t *table[K, V]) snapshot(less func(a, b *V) bool) []V {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]V, 0, len(t.m))
	for _, row := range t.m {
		out = append(out, *row)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(&out[i], &out[j]) })
	return out
}

// restore refills the table from persisted rows (telemetry boot replay).
// admit readies a copy of each row for the table and returns its key, or
// false to skip the row. A row replaces the row under its key; a new key
// beyond max is skipped.
func (t *table[K, V]) restore(rows []V, admit func(*V) (K, bool)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		k, ok := admit(&row)
		if _, held := t.m[k]; ok && (held || len(t.m) < t.max) {
			t.m[k] = &row
		}
	}
}
