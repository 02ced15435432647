// Package audit implements the auditing facility the DGA requires:
// "in some cases, it may be necessary to audit usage of the
// collections/datasets" (paper §2). Every brokered operation appends a
// record; the log is bounded and queryable.
package audit

import (
	"strings"
	"sync"
	"time"

	"gosrb/internal/traceid"
	"gosrb/internal/types"
)

// DefaultCapacity bounds the in-memory log when no capacity is given.
const DefaultCapacity = 100_000

// blockSize is how many records the log allocates at a time. Storage
// grows block by block as records arrive, so a log nobody writes costs
// nothing and a full one never re-copies what it holds.
const blockSize = 1024

// textSize is the size of the log's text arena (Log.own). A string over
// a quarter of it is copied on its own instead.
const textSize = 16 << 10

// Log is a bounded, append-only audit trail. Safe for concurrent use.
// When the capacity is exceeded the oldest records are dropped.
type Log struct {
	mu sync.Mutex
	// blocks hold slots 0..capacity-1, slot i at
	// blocks[i/blockSize][i%blockSize]. The log fills in slot order
	// (start stays 0 until it is full), allocating each block as its
	// first slot is written, so every slot below count exists.
	blocks [][]types.AuditRecord
	// text is the append-only arena a record's Target and Detail are
	// copied into (own). Its bytes are never written again: a full arena
	// is dropped for a fresh one. Records are dropped in the order they
	// were written, so the arenas still held are those of the records
	// held: the log pins what it holds and at most one arena more.
	text     strings.Builder
	capacity int
	start    int // ring start
	count    int
	dropped  int64
	now      func() time.Time
}

// New returns a log holding up to capacity records (DefaultCapacity if
// capacity <= 0). It allocates no record storage until records arrive.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{capacity: capacity, now: time.Now}
}

// SetClock overrides the time source (tests).
func (l *Log) SetClock(now func() time.Time) { l.now = now }

// slot returns ring slot i.
func (l *Log) slot(i int) *types.AuditRecord { return &l.blocks[i/blockSize][i%blockSize] }

// own returns s as a string of the log's own, cut from its text arena
// without an allocation until the arena is full. A caller's string may
// be a slice of a larger buffer (a server cuts an idempotent op's
// arguments from a 4 KiB slab): held as it is, by up to capacity
// records, it would pin that whole buffer.
func (l *Log) own(s string) string {
	switch {
	case s == "":
		return ""
	case len(s) > textSize/4:
		return strings.Clone(s)
	case l.text.Cap()-l.text.Len() < len(s):
		l.text = strings.Builder{}
		l.text.Grow(textSize)
	}
	l.text.WriteString(s)
	t := l.text.String()
	return t[len(t)-len(s):]
}

// Record appends an entry, stamping the time if unset. The record's
// Target and Detail, the strings a request's arguments give it, are
// copied into the log's own arena; User and Op are the caller's session
// and op names, held as they are.
func (l *Log) Record(rec types.AuditRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Time.IsZero() {
		rec.Time = l.now()
	}
	rec.Target, rec.Detail = l.own(rec.Target), l.own(rec.Detail)
	if l.count < l.capacity {
		if l.count%blockSize == 0 {
			l.blocks = append(l.blocks, make([]types.AuditRecord, min(blockSize, l.capacity-l.count)))
		}
		*l.slot(l.count) = rec
		l.count++
		return
	}
	*l.slot(l.start) = rec
	l.start = (l.start + 1) % l.capacity
	l.dropped++
}

// Op is a convenience wrapper recording one operation outcome.
func (l *Log) Op(user, op, target string, ok bool, detail string) {
	l.Record(types.AuditRecord{User: user, Op: op, Target: target, OK: ok, Detail: detail})
}

// OpTraced records one operation outcome stamped with the request
// trace ID, joining the audit trail to the trace stream.
func (l *Log) OpTraced(trace traceid.ID, user, op, target string, ok bool, detail string) {
	l.Record(types.AuditRecord{User: user, Op: op, Target: target, OK: ok, Detail: detail, Trace: trace})
}

// Len reports how many records are held.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Dropped reports how many records were displaced by the ring bound.
func (l *Log) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Filter selects audit records; zero fields match everything. Target
// matches the record target itself or any record under it when the
// target is a collection path.
type Filter struct {
	User   string
	Op     string
	Target string
	Trace  traceid.ID
	Since  time.Time
	Until  time.Time
}

func (f Filter) matches(r types.AuditRecord) bool {
	if f.User != "" && r.User != f.User {
		return false
	}
	if f.Trace != 0 && r.Trace != f.Trace {
		return false
	}
	if f.Op != "" && r.Op != f.Op {
		return false
	}
	if f.Target != "" {
		if r.Target != f.Target && !(strings.HasPrefix(f.Target, "/") && types.Within(f.Target, r.Target)) {
			return false
		}
	}
	if !f.Since.IsZero() && r.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && r.Time.After(f.Until) {
		return false
	}
	return true
}

// Query returns matching records in append order.
func (l *Log) Query(f Filter) []types.AuditRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []types.AuditRecord
	for i := 0; i < l.count; i++ {
		r := *l.slot((l.start + i) % l.capacity)
		if f.matches(r) {
			out = append(out, r)
		}
	}
	return out
}
