package shard

import "sync"

// DefaultRepLogCap bounds the in-memory replication window per shard.
// A follower further behind than the window catches up from a full
// snapshot instead of the incremental stream.
const DefaultRepLogCap = 4096

// RepLog is the replication log of one shard: a bounded ring of
// journal lines, sequence-numbered from 1. The journal's observer hook
// feeds it, so the same append-only stream that makes the catalog
// durable also replicates it.
type RepLog struct {
	mu sync.Mutex
	// ring holds the retained lines oldest-first starting at ring[first].
	// It grows by append (first stays 0) until it holds max lines; from
	// then on each new line overwrites the oldest in place.
	ring  [][]byte
	first int
	start uint64 // sequence of the oldest retained line; 1 when nothing trimmed
	max   int
}

// NewRepLog returns a log retaining at most max lines.
func NewRepLog(max int) *RepLog {
	if max < 1 {
		max = DefaultRepLogCap
	}
	return &RepLog{start: 1, max: max}
}

// SetBase declares that sequences 1..base precede this log: a reader
// positioned at or before base is behind the retained window and is
// sent a snapshot. A persistent store sets a fresh boot-unique base at
// every open — the in-memory log cannot represent history from before
// the process started (snapshotted state, or a previous incarnation a
// follower's applied sequence still refers to), so pretending the log
// starts at 1 would serve such followers "caught up" with none of that
// state. Must be called before the first Append.
func (l *RepLog) SetBase(base uint64) {
	l.mu.Lock()
	if len(l.ring) == 0 && base+1 > l.start {
		l.start = base + 1
	}
	l.mu.Unlock()
}

// Append records one journal line (copied).
func (l *RepLog) Append(line []byte) {
	cp := append([]byte(nil), line...)
	l.mu.Lock()
	if len(l.ring) < l.max {
		l.ring = append(l.ring, cp)
	} else {
		l.ring[l.first] = cp
		l.first = (l.first + 1) % l.max
		l.start++
	}
	l.mu.Unlock()
}

// Head returns the sequence number of the newest line (0 when the log
// has never held one).
func (l *RepLog) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + uint64(len(l.ring)) - 1
}

// Since returns the lines after sequence `after`, and whether the log
// still covers that point. ok == false means the follower is behind
// the retained window and needs a snapshot.
func (l *RepLog) Since(after uint64) ([][]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after+1 < l.start {
		return nil, false
	}
	head := l.start + uint64(len(l.ring)) - 1
	if after >= head {
		return nil, true
	}
	out := make([][]byte, 0, head-after)
	for i := int(after + 1 - l.start); i < len(l.ring); i++ {
		out = append(out, l.ring[(l.first+i)%len(l.ring)])
	}
	return out, true
}
