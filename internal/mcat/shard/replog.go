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
//
// Retention starts at the shard's first pull: until then no follower
// exists, so Append only advances the sequence and copies nothing, and
// that first reader (whose position predates retention) is sent a
// snapshot.
type RepLog struct {
	mu sync.Mutex
	// ring holds the retained lines oldest-first starting at ring[first].
	// It grows by append (first stays 0) until it holds max lines; from
	// then on each new line overwrites the oldest in place.
	ring     [][]byte
	first    int
	start    uint64 // sequence of the oldest retained line; head+1 when none is
	max      int
	retained bool // a reader has pulled: Append keeps lines from now on
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
// state. A base at or below the head is ignored.
func (l *RepLog) SetBase(base uint64) {
	l.mu.Lock()
	if base > l.headLocked() {
		l.ring, l.first, l.start = nil, 0, base+1
	}
	l.mu.Unlock()
}

// Rebase is SetBase just past the head, for state that arrived other
// than as journal lines (a snapshot load): every reader at or before the
// current head is sent a snapshot, and the load takes the next sequence.
func (l *RepLog) Rebase() {
	l.mu.Lock()
	l.ring, l.first, l.start = nil, 0, l.headLocked()+2
	l.mu.Unlock()
}

// Append records one journal line: a copy once a reader has pulled,
// otherwise only its sequence.
func (l *RepLog) Append(line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case !l.retained:
		l.start++
	case len(l.ring) < l.max:
		l.ring = append(l.ring, append([]byte(nil), line...))
	default:
		l.ring[l.first] = append([]byte(nil), line...)
		l.first = (l.first + 1) % l.max
		l.start++
	}
}

// Head returns the sequence number of the newest line (0 when the log
// has never held one).
func (l *RepLog) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headLocked()
}

func (l *RepLog) headLocked() uint64 { return l.start + uint64(len(l.ring)) - 1 }

// Since returns the lines after sequence `after`, and whether the log
// still covers that point; the first call starts retention. ok == false
// means the reader needs a snapshot, and fellBehind says whether that is
// because it fell behind lines the log was retaining (false for the
// first pull, whose position predates retention).
func (l *RepLog) Since(after uint64) (lines [][]byte, ok, fellBehind bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	wasRetained := l.retained
	l.retained = true
	if after+1 < l.start {
		return nil, false, wasRetained
	}
	head := l.headLocked()
	if after >= head {
		return nil, true, false
	}
	out := make([][]byte, 0, head-after)
	for i := int(after + 1 - l.start); i < len(l.ring); i++ {
		out = append(out, l.ring[(l.first+i)%len(l.ring)])
	}
	return out, true, false
}
