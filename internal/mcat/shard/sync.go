package shard

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"gosrb/internal/types"
)

// Role is a shard slot's replication role on this server.
type Role string

const (
	// Leader owns the shard: mutations apply here and feed the
	// replication log.
	Leader Role = "leader"
	// Follower mirrors a leader on another server by replaying its
	// journal stream; local mutations are rejected.
	Follower Role = "follower"
)

// DefaultPromoteAfter is the number of consecutive failed pulls after
// which a follower promotes itself to leader (failover).
const DefaultPromoteAfter = 3

// PullResult is one replication fetch: either the journal lines after
// the follower's applied sequence, or — when the leader's log no
// longer covers that point — a full snapshot. Seq is the leader
// sequence the follower has seen once the result is applied.
type PullResult struct {
	Entries  [][]byte
	Snapshot []byte
	Seq      uint64
}

// PullFunc fetches the replication stream of one shard from a peer.
type PullFunc func(peer string, shardIdx int, afterSeq uint64) (PullResult, error)

// SetFollower demotes shard i to follow leaderPeer. Reads keep
// serving local (possibly stale) data; mutations are rejected naming
// the leader; SyncOnce keeps the shard converging.
func (r *Router) SetFollower(i int, leaderPeer string) {
	r.mu.Lock()
	st := r.shards[i]
	st.role, st.leader, st.stale = Follower, leaderPeer, true
	st.applied, st.pullFails = 0, 0
	st.seenHead, st.lastSync = 0, time.Time{}
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
}

// Promote makes shard i a leader (failover or operator action).
func (r *Router) Promote(i int) {
	r.mu.Lock()
	st := r.shards[i]
	was := st.role
	st.role, st.leader, st.stale, st.pullFails = Leader, "", false, 0
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
	if was == Follower {
		if r.promotions != nil {
			r.promotions.Inc()
		}
		r.logf("mcat shard %d promoted to leader", i)
	}
}

// Role returns shard i's role and, for followers, its leader.
func (r *Router) Role(i int) (Role, string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[i].role, r.shards[i].leader
}

// SetPuller installs the transport used to fetch the replication
// stream and the failover threshold (<=0 selects DefaultPromoteAfter).
func (r *Router) SetPuller(pull PullFunc, promoteAfter int) {
	if promoteAfter <= 0 {
		promoteAfter = DefaultPromoteAfter
	}
	r.mu.Lock()
	r.puller = pull
	r.promoteAfter = promoteAfter
	r.mu.Unlock()
}

// Pull serves the leader side of replication: the journal lines after
// afterSeq, or a consistent snapshot when the log window has moved on.
// Each pull also acks the follower's position, which feeds the leader's
// replication-lag gauges.
func (r *Router) Pull(i int, afterSeq uint64) (PullResult, error) {
	if i < 0 || i >= r.n {
		return PullResult{}, types.E("shardpull", fmt.Sprint(i), types.ErrInvalid)
	}
	st := r.shards[i]
	r.mu.Lock()
	if afterSeq > st.ackSeq {
		st.ackSeq = afterSeq
	}
	st.lastPull = time.Now()
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
	if lines, ok := st.rl.Since(afterSeq); ok {
		if r.pullLines != nil {
			r.pullLines.Add(int64(len(lines)))
		}
		return PullResult{Entries: lines, Seq: afterSeq + uint64(len(lines))}, nil
	}
	// The follower fell off the bounded log tail: it catches up from a
	// snapshot instead. Count and warn — repeated fallbacks mean the log
	// window is too small for the sync cadence (tail pressure).
	if r.replogFallback != nil {
		r.replogFallback.Inc()
	}
	r.logf("mcat shard %d: follower at seq %d fell off the replication log tail (head %d); serving full snapshot",
		i, afterSeq, st.rl.Head())
	// Snapshot path. The journal appends under the catalog's write
	// lock and Save holds the read lock, so retry until no line lands
	// between the sequence reads — then the snapshot is exactly seq.
	for attempt := 0; attempt < 5; attempt++ {
		seq := st.rl.Head()
		var buf bytes.Buffer
		if err := st.cat.Save(&buf); err != nil {
			return PullResult{}, err
		}
		if st.rl.Head() == seq {
			return PullResult{Snapshot: buf.Bytes(), Seq: seq}, nil
		}
	}
	return PullResult{}, types.E("shardpull", fmt.Sprint(i), fmt.Errorf("snapshot kept racing the journal: %w", types.ErrTimeout))
}

// SyncOnce pulls every follower shard up to date. It is explicit — the
// daemon drives it from a repair-engine job, tests call it directly —
// so failover behavior is deterministic. A follower whose pulls fail
// promoteAfter times in a row promotes itself to leader.
func (r *Router) SyncOnce() error {
	r.mu.RLock()
	pull := r.puller
	promoteAfter := r.promoteAfter
	r.mu.RUnlock()
	if promoteAfter <= 0 {
		promoteAfter = DefaultPromoteAfter
	}
	var firstErr error
	for i := range r.shards {
		r.mu.RLock()
		st := r.shards[i]
		role, leader, applied := st.role, st.leader, st.applied
		r.mu.RUnlock()
		if role != Follower {
			continue
		}
		if pull == nil {
			return types.E("shardsync", fmt.Sprint(i), errors.New("no replication transport installed"))
		}
		res, err := pull(leader, i, applied)
		if err != nil {
			if r.pullFailed != nil {
				r.pullFailed.Inc()
			}
			r.mu.Lock()
			st.pullFails++
			st.stale = true
			fails := st.pullFails
			r.mu.Unlock()
			r.logf("mcat shard %d pull from %q failed (%d/%d): %v", i, leader, fails, promoteAfter, err)
			r.refreshReplag(i, time.Now())
			if fails >= promoteAfter {
				r.Promote(i)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := r.applyPull(i, res); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if r.pullOK != nil {
			r.pullOK.Inc()
		}
	}
	return firstErr
}

// applyPull folds one replication fetch into follower shard i.
func (r *Router) applyPull(i int, res PullResult) error {
	st := r.shards[i]
	// A follower whose own journal stopped taking appends stops here:
	// applying more would widen what its restart replays short of. The
	// refusal is not a pull failure, so it never leads to a promotion.
	if err := st.cat.JournalErr(); err != nil {
		return types.E("shardsync", fmt.Sprint(i), fmt.Errorf("journal append failing (%v): %w", err, types.ErrReadOnly))
	}
	if res.Snapshot != nil {
		if err := st.cat.Load(bytes.NewReader(res.Snapshot)); err != nil {
			return err
		}
	} else {
		for _, line := range res.Entries {
			if _, err := st.cat.ApplyEntry(line); err != nil {
				return err
			}
		}
	}
	r.mu.Lock()
	st.applied = res.Seq
	st.seenHead = res.Seq
	st.stale = false
	st.pullFails = 0
	st.lastSync = time.Now()
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
	return nil
}

// replagOf computes shard i's replication lag at time now. Callers must
// hold r.mu (read or write). A follower reports entries it knows it has
// not applied and the seconds since its last successful sync; a leader
// reports how far the last puller's ack trails its journal head. Slots
// that never replicated (no sync, no puller) report zero so a
// single-server deployment stays quiet.
func (r *Router) replagOf(st *state, now time.Time) (entries uint64, seconds float64) {
	switch st.role {
	case Follower:
		if st.seenHead > st.applied {
			entries = st.seenHead - st.applied
		}
		if !st.lastSync.IsZero() {
			if d := now.Sub(st.lastSync); d > 0 {
				seconds = d.Seconds()
			}
		}
	default:
		if st.lastPull.IsZero() {
			return 0, 0
		}
		if head := st.rl.Head(); head > st.ackSeq {
			entries = head - st.ackSeq
		}
	}
	return entries, seconds
}

// refreshReplag recomputes shard i's replication-lag gauges.
func (r *Router) refreshReplag(i int, now time.Time) {
	if r.replagEntries == nil {
		return
	}
	r.mu.RLock()
	entries, seconds := r.replagOf(r.shards[i], now)
	r.mu.RUnlock()
	r.replagEntries[i].Set(int64(entries))
	r.replagSeconds[i].Set(int64(seconds))
}

// RefreshReplag recomputes every shard's replication-lag gauges at time
// now. The daemons call it from the shard-sync job between pulls so the
// lag gauges keep climbing while a leader is unreachable; tests call it
// with explicit times for determinism.
func (r *Router) RefreshReplag(now time.Time) {
	for i := range r.shards {
		r.refreshReplag(i, now)
	}
}

// Status is one shard's replication and size snapshot (the shard-status
// wire op and the /shards page render it).
type Status struct {
	Shard       int       `json:"shard"`
	Role        string    `json:"role"`
	Leader      string    `json:"leader,omitempty"`
	Stale       bool      `json:"stale,omitempty"`
	Applied     uint64    `json:"applied"`
	Head        uint64    `json:"head"`
	PullFails   int       `json:"pullFails,omitempty"`
	Objects     int       `json:"objects"`
	Collections int       `json:"collections"`
	MetaEntries int       `json:"metaEntries"`
	LastSync    time.Time `json:"lastSync,omitempty"`
	// Replication lag at status time: journal entries the replica side
	// has not acked, and seconds since the follower last synced.
	ReplagEntries uint64  `json:"replagEntries,omitempty"`
	ReplagSeconds float64 `json:"replagSeconds,omitempty"`
}

// Statuses reports every shard slot.
func (r *Router) Statuses() []Status {
	now := time.Now()
	out := make([]Status, r.n)
	for i, st := range r.shards {
		cs := st.cat.Stats()
		r.mu.RLock()
		entries, seconds := r.replagOf(st, now)
		out[i] = Status{
			Shard:         i,
			Role:          string(st.role),
			Leader:        st.leader,
			Stale:         st.stale,
			Applied:       st.applied,
			Head:          st.rl.Head(),
			PullFails:     st.pullFails,
			Objects:       cs.Objects,
			Collections:   cs.Collections,
			MetaEntries:   cs.MetaEntries,
			LastSync:      st.lastSync,
			ReplagEntries: entries,
			ReplagSeconds: seconds,
		}
		r.mu.RUnlock()
		if r.replagEntries != nil {
			r.replagEntries[i].Set(int64(entries))
			r.replagSeconds[i].Set(int64(seconds))
		}
	}
	return out
}
