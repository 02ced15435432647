package shard

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/types"
)

// Role is a shard slot's replication role on this server.
type Role string

const (
	// Leader owns the shard: mutations apply here and append to the
	// journal its followers read.
	Leader Role = "leader"
	// Follower mirrors a leader on another server by applying the
	// lines of its journal; local mutations are rejected.
	Follower Role = "follower"
)

// DefaultPromoteAfter is the number of consecutive failed pulls after
// which a follower promotes itself to leader (failover).
const DefaultPromoteAfter = 3

// Position is a follower's position in its leader's journal.
type Position = mcat.JournalPos

// PullResult is one replication fetch: the leader's journal lines from
// the follower's position, or a snapshot when that position is not in
// the journal (a catch-up).
type PullResult = mcat.JournalRead

// PullFunc fetches one shard's journal from a peer, from a position.
type PullFunc func(peer string, shardIdx int, from Position) (PullResult, error)

// maxPullBytes bounds one pull's lines; SyncOnce pulls on while Full.
const maxPullBytes = 256 << 10

// SetFollower demotes shard i to follow leaderPeer. Reads keep
// serving local (possibly stale) data; mutations are rejected naming
// the leader; SyncOnce keeps the shard converging, from a catch-up.
func (r *Router) SetFollower(i int, leaderPeer string) {
	r.mu.Lock()
	st := r.shards[i]
	st.role, st.leader, st.stale = Follower, leaderPeer, true
	st.applied, st.pullFails, st.lastSync = Position{}, 0, time.Time{}
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
		r.promotions.Inc()
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

// Pull serves the leader side of replication (mcat.Catalog.ReadJournal).
// Each pull also acks the follower's position, which feeds the leader's
// replication-lag gauges.
func (r *Router) Pull(i int, from Position) (PullResult, error) {
	if i < 0 || i >= r.n {
		return PullResult{}, types.E("shardpull", fmt.Sprint(i), types.ErrInvalid)
	}
	st := r.shards[i]
	r.mu.Lock()
	st.acked, st.lastPull = from, time.Now()
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
	res, err := st.cat.ReadJournal(from, maxPullBytes)
	if err != nil {
		return PullResult{}, types.E("shardpull", fmt.Sprint(i), err)
	}
	if res.Skipped > 0 {
		r.pullSkipped.Add(int64(res.Skipped))
		r.logf("mcat shard %d: passed over %d journal lines that do not parse", i, res.Skipped)
	}
	r.pullLines.Add(int64(len(res.Entries)))
	if res.Snapshot != nil {
		r.pullSnapshots.Inc()
		r.logf("mcat shard %d: follower at %+v is not in the journal (at %+v); serving a catch-up", i, from, res.Pos)
	}
	return res, nil
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
	var firstErr error
	for i := range r.shards {
		if err := r.syncShard(i, pull, promoteAfter); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// syncShard pulls follower shard i until a reply is not full.
func (r *Router) syncShard(i int, pull PullFunc, promoteAfter int) error {
	for {
		r.mu.RLock()
		st := r.shards[i]
		role, leader, from := st.role, st.leader, st.applied
		r.mu.RUnlock()
		if role != Follower {
			return nil
		}
		if pull == nil {
			return types.E("shardsync", fmt.Sprint(i), errors.New("no replication transport installed"))
		}
		res, err := pull(leader, i, from)
		if err != nil {
			r.pullFailed.Inc()
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
			return err
		}
		if err := r.applyPull(i, res); err != nil {
			return err
		}
		r.pullOK.Inc()
		if !res.Full {
			return nil
		}
	}
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
		// No line of the shard's journal holds the loaded state: the
		// compaction gives the journal a new generation, so the shard,
		// once promoted, sends its followers a catch-up too, and a store
		// publishes the state before the position advances past it.
		if err := r.compact(i); err != nil {
			return err
		}
	} else {
		// An entry whose append fails is not applied, and nothing after
		// it is.
		for _, line := range res.Entries {
			if err := st.cat.ApplyEntry(line); err != nil {
				return err
			}
		}
	}
	r.mu.Lock()
	st.applied = res.Pos
	st.stale = false
	st.pullFails = 0
	st.lastSync = time.Now()
	r.mu.Unlock()
	r.refreshReplag(i, time.Now())
	return nil
}

// refreshReplag computes shard i's replication lag at time now, sets
// its gauges and returns it: a follower's seconds since its last sync,
// a leader's journal bytes past the last pull's position (all of them
// for a position in another generation). A slot that never replicated
// reports zero, so a single-server deployment stays quiet.
func (r *Router) refreshReplag(i int, now time.Time) (lagBytes int64, seconds float64) {
	head := r.shards[i].cat.JournalPos()
	r.mu.RLock()
	switch st := r.shards[i]; {
	case st.role == Follower && !st.lastSync.IsZero():
		seconds = max(now.Sub(st.lastSync).Seconds(), 0)
	case st.role == Leader && !st.lastPull.IsZero():
		lagBytes = head.Off
		if st.acked.Gen == head.Gen {
			lagBytes = max(head.Off-st.acked.Off, 0)
		}
	}
	r.mu.RUnlock()
	if r.replagBytes != nil {
		r.replagBytes[i].Set(lagBytes)
		r.replagSeconds[i].Set(int64(seconds))
	}
	return lagBytes, seconds
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
	Shard  int    `json:"shard"`
	Role   string `json:"role"`
	Leader string `json:"leader,omitempty"`
	Stale  bool   `json:"stale,omitempty"`
	// Applied is a follower's offset in its leader's journal; Head is
	// the size of the shard's own journal.
	Applied     int64     `json:"applied"`
	Head        int64     `json:"head"`
	PullFails   int       `json:"pullFails,omitempty"`
	Objects     int       `json:"objects"`
	Collections int       `json:"collections"`
	MetaEntries int       `json:"metaEntries"`
	LastSync    time.Time `json:"lastSync,omitempty"`
	// Replication lag at status time: journal bytes the last puller has
	// not acked, and seconds since the follower last synced.
	ReplagBytes   int64   `json:"replagBytes,omitempty"`
	ReplagSeconds float64 `json:"replagSeconds,omitempty"`
}

// Statuses reports every shard slot.
func (r *Router) Statuses() []Status {
	now := time.Now()
	out := make([]Status, r.n)
	for i, st := range r.shards {
		cs, head := st.cat.Stats(), st.cat.JournalPos()
		lagBytes, seconds := r.refreshReplag(i, now)
		r.mu.RLock()
		out[i] = Status{
			Shard:         i,
			Role:          string(st.role),
			Leader:        st.leader,
			Stale:         st.stale,
			Applied:       st.applied.Off,
			Head:          head.Off,
			PullFails:     st.pullFails,
			Objects:       cs.Objects,
			Collections:   cs.Collections,
			MetaEntries:   cs.MetaEntries,
			LastSync:      st.lastSync,
			ReplagBytes:   lagBytes,
			ReplagSeconds: seconds,
		}
		r.mu.RUnlock()
	}
	return out
}
