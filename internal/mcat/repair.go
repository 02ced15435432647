package mcat

import (
	"sort"
	"time"

	"gosrb/internal/types"
)

// The pending repair queue lives in the catalog because the catalog is
// the single source of truth the paper's MCAT stands for: an async
// write is only durable once the deferred fan-out it implies is
// recorded next to the object rows. Enqueue and completion are
// journaled ("repairenq"/"repairdone"), so a daemon restart replays the
// queue back exactly as it stood; the snapshot carries it across
// compaction.

// EnqueueRepair adds a task to the pending queue. Tasks deduplicate on
// Key (Path + "|" + Resource): re-enqueueing an already-pending key is
// a no-op and returns false.
func (c *Catalog) EnqueueRepair(t types.RepairTask) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Key == "" {
		t.Key = types.RepairKey(t.Path, t.Resource)
	}
	if _, ok := c.repairs[t.Key]; ok {
		return false
	}
	return c.commitLineLocked(repairLine(t)) == nil
}

// repairLine lends a line holding a "repairenq" entry for t.
func repairLine(t types.RepairTask) *lineBuf {
	l := lend(Entry{Op: "repairenq"})
	l.p.repair = t
	l.e.Repair = &l.p.repair
	return l
}

// CompleteRepair removes a finished (or obsolete) task from the queue.
// Returns false when the key was not pending.
func (c *Catalog) CompleteRepair(key string) bool {
	return c.commit(Entry{Op: "repairdone", Name: key}) == nil
}

// NoteRepairAttempt records one failed execution of a pending task so
// the attempt count survives a restart (best effort — not fsynced per
// attempt).
func (c *Catalog) NoteRepairAttempt(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.repairs[key]
	if !ok {
		return 0
	}
	next := *t
	next.Attempts++
	if c.commitLineLocked(repairLine(next)) != nil {
		return t.Attempts
	}
	return next.Attempts
}

// PendingRepairs returns a copy of the queue, oldest first (ties broken
// by key so the order is deterministic).
func (c *Catalog) PendingRepairs() []types.RepairTask {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.RepairTask, 0, len(c.repairs))
	for _, t := range c.repairs {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Enqueued.Equal(out[j].Enqueued) {
			return out[i].Enqueued.Before(out[j].Enqueued)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// RepairBacklog reports the queue depth and the enqueue time of the
// oldest pending task (zero time when the queue is empty).
func (c *Catalog) RepairBacklog() (int, time.Time) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var oldest time.Time
	for _, t := range c.repairs {
		if oldest.IsZero() || t.Enqueued.Before(oldest) {
			oldest = t.Enqueued
		}
	}
	return len(c.repairs), oldest
}
