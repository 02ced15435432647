// Batch operations and the client-side flush policy. One OpBulkPut /
// OpMultiGet / OpBulkStat round trip moves many small objects, which
// is what makes high-latency links survivable; the PutBatcher decides
// when a trickle of Adds becomes a flush using benthos-style triggers:
// item count, byte size, or elapsed period — whichever fires first.
package client

import (
	"fmt"
	"sync"
	"time"

	"gosrb/internal/chunk"
	"gosrb/internal/obs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// BulkPut is one object of a client-side bulk ingest.
type BulkPut struct {
	Path string
	Data []byte
	Opts PutOpts
}

// BulkPut ingests many objects in one round trip. The returned slice
// reports per-item status in input order; items fail independently.
// The whole-batch error covers transport/protocol failures only.
func (cl *Client) BulkPut(items []BulkPut) ([]wire.BulkItemStatus, error) {
	if len(items) == 0 {
		return nil, nil
	}
	args := wire.BulkPutArgs{Items: make([]wire.BulkPutItem, len(items))}
	// The items are framed one after another straight from the caller's
	// slices; the batch is never concatenated.
	payload := make(chunk.Slices, len(items))
	for i, it := range items {
		args.Items[i] = wire.BulkPutItem{
			Path: it.Path, Resource: it.Opts.Resource, Container: it.Opts.Container,
			DataType: it.Opts.DataType, Meta: it.Opts.Meta, Size: int64(len(it.Data)),
		}
		payload[i] = it.Data
	}
	var out wire.BulkPutReply
	if err := call(cl, wire.OpBulkPut, args, &xfer{send: &payload}, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// MultiGetResult is one item of a MultiGet: the object's bytes or its
// per-item error, in request order.
type MultiGetResult struct {
	Path string
	Data []byte
	Err  error

	// size is the item's length in the data stream, from the manifest.
	size int64
}

// MultiGet fetches many objects in one round trip, preserving request
// order. Items fail independently; the whole-call error covers
// transport/protocol failures only.
func (cl *Client) MultiGet(paths []string) ([]MultiGetResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	// The manifest arrives in the response body, ahead of the bytes: it
	// is decoded once, as the stream is announced, straight into the
	// results (Begin), and its sizes add up to the one buffer the whole
	// batch is received into.
	results := make([]MultiGetResult, len(paths))
	x := newXfer()
	x.mget = results
	if err := call(cl, wire.OpMultiGet, wire.MultiGetArgs{Paths: paths}, x, none); err != nil {
		// A call that failed may have left the conn's reader filling x.
		return nil, err
	}
	data := x.bytes()
	x.free(nil)
	off := int64(0)
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		if off+r.size > int64(len(data)) {
			return nil, types.E("multiget", r.Path, fmt.Errorf("data stream short of manifest: %w", types.ErrInvalid))
		}
		r.Data = data[off : off+r.size : off+r.size]
		off += r.size
	}
	return results, nil
}

// manifest decodes a multiget's reply body into results, one per path
// asked for, and returns the length of the data stream it announces.
func manifest(body []byte, results []MultiGetResult) (int64, error) {
	n, total, err := wire.DecodeMultiGetItems(body, func(i int, it wire.MultiGetItem) {
		if i < len(results) {
			results[i] = MultiGetResult{Path: it.Path, Err: it.Err(), size: it.Size}
		}
	})
	if err == nil && n != len(results) {
		err = types.E("multiget", "", fmt.Errorf("server returned %d items for %d paths: %w", n, len(results), types.ErrInvalid))
	}
	return total, err
}

// BulkStat stats many paths in one round trip, preserving request
// order.
func (cl *Client) BulkStat(paths []string) ([]wire.BulkStatItem, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	out, err := ask[wire.BulkStatReply](cl, wire.OpBulkStat, wire.BulkStatArgs{Paths: paths})
	if err != nil {
		return nil, err
	}
	return out.Items, nil
}

// BatchPolicy decides when buffered items flush: at Count items, at
// Bytes buffered payload, or Period after the first buffered item —
// whichever triggers first. Zero fields disable that trigger; an
// all-zero policy flushes only on explicit Flush/Close.
type BatchPolicy struct {
	Count  int
	Bytes  int64
	Period time.Duration
}

// DefaultBatchPolicy flushes at 64 items, 4 MiB, or 500ms.
var DefaultBatchPolicy = BatchPolicy{Count: 64, Bytes: 4 << 20, Period: 500 * time.Millisecond}

// PutBatcher buffers BulkPut items and flushes per a BatchPolicy. Add
// and Flush are safe for concurrent use. Flush errors surface on the
// call that triggered the flush (period-triggered flush errors surface
// on the next Add/Flush/Close).
type PutBatcher struct {
	mu      sync.Mutex
	items   []BulkPut
	bytes   int64
	policy  BatchPolicy
	flushFn func([]BulkPut) ([]wire.BulkItemStatus, error)
	onFlush func([]wire.BulkItemStatus) // optional result sink (CLI reporting)
	timer   *time.Timer
	lastErr error
	flushes int
	closed  bool
	// firstAdd stamps when the oldest buffered item arrived; the gap to
	// flush start is the batch-hold latency phase.
	firstAdd time.Time
	// hold, when set, receives each flush's batch-hold duration.
	hold func(time.Duration)
}

// NewPutBatcher builds a batcher that flushes through cl.BulkPut.
func NewPutBatcher(cl *Client, policy BatchPolicy) *PutBatcher {
	b := newPutBatcher(cl.BulkPut, policy)
	b.hold = func(d time.Duration) {
		// LastTrace here is the flush's own bulkput call, so the hold
		// histogram's tail exemplars join to the flush that paid it.
		cl.phase("bulkput", obs.PhaseBatchHold, d, cl.LastTrace())
	}
	return b
}

// newPutBatcher is the injectable core (tests supply a fake flush).
func newPutBatcher(flush func([]BulkPut) ([]wire.BulkItemStatus, error), policy BatchPolicy) *PutBatcher {
	return &PutBatcher{policy: policy, flushFn: flush}
}

// OnFlush registers a sink receiving each flush's per-item statuses.
func (b *PutBatcher) OnFlush(fn func([]wire.BulkItemStatus)) {
	b.mu.Lock()
	b.onFlush = fn
	b.mu.Unlock()
}

// Flushes reports how many non-empty flushes have run.
func (b *PutBatcher) Flushes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushes
}

// Add buffers one item, flushing if the policy's count or bytes
// trigger fires. The returned error is the flush error when this Add
// triggered one (or a pending period-flush error).
func (b *PutBatcher) Add(item BulkPut) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return types.E("bulkput", item.Path, fmt.Errorf("batcher closed: %w", types.ErrInvalid))
	}
	if len(b.items) == 0 {
		b.firstAdd = time.Now()
		if b.policy.Period > 0 {
			b.timer = time.AfterFunc(b.policy.Period, b.periodFlush)
		}
	}
	b.items = append(b.items, item)
	b.bytes += int64(len(item.Data))
	due := (b.policy.Count > 0 && len(b.items) >= b.policy.Count) ||
		(b.policy.Bytes > 0 && b.bytes >= b.policy.Bytes)
	if !due {
		err := b.lastErr
		b.lastErr = nil
		b.mu.Unlock()
		return err
	}
	return b.flushLocked()
}

// Flush sends whatever is buffered now. A zero-item flush is a no-op
// (no empty round trips), but still surfaces a pending period-flush
// error.
func (b *PutBatcher) Flush() error {
	b.mu.Lock()
	if len(b.items) == 0 {
		err := b.lastErr
		b.lastErr = nil
		b.mu.Unlock()
		return err
	}
	return b.flushLocked()
}

// Close flushes the remainder and stops the period timer. The batcher
// rejects Adds afterwards.
func (b *PutBatcher) Close() error {
	b.mu.Lock()
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.items) == 0 {
		err := b.lastErr
		b.lastErr = nil
		b.mu.Unlock()
		return err
	}
	return b.flushLocked()
}

// periodFlush is the timer callback; its error parks in lastErr.
func (b *PutBatcher) periodFlush() {
	b.mu.Lock()
	if b.closed || len(b.items) == 0 {
		b.mu.Unlock()
		return
	}
	if err := b.flushLocked(); err != nil {
		b.mu.Lock()
		if b.lastErr == nil {
			b.lastErr = err
		}
		b.mu.Unlock()
	}
}

// flushLocked sends the buffer. Called with b.mu held; returns with it
// released (the network call runs outside the lock so Adds continue).
func (b *PutBatcher) flushLocked() error {
	items := b.items
	b.items = nil
	b.bytes = 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	var held time.Duration
	if len(items) > 0 && !b.firstAdd.IsZero() {
		held = time.Since(b.firstAdd)
		b.firstAdd = time.Time{}
	}
	pending := b.lastErr
	b.lastErr = nil
	flush, sink, hold := b.flushFn, b.onFlush, b.hold
	if len(items) > 0 {
		b.flushes++
	}
	b.mu.Unlock()
	if len(items) == 0 {
		return pending
	}
	results, err := flush(items)
	if hold != nil {
		hold(held)
	}
	if err == nil && sink != nil {
		sink(results)
	}
	if err == nil {
		err = pending
	}
	return err
}
