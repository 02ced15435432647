// Batch operations. One OpBulkPut / OpMultiGet / OpBulkStat round trip
// moves many small objects, which is what makes high-latency links
// survivable.
package client

import (
	"fmt"

	"gosrb/internal/chunk"
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
