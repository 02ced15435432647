// The peer transfer observatory: a bounded per-peer / per-resource
// transfer-history table fed by the federation chokepoint (every peer
// round trip), the replica read path (every driver read) and the
// client. Rows keep EWMA latency and bandwidth, lifetime success rate
// and the same pow2 latency histogram the op metrics use, so the table
// is directly comparable with windowed op stats — and is the ranked
// input a cost-model replica selector needs (Replica Selection in the
// Globus Data Grid estimates transfer cost exactly from this kind of
// observed history). Persisted through the telemetry journal.
package obs

import "time"

// ewmaAlpha weights the newest observation in the moving averages: high
// enough to follow a regime change within a handful of transfers, low
// enough that one outlier does not rewrite history.
const ewmaAlpha = 0.2

// maxPeerRows bounds the table so adversarial resource churn cannot
// grow it without limit; once full, new keys are dropped.
const maxPeerRows = 256

// PeerStat is one observatory row: either a federated peer (Peer set)
// or a local storage resource (Resource set). JSON-ready for the wire
// PeersReply, the admin /peers endpoint and the telemetry journal.
type PeerStat struct {
	Peer     string `json:",omitempty"`
	Resource string `json:",omitempty"`
	Ops      int64
	Errors   int64
	Bytes    int64
	// EWMALatMicros is the exponentially weighted moving average of
	// observed call latency.
	EWMALatMicros float64
	// EWMABytesPerSec is the EWMA of observed throughput, computed only
	// from calls that actually moved bytes.
	EWMABytesPerSec float64
	// SuccessPct is lifetime (Ops-Errors)/Ops, where an error means a
	// transport-level failure — an application error proves the target
	// alive and counts as success.
	SuccessPct float64
	LastSeen   time.Time
	Buckets    []BucketCount `json:",omitempty"`
	// counts is the latency histogram of a row in the table: Record
	// fills it, Snapshot folds it into Buckets, Restore unfolds them.
	counts [histBuckets]int64
}

// peerKey identifies one observatory row.
type peerKey struct {
	peer     string
	resource string
}

// PeerHistory is the observatory table. Safe for concurrent use; all
// methods tolerate a nil receiver (instrumentation off).
type PeerHistory table[peerKey, PeerStat]

func (p *PeerHistory) t() *table[peerKey, PeerStat] { return (*table[peerKey, PeerStat])(p) }

// NewPeerHistory returns an empty table.
func NewPeerHistory() *PeerHistory {
	return &PeerHistory{m: make(map[peerKey]*PeerStat), max: maxPeerRows}
}

// Record accounts one transfer against (peer, resource): latency d,
// bytes moved (0 = a control round trip), and whether it failed at the
// transport level.
func (p *PeerHistory) Record(peer, resource string, d time.Duration, bytes int64, failed bool) {
	if p == nil || (peer == "" && resource == "") {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := peerKey{peer: peer, resource: resource}
	st, ok := p.m[key]
	if !ok {
		if len(p.m) >= p.max {
			return
		}
		st = &PeerStat{Peer: peer, Resource: resource}
		p.m[key] = st
	}
	st.Ops++
	if failed {
		st.Errors++
	}
	st.Bytes += bytes
	st.LastSeen = time.Now()
	lat := float64(d.Microseconds())
	if st.EWMALatMicros == 0 {
		st.EWMALatMicros = lat
	} else {
		st.EWMALatMicros += ewmaAlpha * (lat - st.EWMALatMicros)
	}
	if bytes > 0 && d > 0 {
		bps := float64(bytes) / d.Seconds()
		if st.EWMABytesPerSec == 0 {
			st.EWMABytesPerSec = bps
		} else {
			st.EWMABytesPerSec += ewmaAlpha * (bps - st.EWMABytesPerSec)
		}
	}
	st.counts[bucketOf(d)]++
}

// Snapshot returns every row, success rate computed and histogram
// folded to non-empty buckets, sorted peers first then resources.
func (p *PeerHistory) Snapshot() []PeerStat {
	out := p.t().snapshot(func(a, b *PeerStat) bool {
		if (a.Peer == "") != (b.Peer == "") {
			return a.Peer != ""
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Resource < b.Resource
	})
	for i := range out {
		st := &out[i]
		if st.Ops > 0 {
			st.SuccessPct = 100 * float64(st.Ops-st.Errors) / float64(st.Ops)
		}
		st.Buckets, st.counts = foldBuckets(&st.counts), [histBuckets]int64{}
	}
	return out
}

// Restore refills the table from persisted rows (telemetry boot
// replay), re-expanding the folded histograms.
func (p *PeerHistory) Restore(rows []PeerStat) {
	p.t().restore(rows, func(st *PeerStat) (peerKey, bool) {
		addBuckets(&st.counts, st.Buckets)
		st.Buckets = nil
		return peerKey{peer: st.Peer, resource: st.Resource}, st.Peer != "" || st.Resource != ""
	})
}

// Peers returns the registry's transfer observatory table.
func (r *Registry) Peers() *PeerHistory {
	if r == nil {
		return nil
	}
	return r.peers
}
