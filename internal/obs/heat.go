// The heat observatory's sketch: a bounded space-saving top-K table
// tracking the hottest catalog keys (broker dispatch, per depth-2
// routing prefix) and the hottest data objects (replica read path).
// Two decoupled measures live on each row: a monotonic observation
// count, folded into the rollup ring as heat.key.* / heat.object.*
// counters so Window/MergeWindows and the grid fan-out report heat
// rates unchanged, and a decayed score used for ranking and eviction
// so last week's hotspot cannot shadow this minute's. Persisted
// through the telemetry journal like the peer observatory.
package obs

import "time"

// DefaultHeatK is how many entries each heat table tracks. Space-saving
// guarantees any key whose true frequency exceeds 1/K of the stream is
// retained, so 64 slots comfortably cover a "top 10 hot prefixes" view
// even under adversarial churn.
const DefaultHeatK = 64

// heatDecayFloor: rows whose decayed score falls below this are dropped
// at Decay time, freeing slots instead of letting cold history pin them.
const heatDecayFloor = 0.25

// HeatStat is one heat-table row, JSON-ready for the wire HeatReply,
// the admin /heat endpoint and the telemetry journal.
type HeatStat struct {
	// Key is the tracked key: a depth-2 routing prefix ("/zone/project")
	// in the key table, a full object path in the object table.
	Key string `json:"key"`
	// Count is the observations recorded while this row was tracked
	// (monotonic; feeds the rollup counters).
	Count int64 `json:"count"`
	// Bytes is the payload volume those observations moved.
	Bytes int64 `json:"bytes,omitempty"`
	// Score is the decayed ranking weight: +1 per observation,
	// multiplied down by each Decay. Rows are ranked and evicted by it.
	Score float64 `json:"score"`
	// ErrFloor is the space-saving overestimate bound: the evicted
	// score this row inherited at insertion. True score >= Score-ErrFloor.
	ErrFloor float64   `json:"errFloor,omitempty"`
	LastSeen time.Time `json:"lastSeen,omitempty"`
}

// HeatTable is a concurrent space-saving sketch over one key space.
// Safe for concurrent use; all methods tolerate a nil receiver
// (instrumentation off).
type HeatTable table[string, HeatStat]

func (t *HeatTable) t() *table[string, HeatStat] { return (*table[string, HeatStat])(t) }

// NewHeatTable returns a table tracking at most k keys (k <= 0 selects
// DefaultHeatK).
func NewHeatTable(k int) *HeatTable {
	if k <= 0 {
		k = DefaultHeatK
	}
	return &HeatTable{m: make(map[string]*HeatStat, k), max: k}
}

// Record accounts one observation of key moving bytes. When the table
// is full the minimum-score row is evicted and the newcomer inherits
// its score as the overestimate floor — the space-saving update, which
// is what bounds memory while keeping true heavy hitters in the table.
func (t *HeatTable) Record(key string, bytes int64) {
	if t == nil || key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if row, ok := t.m[key]; ok {
		row.Count++
		row.Score++
		row.Bytes += bytes
		row.LastSeen = time.Now()
		return
	}
	if len(t.m) < t.max {
		t.m[key] = &HeatStat{Key: key, Count: 1, Bytes: bytes, Score: 1, LastSeen: time.Now()}
		return
	}
	// Full: displace the coldest row.
	var victim *HeatStat
	for _, row := range t.m {
		if victim == nil || row.Score < victim.Score {
			victim = row
		}
	}
	// The newcomer takes over the victim's row: rows are only touched
	// under t.mu, and snapshot copies them out.
	delete(t.m, victim.Key)
	*victim = HeatStat{
		Key: key, Count: 1, Bytes: bytes,
		Score: victim.Score + 1, ErrFloor: victim.Score,
		LastSeen: time.Now(),
	}
	t.m[key] = victim
}

// Decay multiplies every score by factor (clamped to [0,1)), dropping
// rows that fall below the retention floor. A periodic job drives it so
// ranking follows current load, not lifetime totals.
func (t *HeatTable) Decay(factor float64) {
	if t == nil {
		return
	}
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		factor = 0.99
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, row := range t.m {
		row.Score *= factor
		row.ErrFloor *= factor
		if row.Score < heatDecayFloor {
			delete(t.m, key)
		}
	}
}

// Snapshot returns every row, hottest first (score descending, ties by
// key for deterministic output).
func (t *HeatTable) Snapshot() []HeatStat {
	return t.t().snapshot(func(a, b *HeatStat) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Key < b.Key
	})
}

// Restore refills the table from persisted rows (telemetry boot
// replay). Snapshot order is hottest-first, so restoring a snapshot
// into a smaller table keeps the hottest rows.
func (t *HeatTable) Restore(rows []HeatStat) {
	t.t().restore(rows, func(st *HeatStat) (string, bool) { return st.Key, st.Key != "" })
}

// foldCounters merges each row's monotonic count into dst under prefix
// — the hook Snapshot/CaptureRollup/WindowAt use to make heat ride the
// existing rollup ring.
func (t *HeatTable) foldCounters(dst map[string]int64, prefix string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, row := range t.m {
		dst[prefix+key] = row.Count
	}
}

// HeatKeys returns the registry's hot-key table (depth-2 routing
// prefixes, fed from the broker dispatch path).
func (r *Registry) HeatKeys() *HeatTable {
	if r == nil {
		return nil
	}
	return r.heatKeys
}

// HeatObjects returns the registry's hot-object table (full object
// paths, fed from the replica read path).
func (r *Registry) HeatObjects() *HeatTable {
	if r == nil {
		return nil
	}
	return r.heatObjects
}

// foldHeat merges both heat tables' counts into a counter map.
func (r *Registry) foldHeat(dst map[string]int64) {
	if r == nil {
		return
	}
	r.heatKeys.foldCounters(dst, "heat.key.")
	r.heatObjects.foldCounters(dst, "heat.object.")
}
