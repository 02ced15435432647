// The shard heat join: observed key heat folded onto ring ownership, and
// the imbalance it shows. Nothing here moves data — an operator reads the
// join via `srb heat`, the admin /heat endpoint or the MySRB heat page to
// judge whether the partitioning is still good, and a live shard move
// would start from it.
package shard

import "gosrb/internal/obs"

// ShardHeat is one shard's standing in the heat join.
type ShardHeat struct {
	Shard   int     `json:"shard"`
	Score   float64 `json:"score"`   // summed heat of tracked keys homed here
	HotKeys int     `json:"hotKeys"` // tracked hot keys homed here
	Objects int     `json:"objects"` // catalog objects (key-count balance)
}

// HeatJoin folds the hot-key table rows (obs.Registry.HeatKeys().
// Snapshot()) onto the shards that own them and returns the per-shard
// rows with their imbalance: hottest shard heat over mean shard heat, so
// 1.0 is perfectly even and 0 means no heat observed. Only rows that are
// well-formed routing prefixes take part; spine rows (depth < 2 scopes
// fed by broad queries) are broadcast state and belong to no one shard.
// The imbalance is also exported, in percent, as the
// mcat.shard.heat_imbalance_pct gauge.
func (r *Router) HeatJoin(rows []obs.HeatStat) ([]ShardHeat, float64) {
	shards := make([]ShardHeat, r.n)
	for i := range shards {
		shards[i] = ShardHeat{Shard: i, Objects: r.shards[i].cat.Stats().Objects}
	}
	var sum, hottest float64
	for _, row := range rows {
		if Spine(row.Key) || KeyOf(row.Key) != row.Key {
			continue
		}
		sh := &shards[r.m.Shard(row.Key)]
		sh.Score += row.Score
		sh.HotKeys++
		sum += row.Score
		if sh.Score > hottest {
			hottest = sh.Score
		}
	}
	imbalance := 0.0
	if sum > 0 {
		imbalance = hottest / (sum / float64(r.n))
	}
	if r.heatImbalance != nil {
		r.heatImbalance.Set(int64(imbalance * 100))
	}
	return shards, imbalance
}
