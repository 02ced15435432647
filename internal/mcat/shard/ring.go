package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"

	"gosrb/internal/durable"
	"gosrb/internal/types"
)

// DefaultVNodes is the number of virtual points each shard places on
// the ring. More points smooth the key distribution and shrink the
// fraction of keys that move when a shard is added.
const DefaultVNodes = 64

// KeyOf returns the routing key of a logical path: its first two
// components ("/zone/project"), or the whole path when it is that
// shallow. Every path below one depth-2 collection shares a key, so a
// subtree and all its ancestors' per-path state below the spine land on
// one shard.
func KeyOf(path string) string {
	p := types.CleanPath(path)
	// The key ends at the third slash; it is a prefix of p, not a copy.
	end := 0
	for n := 0; n < 2; n++ {
		i := strings.IndexByte(p[end+1:], '/')
		if i < 0 {
			return p
		}
		end += 1 + i
	}
	return p[:end]
}

// Spine reports whether path belongs to the broadcast tier: the root
// or a depth-1 collection. Spine collections, like users and
// resources, are mirrored on every shard so each shard can walk
// ancestors locally.
func Spine(path string) bool {
	return types.Depth(path) <= 1
}

// Map assigns routing keys to shards by consistent hashing: each shard
// projects VNodes points onto a 64-bit ring and a key belongs to the
// first point at or after its own hash. The placement is a pure
// function of (Shards, VNodes), so persisting those two numbers pins
// the whole assignment across restarts.
type Map struct {
	Shards int
	VNodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewMap builds the ring for n shards. vnodes <= 0 selects
// DefaultVNodes.
func NewMap(n, vnodes int) *Map {
	if n < 1 {
		n = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	m := &Map{Shards: n, VNodes: vnodes}
	m.points = make([]ringPoint, 0, n*vnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			m.points = append(m.points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(m.points, func(i, j int) bool { return m.points[i].hash < m.points[j].hash })
	return m
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// splitmix64 finalizer: FNV's avalanche on short, similar strings
	// (vnode labels, sibling paths) is weak in exactly the high bits
	// that dominate ring ordering, which skews shard ownership badly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shard returns the shard owning a routing key.
func (m *Map) Shard(key string) int {
	if m.Shards <= 1 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= h })
	if i == len(m.points) {
		i = 0
	}
	return m.points[i].shard
}

// ShardOfPath returns the shard owning a logical path.
func (m *Map) ShardOfPath(path string) int {
	return m.Shard(KeyOf(path))
}

// mapFile is the journaled form of the shard map. The ring itself is
// derived deterministically from the two counts.
type mapFile struct {
	Version int
	Shards  int
	VNodes  int
}

const mapVersion = 1

// SaveFile journals the shard map so a restart reproduces the exact
// key assignment.
func (m *Map) SaveFile(path string) error {
	return types.E("shardmap", path, durable.Replace(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(mapFile{Version: mapVersion, Shards: m.Shards, VNodes: m.VNodes})
	}))
}

// LoadMapFile restores a journaled shard map. A missing file returns
// (nil, nil) so callers can fall back to a fresh map.
func LoadMapFile(path string) (*Map, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, types.E("shardmap", path, err)
	}
	var f mapFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, types.E("shardmap", path, err)
	}
	if f.Version != mapVersion || f.Shards < 1 {
		return nil, types.E("shardmap", path, types.ErrInvalid)
	}
	return NewMap(f.Shards, f.VNodes), nil
}
