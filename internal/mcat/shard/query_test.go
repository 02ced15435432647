package shard

import (
	"reflect"
	"testing"

	"gosrb/internal/mcat"
)

func TestMergeHits(t *testing.T) {
	hits := func(paths ...string) []mcat.Hit {
		var out []mcat.Hit
		for _, p := range paths {
			out = append(out, mcat.Hit{Path: p})
		}
		return out
	}
	fromShard := func(i int, p string) mcat.Hit {
		return mcat.Hit{Path: p, Values: [][]string{{string(rune('0' + i))}}}
	}
	cases := []struct {
		name  string
		lists [][]mcat.Hit
		limit int
		want  []mcat.Hit
	}{
		{"nothing answered", [][]mcat.Hit{nil, nil}, 0, []mcat.Hit{}},
		{"interleaved", [][]mcat.Hit{hits("/a", "/d"), nil, hits("/b", "/c", "/e")}, 0, hits("/a", "/b", "/c", "/d", "/e")},
		{"cut at limit", [][]mcat.Hit{hits("/a", "/d"), hits("/b", "/c")}, 3, hits("/a", "/b", "/c")},
		{"limit above total", [][]mcat.Hit{hits("/b"), hits("/a")}, 10, hits("/a", "/b")},
		// An object mid-migration is on two shards: one hit, the lower shard's.
		{"duplicate path", [][]mcat.Hit{
			{fromShard(0, "/a"), fromShard(0, "/m")},
			{fromShard(1, "/m"), fromShard(1, "/z")},
		}, 0, []mcat.Hit{fromShard(0, "/a"), fromShard(0, "/m"), fromShard(1, "/z")}},
		{"duplicate does not use up the limit", [][]mcat.Hit{hits("/a", "/b"), hits("/a", "/c")}, 3, hits("/a", "/b", "/c")},
	}
	for _, c := range cases {
		if got := mergeHits(c.lists, c.limit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}
