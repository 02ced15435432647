package mcat

import (
	"strings"
	"testing"
	"time"

	"gosrb/internal/types"
)

// like is LIKE as a query sees it: the pattern folded once, then matched.
func like(s, pattern string) bool { return types.LikeFolded(s, strings.ToLower(pattern)) }

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"ABC", "abc", true},
		{"abc", "ABC", true},
		{"JAZZ az", "jazz AZ", true},
		{"[`@{", "[`@{", true}, // the neighbours of A-Z and a-z do not fold
		{"@", "`", false},
		{"abc", "a_c", true},
		{"abc", "a_", false},
		{"abc", "%", true},
		{"abc", "%%c", true},
		{"abc", "a%", true},
		{"abc", "%b%", true},
		{"abc", "%d%", false},
		{"abc", "abc%", true},
		{"abc", "abcd", false},
		{"abcabc", "%abc", true},
		{"abcabd", "%abc", false},
		{"50%", "50_", true},
		{"mississippi", "m%iss%pi", true},
		{"mississippi", "m%iss%pp", false},
		{"CAFÉ au lait", "café%", true}, // case outside ASCII folds as strings.ToLower does
		{"é", "_", false},               // _ is one byte
		{"é", "__", true},
	}
	for _, c := range cases {
		if got := like(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
		if got := OracleLikeMatch(c.s, c.p); got != c.want {
			t.Errorf("oracle like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// A pattern with many % groups must not cost more than len(s)·len(p):
// the match runs under the catalog's read lock, so a matcher that
// retries every earlier % (×4.5 per extra group, 1.9 s at nine groups
// and forty bytes) lets one hostile query stall every writer of the
// shard.
func TestLikeManyWildcardsIsBounded(t *testing.T) {
	pattern := strings.Repeat("%a", 12) + "%b"
	value := strings.Repeat("a", 4096)
	start := time.Now()
	if like(value, pattern) {
		t.Fatal("matched a value with no b")
	}
	if !like(value+"b", pattern) {
		t.Fatal("did not match the value with a trailing b")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("12 %%-groups against 4 KiB took %v, want < 50ms", d)
	}
}

func TestLikeASCIIValueDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { like("Andromeda Galaxy M31", "%galaxy%") }); n != 0 {
		t.Errorf("like allocated %v times per call, want 0", n)
	}
}

// FuzzLikeMatch holds the iterative matcher to the recursive one it
// replaced. The recursive matcher is exponential in the number of %
// groups, so inputs stay short.
func FuzzLikeMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"abc", "a%c"}, {"abc", "_b_"}, {"ABC", "%b%"}, {"a%c", "a%%c"},
		{"mississippi", "%s%s%p_"}, {"aaaa", "%a%a%b"}, {"İstanbul", "i%"}, {"K", "k"},
		{"\xff\xfe", "_"}, {"straße", "STRASSE"}, {"x", "%_%"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 24 || len(p) > 12 {
			t.Skip()
		}
		if got, want := like(s, p), OracleLikeMatch(s, p); got != want {
			t.Fatalf("like(%q, %q) = %v, recursive matcher says %v", s, p, got, want)
		}
	})
}
