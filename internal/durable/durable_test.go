package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// noTemps fails t if dir holds a file Create staged.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			t.Errorf("temp file %s left in %s", e.Name(), dir)
		}
	}
}

func TestReplacePublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, want := range []string{"one", "two"} {
		err := Replace(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(path); string(b) != want {
			t.Fatalf("contents = %q, want %q", b, want)
		}
	}
	noTemps(t, dir)
}

// TestReplaceKeepsOld: a write error, an Abort and a failed Commit each
// leave the destination as it was and no temp file behind.
func TestReplaceKeepsOld(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		run  func(path string) error
	}{
		{"write error", func(path string) error {
			return Replace(path, func(w io.Writer) error {
				io.WriteString(w, "partial")
				return boom
			})
		}},
		{"abort", func(path string) error {
			f, err := Create(path)
			if err != nil {
				return err
			}
			f.Write([]byte("partial"))
			if err := f.Abort(); err != nil {
				return err
			}
			if err := f.Commit(); err != nil {
				return err
			}
			return boom
		}},
		{"failed commit", func(path string) error {
			// A rename onto a non-empty directory fails.
			if err := os.Remove(path); err != nil {
				return err
			}
			if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
				return err
			}
			return Replace(path, func(w io.Writer) error {
				_, err := io.WriteString(w, "new")
				return err
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.run(path); err == nil {
				t.Fatal("want an error")
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.IsDir() {
				if _, err := os.Stat(filepath.Join(path, "child")); err != nil {
					t.Errorf("directory lost its child: %v", err)
				}
			} else if b, _ := os.ReadFile(path); string(b) != "old" {
				t.Errorf("contents = %q, want the old ones", b)
			}
			noTemps(t, dir)
		})
	}
}

func TestReplay(t *testing.T) {
	mib := strings.Repeat("x", 1<<20)
	in := "a\n\n\nb\n" + mib + "\n\ntorn"
	var got []string
	skipped, err := Replay(strings.NewReader(in), func(line []byte) bool {
		got = append(got, string(line))
		return string(line) != "torn"
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", mib, "torn"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lines = %.40q, want %.40q", got, want)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the torn line)", skipped)
	}

	long := "a\n" + strings.Repeat("x", 16<<20+1) + "\n"
	n := 0
	_, err = Replay(strings.NewReader(long), func([]byte) bool { n++; return true })
	if !errors.Is(err, bufio.ErrTooLong) || n != 1 {
		t.Errorf("over-long line: err = %v after %d lines, want ErrTooLong after 1", err, n)
	}
}

func TestLogAppend(t *testing.T) {
	var buf bytes.Buffer
	l := NewJournal(&buf)
	for _, line := range []string{"a", "b\n", ""} {
		if err := l.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != "a\nb\n\n" {
		t.Errorf("log = %q, want every line newline-terminated", buf.String())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestLogFile drives a file journal through a reopen, an emptying and a
// reopen that fails.
func TestLogFile(t *testing.T) {
	final := filepath.Join(t.TempDir(), "log")
	l, err := OpenJournal(final)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("a"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = OpenJournal(final); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("b"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(final); string(b) != "a\nb\n" {
		t.Fatalf("reopened log = %q", b)
	}
	if err := l.empty(0); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("c"))
	if b, _ := os.ReadFile(final); string(b) != "c\n" {
		t.Fatalf("truncated log = %q", b)
	}

	// A directory where the file was: the reopen fails, and so does
	// every later Append.
	os.Remove(final)
	if err := os.MkdirAll(filepath.Join(final, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.empty(0); err == nil {
		t.Fatal("emptying over a directory succeeded")
	}
	if err := l.Append([]byte("d")); err == nil {
		t.Error("Append after a failed reopen succeeded")
	}
	if err := l.Close(); err != nil {
		t.Errorf("Close after a failed reopen = %v", err)
	}
}

// TestLogTornTail: a log reopened over a file a kill cut mid-line keeps
// the fragment, and the next line starts a line of its own, so replay
// skips the fragment alone and keeps the line.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("one\ntw"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"three", "four"} {
		if err := l.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "one\ntw\nthree\nfour\n" {
		t.Errorf("log = %q, want the fragment kept and every appended line whole", b)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kept []string
	skipped, err := Replay(f, func(line []byte) bool {
		if string(line) == "tw" {
			return false
		}
		kept = append(kept, string(line))
		return true
	})
	if err != nil || skipped != 1 || !slices.Equal(kept, []string{"one", "three", "four"}) {
		t.Errorf("replay kept %q, skipped %d, err %v", kept, skipped, err)
	}

	// A log that ends with its newline gains no blank line.
	if l, err = OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("five"))
	l.Close()
	if b, _ := os.ReadFile(path); string(b) != "one\ntw\nthree\nfour\nfive\n" {
		t.Errorf("log = %q after a clean reopen", b)
	}
}

// TestLogConcurrentAppends: lines appended from many goroutines land
// whole, each as one line.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	skipped, err := Replay(f, func(line []byte) bool {
		var w, i int
		if _, err := fmt.Sscanf(string(line), "%d-%d", &w, &i); err != nil || seen[string(line)] {
			return false
		}
		seen[string(line)] = true
		return true
	})
	if err != nil || skipped != 0 || len(seen) != writers*each {
		t.Errorf("replayed %d distinct lines, skipped %d, err %v; want %d, 0, nil", len(seen), skipped, err, writers*each)
	}
}
