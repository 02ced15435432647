package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCompactingLogCrashRule is the generation rule, once for every store
// on it: each case leaves a snapshot and a journal as a crash (or an
// older binary) would, and a boot that replays the snapshot and resumes
// the journal holds every line once.
func TestCompactingLogCrashRule(t *testing.T) {
	mustOpen := func(t *testing.T, path string) *Journal {
		t.Helper()
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	appendAll := func(t *testing.T, j *Journal, lines ...string) {
		t.Helper()
		for _, l := range lines {
			if err := j.Append([]byte(l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// snapshot writes a snapshot of lines under the head naming gen, as
	// the telemetry store writes one.
	snapshot := func(lines ...string) func(io.Writer, uint64) error {
		return func(w io.Writer, gen uint64) error {
			b := AppendHead(nil, gen)
			for _, l := range lines {
				b = append(append(b, l...), '\n')
			}
			_, err := w.Write(b)
			return err
		}
	}
	// fresh opens a new file journal, which takes a generation at boot.
	fresh := func(t *testing.T, jp string) *Journal {
		t.Helper()
		j := mustOpen(t, jp)
		if err := j.Resume(0, func(io.Reader) error { return errors.New("an empty journal replayed") }); err != nil {
			t.Fatal(err)
		}
		return j
	}

	var oldPos Pos // the memory case's position in its first generation
	for _, c := range []struct {
		name string
		// crash leaves the store's files in dir (snap, jp) and returns the
		// journal to boot on: jp reopened, or a memory journal.
		crash    func(t *testing.T, snap, jp string) *Journal
		state    []string // the snapshot's lines, then the journal's replayed
		skipped  int
		replayed bool // the journal was replayed, not emptied as covered
		after    func(t *testing.T, j *Journal)
	}{{
		name: "cut after the publish, before the journal is emptied",
		crash: func(t *testing.T, snap, jp string) *Journal {
			j := fresh(t, jp)
			appendAll(t, j, `{"n":1}`, `{"n":2}`)
			cut, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Compact(snap, snapshot(`{"n":1}`, `{"n":2}`)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			if err := os.WriteFile(jp, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			return mustOpen(t, jp)
		},
		state: []string{`{"n":1}`, `{"n":2}`},
	}, {
		name: "cut before the publish",
		crash: func(t *testing.T, snap, jp string) *Journal {
			j := fresh(t, jp)
			appendAll(t, j, `{"n":1}`)
			if err := j.Compact(snap, snapshot(`{"n":1}`)); err != nil {
				t.Fatal(err)
			}
			appendAll(t, j, `{"n":2}`, `{"n":3}`)
			cut := errors.New("killed mid-write")
			if err := j.Compact(snap, func(w io.Writer, _ uint64) error { return cut }); !errors.Is(err, cut) {
				t.Fatalf("Compact = %v, want the cut write's error", err)
			}
			j.Close()
			return mustOpen(t, jp)
		},
		state:    []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		replayed: true,
	}, {
		name: "a torn last line",
		crash: func(t *testing.T, snap, jp string) *Journal {
			j := fresh(t, jp)
			appendAll(t, j, `{"n":1}`, `{"n":2}`)
			j.Close()
			f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(`{"n":`)
			f.Close()
			return mustOpen(t, jp)
		},
		state:    []string{`{"n":1}`, `{"n":2}`},
		skipped:  1,
		replayed: true,
	}, {
		name: "a memory journal past its bound",
		crash: func(t *testing.T, snap, jp string) *Journal {
			j := NewMemJournal(64)
			oldPos = j.Pos()
			for j.Pos().Gen == oldPos.Gen {
				appendAll(t, j, `{"n":1}`)
			}
			return j
		},
		state:    []string{`{"n":1}`}, // the line that overflowed the bound
		replayed: true,
		after: func(t *testing.T, j *Journal) {
			if res, ok := j.Read(oldPos, 1<<20); ok {
				t.Errorf("a position in the bound's old generation read %d lines", len(res.Entries))
			}
			pos := j.Pos()
			head := int64(len(AppendHead(nil, pos.Gen)))
			if res, ok := j.Read(Pos{pos.Gen, head}, 1<<20); !ok || len(res.Entries) != 1 || res.Pos != pos {
				t.Errorf("the new generation read %d lines to %+v (ok %v), want the one that overflowed it to %+v", len(res.Entries), res.Pos, ok, pos)
			}
		},
	}, {
		name: "a journal with no head",
		crash: func(t *testing.T, snap, jp string) *Journal {
			if err := os.WriteFile(jp, []byte("{\"n\":1}\n{\"n\":2}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return mustOpen(t, jp)
		},
		state:    []string{`{"n":1}`, `{"n":2}`},
		replayed: true,
	}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			snap, jp := filepath.Join(dir, "snapshot"), filepath.Join(dir, "journal")
			j := c.crash(t, snap, jp)
			defer j.Close()

			var state []string
			apply := func(line []byte) bool {
				if !json.Valid(line) {
					return false
				}
				state = append(state, string(line))
				return true
			}
			var gen uint64
			if b, err := os.ReadFile(snap); err == nil {
				first, _, _ := bytes.Cut(b, []byte{'\n'})
				var ok bool
				if gen, ok = ReadHead(first); !ok {
					t.Fatalf("snapshot head %q names no generation", first)
				}
				if _, err := Replay(bytes.NewReader(b), apply); err != nil {
					t.Fatal(err)
				}
			}
			before := j.Pos()
			replayed, skipped := false, 0
			err := j.Resume(gen, func(r io.Reader) (err error) {
				replayed = true
				skipped, err = Replay(r, apply)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(state) != fmt.Sprint(c.state) || skipped != c.skipped {
				t.Errorf("booted to %q, %d skipped; want %q, %d skipped", state, skipped, c.state, c.skipped)
			}
			if replayed != c.replayed {
				t.Errorf("journal replayed: %v, want %v", replayed, c.replayed)
			}
			switch pos := j.Pos(); {
			case c.replayed && pos != before:
				t.Errorf("a replayed journal moved from %+v to %+v", before, pos)
			case !c.replayed && pos != (Pos{gen, int64(len(AppendHead(nil, gen)))}):
				t.Errorf("a covered journal is at %+v, want emptied under the snapshot's generation %d", pos, gen)
			}
			if c.after != nil {
				c.after(t, j)
			}
		})
	}
}
