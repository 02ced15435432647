package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// fingerprint hashes a plan's op sequence: class, path and payload key
// of every op of every client, in order.
func (p *plan) fingerprint() uint64 {
	h := fnv.New64a()
	for _, cp := range p.clients {
		for _, ops := range [][]op{cp.warm, cp.ops} {
			for i := range ops {
				o := &ops[i]
				fmt.Fprintf(h, "%d|%s|%d|%v|%v;", o.kind, o.path, o.key, o.paths, o.query)
			}
		}
	}
	return h.Sum64()
}

// TestSmoke runs all four workloads and their traced passes at 1 % of
// the benchmark's size and checks what BENCHMARK.json promises: every
// metric it names is emitted once, finite, under the stated unit.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		w := workloads[i]
		if bw.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the harness", i, bw.Name, w.name)
		}
		cfg := config{workload: w.name, seed: 1, seconds: bf.RunSeconds, scale: 0.01, dir: t.TempDir()}
		e2e, err := runOne(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		cfg.trace = true
		traced, err := runOne(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if _, err := os.Stat(cfg.dir + "/" + w.name + ".spans.jsonl"); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
		for _, res := range []*result{e2e, traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
			}
		}
		check := func(res *result, name, unit string) {
			t.Helper()
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is outside the contract", name)
			}
			v, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", w.name, name)
			case v.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, v.Unit, unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: metric %s = %v", w.name, name, v.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			check(e2e, e.Name, e.Unit)
			if e2e.Metrics[e.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, e.Name, e2e.Metrics[e.Name].Value)
			}
		}
		for _, l := range bf.PerLayer {
			check(traced, l.Name, l.Unit)
		}
		if len(e2e.Metrics) != len(bf.EndToEnd) || len(traced.Metrics) != len(bf.PerLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
				w.name, len(e2e.Metrics), len(traced.Metrics), len(bf.EndToEnd), len(bf.PerLayer))
		}

		// One seed, one op sequence; another seed, another.
		a, b, c := newPlan(w, 1, bf.RunSeconds, 0.01), newPlan(w, 1, bf.RunSeconds, 0.01), newPlan(w, 2, bf.RunSeconds, 0.01)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 1 gave two different op sequences", w.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w.name)
		}
		// The same seed journals the same mutations. Entries carry
		// RFC 3339 timestamps, which drop trailing zeros, so two runs
		// agree to a few bytes in a thousand, not to the byte; another
		// op sequence would differ by far more than the 2 % allowed.
		again, err := runOne(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced again: %v", w.name, err)
		}
		const jm = "mcat.journal.bytes_per_mutation"
		x, y := traced.Metrics[jm].Value, again.Metrics[jm].Value
		if x <= 0 || math.Abs(x-y)/x > 0.02 {
			t.Errorf("%s: %s = %v then %v with one seed", w.name, jm, x, y)
		}
	}
}
