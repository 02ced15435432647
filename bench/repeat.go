package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (bf benchmarkFile, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// child runs one workload in a fresh process of this binary and
// returns its result line. The report goes to w.
func child(cfg config, workload string, seed int64, w *os.File) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-scale", fmt.Sprint(cfg.scale), "-trace", trace, "-dir", cfg.dir, "-timings")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && w != nil {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", workload, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload, one fresh process each. With repeat > 0
// it is the repeatability mode: sets x repeat runs per workload, the
// sets alternating (A B A B ...) so slow drift of the host lands on
// both, each run with another seed as the driver does.
func runAll(cfg config, repeat, sets int) int {
	if repeat <= 0 {
		code := 0
		for _, w := range workloads {
			res, err := child(cfg, w.name, cfg.seed, os.Stdout)
			if err != nil || !res.Correct {
				fmt.Fprintln(os.Stderr, "bench:", w.name, "failed:", err)
				code = 1
			}
		}
		return code
	}
	if sets < 1 {
		sets = 1
	}
	// The bounds the spreads are printed beside; the benchmark runs from
	// the root of the repository.
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bounds := make(map[string]float64)
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	var table strings.Builder
	fmt.Fprintf(&table, "| workload | metric | median | q1 | q3 | IQR/median | (max-min)/median | set drift | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range workloads {
		// vals[set][metric] = one value per run.
		vals := make([]map[string][]float64, sets)
		for s := range vals {
			vals[s] = make(map[string][]float64)
		}
		for i := 0; i < repeat*sets; i++ {
			res, err := child(cfg, w.name, cfg.seed+int64(i), nil)
			if err != nil || !res.Correct {
				fmt.Fprintln(os.Stderr, "bench:", w.name, "failed:", err)
				return 1
			}
			for name, v := range res.Metrics {
				vals[i%sets][name] = append(vals[i%sets][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", w.name, i+1, repeat*sets)
		}
		for _, name := range sortedKeys(vals[0]) {
			var all []float64
			for s := range vals {
				all = append(all, vals[s][name]...)
			}
			sort.Float64s(all)
			med := median(all)
			q1, q3 := quartiles(all)
			drift := 0.0
			if sets > 1 && median(vals[0][name]) != 0 {
				a, b := median(vals[0][name]), median(vals[1][name])
				drift = (b - a) / a
				if drift < 0 {
					drift = -drift
				}
			}
			rel := func(x float64) float64 {
				if med == 0 {
					return 0
				}
				return x / med
			}
			bound, gated := bounds[name]
			mark := ""
			if gated && name != "setup_s" && rel(q3-q1) > bound/3 {
				mark = " (spread above a third of the bound)"
			}
			if gated && drift > bound/2 {
				mark += " (set drift above half the bound)"
				code = 1
			}
			bs := "-"
			if gated {
				bs = fmt.Sprintf("%.0f%%", 100*bound)
			}
			fmt.Fprintf(&table, "| %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.2f%% | %s%s |\n",
				w.name, name, med, q1, q3, 100*rel(q3-q1), 100*rel(all[len(all)-1]-all[0]), 100*drift, bs, mark)
		}
	}
	fmt.Print(table.String())
	path := filepath.Join(cfg.dir, "repeat.md")
	if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "table written to", path)
	return code
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method),
// which is what the driver computes. xs must be sorted.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}

// sortedKeys returns the metric names of m in order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
