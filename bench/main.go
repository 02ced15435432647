// Command bench is gosrb's end-to-end benchmark: it boots the real
// stack in one process (client -> TCP loopback -> wire -> server ->
// core.Broker -> replica -> mcat / mcat/shard journaled to file ->
// storage), drives one named workload with a seeded, fixed-count op
// sequence, checks every reply against an oracle and prints every
// metric by name with its unit. With -trace 1 the same inputs run
// under decorators at the layer boundaries and a direct-call ladder,
// which give the per-layer metrics. See README.md in this directory.
//
//	go run ./bench -workload small_mix            # ten end-to-end metrics
//	go run ./bench -workload small_mix -trace 1   # per-layer metrics + spans
//	go run ./bench -all                           # every workload, one process each
//	go run ./bench -all -repeat 5 -sets 2         # repeatability table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	timings  bool
	scale    float64
	dir      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics BENCHMARK.json bounds: the ones that repeat
// from run to run on a shared host. They make up the result line of an
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "allocs/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"peak_rss_mb", "MiB"},
}

// timings are measured by the same untraced run and printed with the
// others. They follow the host's speed, which on a shared box changes
// by a fifth for minutes at a time, so no bound can be held on them:
// they enter the result line only with -timings, and a traced run
// reports their one-client counterparts (client.*) per layer.
var timings = []metricDef{
	{"ops_per_s", "ops/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"write_p50_us", "us"},
	{"write_p95_us", "us"},
	{"cpu_us_per_op", "us/op"},
}

func main() {
	var cfg config
	var trace, repeat, sets int
	var all bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: small_mix, bulk_data, catalog_heavy or wan_fed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the op sequence, keys and payloads")
	flag.IntVar(&cfg.seconds, "seconds", 12, "budget that fixes the op count (ops = workload rate x seconds); the phase lasts about this long on the reference box")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies op counts and preload sizes (the smoke test uses 0.01)")
	flag.StringVar(&cfg.dir, "dir", filepath.Join("bench", "out"), "directory for catalog files, vaults and spans; a tmpfs removes the sandbox's disk noise")
	flag.BoolVar(&cfg.timings, "timings", false, "put the six timing metrics in the result line too (the repeatability table does)")
	flag.BoolVar(&all, "all", false, "run every workload, each in a fresh process")
	flag.IntVar(&repeat, "repeat", 0, "with -all: runs per set in repeatability mode")
	flag.IntVar(&sets, "sets", 2, "with -all -repeat: alternating sets to compare")
	flag.Parse()
	cfg.trace = trace != 0

	if all {
		os.Exit(runAll(cfg, repeat, sets))
	}
	res, err := runOne(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// stamp describes the build and host a number was measured on.
func stamp(dir string) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				commit = s.Value[:7]
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d fs=%s", commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fsType(dir))
}

// runOne runs one workload in this process and writes the
// human-readable report to out.
func runOne(cfg config, out io.Writer) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want small_mix, bulk_data, catalog_heavy or wan_fed)", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.dir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	p := newPlan(w, cfg.seed, cfg.seconds, cfg.scale)
	fmt.Fprintf(out, "# gosrb bench workload=%s seed=%d seconds=%d scale=%g trace=%v %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.scale, cfg.trace, stamp(runDir))
	if cfg.trace {
		return runTraced(cfg, p, runDir, out)
	}

	var setups []float64
	timedSetup := func() (*rig, error) {
		start := time.Now()
		r, err := setup(p, filepath.Join(runDir, fmt.Sprint("rig", len(setups))), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return r, nil
	}
	// The first rig carries the measured phase, so the phase and
	// peak_rss_mb see a process that has set up once, as a daemon has.
	// The other set-ups (workloadDef.setups in all) follow and only add
	// their times to the median.
	r, err := timedSetup()
	if err != nil {
		return nil, err
	}
	calib0 := calibrate()
	ph := r.measure()
	calib1 := calibrate()
	peakRSS := peakRSSMiB()
	r.close()
	for len(setups) < w.setups {
		extra, err := timedSetup()
		if err != nil {
			return nil, err
		}
		extra.close()
	}

	ops := float64(ph.totalOps())
	m := map[string]float64{
		"setup_s": median(setups),
		"ops_per_s": ph.segMetric(func(s *segResult) (float64, bool) {
			return float64(s.ops) / s.wall.Seconds(), true
		}),
		"read_p50_us":  ph.latPct(w.read, 50),
		"read_p95_us":  ph.latPct(w.read, 95),
		"write_p50_us": ph.latPct(w.write, 50),
		"write_p95_us": ph.latPct(w.write, 95),
		"cpu_us_per_op": ph.segMetric(func(s *segResult) (float64, bool) {
			return us(s.cpu) / float64(s.ops), true
		}),
		"allocs_per_op":      float64(ph.mallocs) / ops,
		"alloc_bytes_per_op": float64(ph.allocBytes) / ops,
		"peak_rss_mb":        peakRSS,
	}
	res := &result{
		Correct: ph.failed() == 0, Attempted: ph.attempted(), Failed: ph.failed(),
		Metrics: make(map[string]metricValue),
	}
	report := func(d metricDef, inResult bool) {
		if inResult {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %.3f; the first: preload %.2f, snapshot %.2f, boot %.2f, warm-up %.2f",
				setups, r.times.preload.Seconds(), r.times.snapshot.Seconds(), r.times.boot.Seconds(), r.times.warmup.Seconds())
		case "ops_per_s":
			note = fmt.Sprintf("%d ops in %.2f s, %d segments", ph.totalOps(), ph.totalWall().Seconds(), len(ph.segs))
		case "read_p50_us", "read_p95_us":
			note = fmt.Sprintf("%s, n=%d", w.read, ph.samples(w.read))
		case "write_p50_us", "write_p95_us":
			note = fmt.Sprintf("%s, n=%d", w.write, ph.samples(w.write))
		}
		fmt.Fprintf(out, "%-20s %14.3f %-10s %s\n", d.name, m[d.name], d.unit, note)
	}
	for _, d := range endToEnd {
		report(d, true)
	}
	for _, d := range timings {
		report(d, cfg.timings)
	}
	printFailures(out, ph)
	drift := 100 * (calib1 - calib0).Abs().Seconds() / calib0.Seconds()
	fmt.Fprintf(out, "harness.calib_ms=%.2f drift=%.1f%% noisy_host=%v\n",
		(calib0+calib1).Seconds()*500, drift, drift > 15)
	return res, nil
}

// printFailures prints attempted, failed and wrong-content counts per
// op class.
func printFailures(out io.Writer, ph *phaseResult) {
	fmt.Fprintf(out, "ops: attempted=%d failed=%d wrong_content=%d\n", ph.attempted(), ph.failed(), ph.wrongContent())
	for k := opKind(0); k < nKinds; k++ {
		if n := ph.tried[k].Load(); n > 0 {
			fmt.Fprintf(out, "  %-14s attempted=%-7d failed=%d wrong_content=%d\n", k, n, ph.fails[k].Load(), ph.wrong[k].Load())
		}
	}
}
