// The incident flight recorder: when an SLO rule fires (or an operator
// asks), capture a self-contained evidence bundle while the problem is
// still happening — CPU and heap profiles, the slow-op span trees from
// the trace ring, the firing rule with its window stats, and whatever
// extra state the daemon wants preserved (grid, breaker, repair
// snapshots). Bundles land under <telemetry-dir>/incidents/<ts>-<rule>/
// with a bounded index, and capture is rate-limited per rule so a
// flapping SLO cannot fill the disk.
package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/durable"
)

// ErrRateLimited reports a capture suppressed by the per-rule minimum
// gap.
var ErrRateLimited = errors.New("incident capture rate-limited")

// incidentTSFormat names bundle directories sortably by capture time.
const incidentTSFormat = "20060102T150405.000"

// IncidentMeta describes one captured bundle — the index entry and the
// meta.json inside the bundle itself.
type IncidentMeta struct {
	ID       string // directory name, <ts>-<rule>
	At       time.Time
	Rule     string // firing rule name, or "manual"
	Reason   string // "slo-fired" or "manual"
	Detail   string `json:",omitempty"` // alert detail / operator note
	Server   string
	Files    []string `json:",omitempty"` // bundle contents, sorted
	Observed float64  `json:",omitempty"`
	BurnPct  float64  `json:",omitempty"`
}

// IncidentConfig wires a recorder.
type IncidentConfig struct {
	// Dir is the incidents directory itself (daemons pass
	// <telemetry-dir>/incidents).
	Dir string
	// Server stamps bundles with the capturing daemon's name.
	Server string
	// Registry supplies window stats, traces and the heap of the process.
	Registry *Registry
	// MinGap is the per-rule minimum time between captures (default 10m).
	MinGap time.Duration
	// MaxIndex bounds retained bundles; the oldest are evicted (default 32).
	MaxIndex int
	// ProfileDur is the CPU profile length (default 2s). Tests shrink it.
	ProfileDur time.Duration
	// Extra, when set, contributes additional named files to every
	// bundle (grid.json, breakers.json, repair.json in the daemons).
	Extra func() map[string][]byte
}

// IncidentRecorder captures and indexes incident bundles. Safe for
// concurrent use; nil receiver tolerated everywhere.
type IncidentRecorder struct {
	cfg IncidentConfig

	mu   sync.Mutex
	last map[string]time.Time // rule -> last capture

	// profiling guards StartCPUProfile, which fails if already running:
	// overlapping captures skip the CPU profile rather than block 2s.
	profiling atomic.Bool
}

// NewIncidentRecorder creates the incidents directory and returns a
// recorder over it.
func NewIncidentRecorder(cfg IncidentConfig) (*IncidentRecorder, error) {
	if cfg.MinGap <= 0 {
		cfg.MinGap = 10 * time.Minute
	}
	if cfg.MaxIndex <= 0 {
		cfg.MaxIndex = 32
	}
	if cfg.ProfileDur <= 0 {
		cfg.ProfileDur = 2 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &IncidentRecorder{cfg: cfg, last: make(map[string]time.Time)}, nil
}

// Capture snapshots one bundle for rule (use "manual" for operator
// captures). Synchronous: it sleeps ProfileDur collecting the CPU
// profile, so SLO-triggered callers run it off the evaluation
// goroutine. Returns ErrRateLimited when the rule captured within
// MinGap; window may be zero (defaults to 5m of history).
func (ir *IncidentRecorder) Capture(now time.Time, rule, reason, detail string, window time.Duration) (IncidentMeta, error) {
	if ir == nil {
		return IncidentMeta{}, errors.New("incident recorder disabled")
	}
	if rule == "" {
		rule = "manual"
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	ir.mu.Lock()
	if last, ok := ir.last[rule]; ok && now.Sub(last) < ir.cfg.MinGap {
		ir.mu.Unlock()
		return IncidentMeta{}, fmt.Errorf("rule %s captured %s ago (min gap %s): %w",
			rule, now.Sub(last).Round(time.Second), ir.cfg.MinGap, ErrRateLimited)
	}
	// Claim the slot before the slow work so a concurrent capture of the
	// same rule rate-limits instead of doubling up.
	ir.last[rule] = now
	ir.mu.Unlock()

	id := now.UTC().Format(incidentTSFormat) + "-" + sloSlug(rule)
	dir := filepath.Join(ir.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return IncidentMeta{}, err
	}

	meta := IncidentMeta{
		ID: id, At: now, Rule: rule, Reason: reason, Detail: detail,
		Server: ir.cfg.Server,
	}
	write := func(name string, b []byte) {
		if len(b) == 0 {
			return
		}
		if replaceFile(filepath.Join(dir, name), b) == nil {
			meta.Files = append(meta.Files, name)
		}
	}

	// CPU profile first: the 2s window samples the process while the
	// condition that fired the rule is (hopefully) still present.
	if ir.profiling.CompareAndSwap(false, true) {
		var cpu bytes.Buffer
		if pprof.StartCPUProfile(&cpu) == nil {
			time.Sleep(ir.cfg.ProfileDur)
			pprof.StopCPUProfile()
			write("cpu.pprof", cpu.Bytes())
		}
		ir.profiling.Store(false)
	}
	var heap bytes.Buffer
	if pprof.Lookup("heap").WriteTo(&heap, 0) == nil {
		write("heap.pprof", heap.Bytes())
	}

	reg := ir.cfg.Registry
	if recs := reg.Traces().Recent(0); len(recs) > 0 {
		var txt strings.Builder
		WriteTree(&txt, AssembleTree(recs))
		write("spans.txt", []byte(txt.String()))
		if b, err := json.MarshalIndent(recs, "", "  "); err == nil {
			write("spans.json", b)
		}
	}
	ws := reg.WindowAt(now, window)
	if b, err := json.MarshalIndent(ws, "", "  "); err == nil {
		write("window.json", b)
	}
	// Latency decomposition at capture time: the same window's phase
	// histograms, so "where did the p99 go" is answerable from the
	// bundle alone after the rollup ring has moved on.
	if rows := PhaseRows(ws.Ops); len(rows) > 0 {
		if b, err := json.MarshalIndent(rows, "", "  "); err == nil {
			write("phases.json", b)
		}
	}
	if ir.cfg.Extra != nil {
		names := make([]string, 0)
		extra := ir.cfg.Extra()
		for name := range extra {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			write(name, extra[name])
		}
	}

	// meta.json goes last: it is the bundle's commit point, since List
	// and Get skip a bundle whose meta.json does not read.
	sort.Strings(meta.Files)
	if b, err := json.MarshalIndent(&meta, "", "  "); err == nil {
		if replaceFile(filepath.Join(dir, "meta.json"), b) != nil {
			return meta, fmt.Errorf("incident %s: writing meta.json failed", id)
		}
	}
	ir.evict()
	return meta, nil
}

// List returns the index, newest first.
func (ir *IncidentRecorder) List() []IncidentMeta {
	if ir == nil {
		return nil
	}
	ids := ir.ids()
	out := make([]IncidentMeta, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if m, err := ir.readMeta(ids[i]); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// Get returns one bundle: its meta plus every file's contents. The id
// is validated against path traversal.
func (ir *IncidentRecorder) Get(id string) (IncidentMeta, map[string][]byte, error) {
	if ir == nil {
		return IncidentMeta{}, nil, errors.New("incident recorder disabled")
	}
	if !validIncidentID(id) {
		return IncidentMeta{}, nil, fmt.Errorf("invalid incident id %q", id)
	}
	meta, err := ir.readMeta(id)
	if err != nil {
		return IncidentMeta{}, nil, fmt.Errorf("incident %s: %w", id, err)
	}
	files := make(map[string][]byte, len(meta.Files))
	for _, name := range meta.Files {
		if !validIncidentFile(name) {
			continue
		}
		if b, err := os.ReadFile(filepath.Join(ir.cfg.Dir, id, name)); err == nil {
			files[name] = b
		}
	}
	return meta, files, nil
}

// Prune removes bundles captured before cutoff (telemetry retention).
func (ir *IncidentRecorder) Prune(cutoff time.Time) {
	if ir == nil || cutoff.IsZero() {
		return
	}
	for _, id := range ir.ids() {
		ts, ok := incidentTime(id)
		if ok && ts.Before(cutoff) {
			os.RemoveAll(filepath.Join(ir.cfg.Dir, id))
		}
	}
}

// evict keeps the index bounded, removing the oldest bundles.
func (ir *IncidentRecorder) evict() {
	ids := ir.ids()
	for len(ids) > ir.cfg.MaxIndex {
		os.RemoveAll(filepath.Join(ir.cfg.Dir, ids[0]))
		ids = ids[1:]
	}
}

// ids lists bundle directory names, oldest first (the timestamp prefix
// makes lexical order chronological).
func (ir *IncidentRecorder) ids() []string {
	ents, err := os.ReadDir(ir.cfg.Dir)
	if err != nil {
		return nil
	}
	ids := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() && validIncidentID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids
}

func (ir *IncidentRecorder) readMeta(id string) (IncidentMeta, error) {
	b, err := os.ReadFile(filepath.Join(ir.cfg.Dir, id, "meta.json"))
	if err != nil {
		return IncidentMeta{}, err
	}
	var m IncidentMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return IncidentMeta{}, err
	}
	m.ID = id
	return m, nil
}

// incidentTime recovers the capture time from a bundle id.
func incidentTime(id string) (time.Time, bool) {
	if len(id) < len(incidentTSFormat) {
		return time.Time{}, false
	}
	ts, err := time.Parse(incidentTSFormat, id[:len(incidentTSFormat)])
	return ts, err == nil
}

// validIncidentID accepts only names a Capture could have produced:
// timestamp, dash, slug runes. Anything else (.., /, empty) is rejected
// before touching the filesystem.
func validIncidentID(id string) bool {
	if _, ok := incidentTime(id); !ok {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return !strings.Contains(id, "..")
}

// validIncidentFile accepts plain file names only.
func validIncidentFile(name string) bool {
	return name != "" && name == filepath.Base(name) && !strings.HasPrefix(name, ".")
}

// replaceFile publishes b as the contents of path (durable.Replace).
func replaceFile(path string, b []byte) error {
	return durable.Replace(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}
