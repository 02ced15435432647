// SLO evaluation over the rollup ring. Operators declare rules in a
// plain-text file (one rule per line, srbd -slo-rules):
//
//	get p99 < 50ms over 5m          # windowed latency quantile
//	server.put p95 < 200ms over 1m
//	error_rate < 1% over 30m        # all-ops aggregate error rate
//	get rate > 0.1 over 10m         # throughput floor, ops/sec
//	replag_seconds < 30s over 5m    # shard replication lag (worst shard)
//
// A periodic job (riding the repair scheduler) evaluates each rule
// against the windowed view, computes error-budget burn (observed as a
// fraction of threshold) and appends fire/resolve transitions to a
// bounded alert log surfaced on /healthz (warn lines, no 503),
// /alerts, `srb alerts` and as slo.* gauges.
package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLOMetric names the measurable a rule constrains.
type SLOMetric string

const (
	SLOP50       SLOMetric = "p50"        // windowed 50th-percentile latency
	SLOP95       SLOMetric = "p95"        // windowed 95th-percentile latency
	SLOP99       SLOMetric = "p99"        // windowed 99th-percentile latency
	SLOErrorRate SLOMetric = "error_rate" // windowed errors / count, percent
	SLORate      SLOMetric = "rate"       // windowed ops per second
	// SLOReplag reads the mcat.shard.<n>.replag_seconds gauges: target
	// "*" takes the worst shard, an explicit target names one gauge.
	// Threshold is a duration, stored in seconds.
	SLOReplag SLOMetric = "replag_seconds"
)

// SLORule is one parsed objective: "<target> <metric> <cmp> <threshold>
// over <window>". Target "*" aggregates across every op family (only
// meaningful for error_rate and rate).
type SLORule struct {
	Name      string // slug, e.g. "get_p99_5m" — stable gauge/alert key
	Target    string // op family ("get", "server.put") or "*"
	Metric    SLOMetric
	Less      bool    // true: observed must stay below Threshold
	Threshold float64 // µs for quantiles, percent for error_rate, ops/sec for rate
	Window    time.Duration
	Raw       string // the source line, for display
}

// ParseSLORules parses one rule per line; blank lines and #-comments
// are skipped. Duplicate rule names (same target/metric/window) are an
// error so gauges stay unambiguous.
func ParseSLORules(src string) ([]SLORule, error) {
	var rules []SLORule
	seen := make(map[string]int)
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		r, err := parseSLORule(line)
		if err != nil {
			return nil, fmt.Errorf("slo rules line %d: %w", ln+1, err)
		}
		if prev, dup := seen[r.Name]; dup {
			return nil, fmt.Errorf("slo rules line %d: duplicate rule %q (first on line %d)", ln+1, r.Name, prev)
		}
		seen[r.Name] = ln + 1
		rules = append(rules, r)
	}
	return rules, nil
}

func parseSLORule(line string) (SLORule, error) {
	f := strings.Fields(line)
	// 5-field form omits the target: "error_rate < 1% over 30m".
	if len(f) == 5 {
		f = append([]string{"*"}, f...)
	}
	if len(f) != 6 || f[4] != "over" {
		return SLORule{}, fmt.Errorf("want %q, got %q", "<target> <metric> <cmp> <threshold> over <window>", line)
	}
	r := SLORule{Target: f[0], Metric: SLOMetric(f[1]), Raw: line}
	switch r.Metric {
	case SLOP50, SLOP95, SLOP99, SLOErrorRate, SLORate, SLOReplag:
	default:
		return SLORule{}, fmt.Errorf("unknown metric %q (want p50, p95, p99, error_rate, rate or replag_seconds)", f[1])
	}
	if r.Target == "*" && (r.Metric == SLOP50 || r.Metric == SLOP95 || r.Metric == SLOP99) {
		return SLORule{}, fmt.Errorf("quantile rule needs a target op family, not %q", "*")
	}
	switch f[2] {
	case "<":
		r.Less = true
	case ">":
		r.Less = false
	default:
		return SLORule{}, fmt.Errorf("comparator %q (want < or >)", f[2])
	}
	th := f[3]
	switch r.Metric {
	case SLOReplag:
		d, err := time.ParseDuration(th)
		if err != nil {
			return SLORule{}, fmt.Errorf("threshold %q: %v", f[3], err)
		}
		r.Threshold = d.Seconds()
	case SLOErrorRate:
		th = strings.TrimSuffix(th, "%")
		v, err := strconv.ParseFloat(th, 64)
		if err != nil {
			return SLORule{}, fmt.Errorf("threshold %q: %v", f[3], err)
		}
		r.Threshold = v
	case SLORate:
		v, err := strconv.ParseFloat(th, 64)
		if err != nil {
			return SLORule{}, fmt.Errorf("threshold %q: %v", f[3], err)
		}
		r.Threshold = v
	default: // quantiles take a duration threshold, stored as µs
		d, err := time.ParseDuration(th)
		if err != nil {
			return SLORule{}, fmt.Errorf("threshold %q: %v", f[3], err)
		}
		r.Threshold = float64(d.Microseconds())
	}
	w, err := time.ParseDuration(f[5])
	if err != nil || w <= 0 {
		return SLORule{}, fmt.Errorf("window %q: %v", f[5], err)
	}
	r.Window = w
	r.Name = sloSlug(r.Target, string(r.Metric), f[5])
	return r, nil
}

func sloSlug(parts ...string) string {
	s := strings.Join(parts, "_")
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		case c == '*':
			b.WriteString("all")
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Alert is one fire/resolve transition in the alert log.
type Alert struct {
	At       time.Time
	Rule     string // rule name
	Raw      string // the source rule line
	Firing   bool   // true = fired, false = resolved
	Observed float64
	BurnPct  float64 // error-budget burn, observed/threshold × 100
	Detail   string  `json:",omitempty"`
}

// AlertLog is a bounded ring of alert transitions. The ring's total
// counts every Add ever made (including displaced entries) so the
// telemetry store can flush incrementally by sequence number.
type AlertLog ring[Alert]

func (l *AlertLog) r() *ring[Alert] { return (*ring[Alert])(l) }

// NewAlertLog returns a log holding up to capacity alerts (256 when
// capacity <= 0).
func NewAlertLog(capacity int) *AlertLog { return (*AlertLog)(newRing[Alert](capacity, 256)) }

// Add appends one alert, displacing the oldest when full.
func (l *AlertLog) Add(a Alert) { l.r().add(a) }

// Total returns the lifetime number of alerts added (sequence
// high-water mark, not the retained count).
func (l *AlertLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// TailAfter returns the alerts added after sequence number seen (the
// value a previous Total or TailAfter reported), oldest first, plus the
// current total. Alerts displaced from the ring before being fetched
// are lost — acceptable for telemetry flushing, where the flush cadence
// is far shorter than the time 256 transitions take to accumulate.
func (l *AlertLog) TailAfter(seen int64) ([]Alert, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := l.total - seen
	if fresh <= 0 {
		return nil, l.total
	}
	if fresh > int64(l.count) {
		fresh = int64(l.count)
	}
	return l.r().tail(int(fresh)), l.total
}

// Recent returns up to n alerts, oldest first (n <= 0 returns all).
func (l *AlertLog) Recent(n int) []Alert { return l.r().recent(n) }

// SLOStatus is the current standing of one rule.
type SLOStatus struct {
	Rule      string
	Raw       string
	Violating bool
	Observed  float64
	BurnPct   float64
	Window    float64 // seconds
}

// SLOEvaluator periodically checks rules against a registry's rollup
// ring, maintaining per-rule firing state, slo.* gauges and the alert
// log. Evaluate is driven by a repair-scheduler job in the daemons and
// called directly (with an explicit now) in tests.
type SLOEvaluator struct {
	reg   *Registry
	rules []SLORule
	log   *AlertLog

	mu     sync.Mutex
	firing map[string]bool
	onFire func(now time.Time, rule SLORule, alert Alert)
}

// NewSLOEvaluator wires rules to a registry. A nil registry or empty
// rule set yields an evaluator whose Evaluate is a no-op.
func NewSLOEvaluator(reg *Registry, rules []SLORule) *SLOEvaluator {
	return &SLOEvaluator{reg: reg, rules: rules, log: NewAlertLog(0), firing: make(map[string]bool)}
}

// Rules returns the declared rules.
func (e *SLOEvaluator) Rules() []SLORule {
	if e == nil {
		return nil
	}
	return e.rules
}

// AlertLog returns the bounded transition log.
func (e *SLOEvaluator) AlertLog() *AlertLog {
	if e == nil {
		return nil
	}
	return e.log
}

// SetOnFire installs a hook invoked once per rule transition to FIRED
// (not on resolve), after Evaluate has released its lock — the flight
// recorder's capture trigger. The hook runs synchronously on the
// evaluating goroutine; a slow hook delays the next evaluation, so
// daemons wrap slow work (profile capture) in a goroutine.
func (e *SLOEvaluator) SetOnFire(fn func(now time.Time, rule SLORule, alert Alert)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onFire = fn
}

// Evaluate checks every rule against the window ending at now and
// returns the current status of each. Transitions append to the alert
// log; slo.<name>.violating / slo.<name>.burn_pct and the aggregate
// slo.violating gauges are updated.
func (e *SLOEvaluator) Evaluate(now time.Time) []SLOStatus {
	if e == nil || e.reg == nil {
		return nil
	}
	type firedEvent struct {
		rule  SLORule
		alert Alert
	}
	var fired []firedEvent
	e.mu.Lock()
	statuses := make([]SLOStatus, 0, len(e.rules))
	violating := int64(0)
	for _, r := range e.rules {
		ws := e.reg.WindowAt(now, r.Window)
		observed, ok := observe(ws, r)
		st := SLOStatus{Rule: r.Name, Raw: r.Raw, Window: r.Window.Seconds(), Observed: observed}
		// No data in the window: not violating (and a firing rule
		// resolves — the traffic that breached it is gone).
		if ok {
			st.BurnPct = burnPct(r, observed)
			if r.Less {
				st.Violating = observed >= r.Threshold
			} else {
				st.Violating = observed <= r.Threshold
			}
		}
		if st.Violating {
			violating++
		}
		if st.Violating != e.firing[r.Name] {
			e.firing[r.Name] = st.Violating
			a := Alert{
				At:       now,
				Rule:     r.Name,
				Raw:      r.Raw,
				Firing:   st.Violating,
				Observed: observed,
				BurnPct:  st.BurnPct,
				Detail:   fmt.Sprintf("observed %.1f vs threshold %.1f over %s", observed, r.Threshold, r.Window),
			}
			e.log.Add(a)
			if st.Violating && e.onFire != nil {
				fired = append(fired, firedEvent{rule: r, alert: a})
			}
		}
		e.reg.Gauge("slo." + r.Name + ".violating").Set(b2i(st.Violating))
		e.reg.Gauge("slo." + r.Name + ".burn_pct").Set(int64(st.BurnPct))
		statuses = append(statuses, st)
	}
	e.reg.Gauge("slo.violating").Set(violating)
	hook := e.onFire
	e.mu.Unlock()
	// Fire hooks outside the lock: a hook that re-enters the evaluator
	// (Status, Firing) or captures an incident must not deadlock it.
	for _, ev := range fired {
		hook(now, ev.rule, ev.alert)
	}
	return statuses
}

// Status reports each rule's standing from the last Evaluate without
// re-evaluating (rules that never evaluated report zero values).
func (e *SLOEvaluator) Status() []SLOStatus {
	if e == nil || e.reg == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	statuses := make([]SLOStatus, 0, len(e.rules))
	for _, r := range e.rules {
		statuses = append(statuses, SLOStatus{
			Rule:      r.Name,
			Raw:       r.Raw,
			Window:    r.Window.Seconds(),
			Violating: e.firing[r.Name],
			BurnPct:   float64(e.reg.Gauge("slo." + r.Name + ".burn_pct").Value()),
		})
	}
	return statuses
}

// Firing reports how many rules are currently in violation.
func (e *SLOEvaluator) Firing() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, f := range e.firing {
		if f {
			n++
		}
	}
	return n
}

// observe extracts the rule's measurable from the window. ok is false
// when the window holds no matching activity.
func observe(ws WindowStats, r SLORule) (float64, bool) {
	if r.Metric == SLOReplag {
		return observeReplag(ws, r.Target)
	}
	if r.Target == "*" {
		var count, errs int64
		var rate float64
		for _, o := range ws.Ops {
			count += o.Count
			errs += o.Errors
			rate += o.PerSec
		}
		if count == 0 {
			return 0, false
		}
		switch r.Metric {
		case SLOErrorRate:
			return 100 * float64(errs) / float64(count), true
		case SLORate:
			return rate, true
		}
		return 0, false
	}
	o, ok := resolveTarget(ws, r.Target)
	if !ok || o.Count == 0 {
		return 0, false
	}
	switch r.Metric {
	case SLOP50:
		return o.P50Micros, true
	case SLOP95:
		return o.P95Micros, true
	case SLOP99:
		return o.P99Micros, true
	case SLOErrorRate:
		return o.ErrorPct, true
	case SLORate:
		return o.PerSec, true
	}
	return 0, false
}

// observeReplag reads replication-lag gauges out of the window. Target
// "*" reports the worst lag across every mcat.shard.<n>.replag_seconds
// gauge; an explicit target names one gauge, with or without the
// ".replag_seconds" suffix. ok is false when no gauge exists yet (the
// catalog is not sharded or replication never started).
func observeReplag(ws WindowStats, target string) (float64, bool) {
	if target == "*" {
		var worst float64
		found := false
		for k, v := range ws.Gauges {
			if strings.HasPrefix(k, "mcat.shard.") && strings.HasSuffix(k, ".replag_seconds") {
				found = true
				if f := float64(v); f > worst {
					worst = f
				}
			}
		}
		return worst, found
	}
	if v, ok := ws.Gauges[target]; ok {
		return float64(v), true
	}
	if v, ok := ws.Gauges[target+".replag_seconds"]; ok {
		return float64(v), true
	}
	return 0, false
}

// resolveTarget finds the op family a rule names: exact match first,
// then the conventional layer prefixes, so "get" finds "server.get" on
// srbd and "web.get" on mysrbd without per-daemon rule files.
func resolveTarget(ws WindowStats, target string) (WindowOp, bool) {
	if o, ok := ws.Ops[target]; ok {
		return o, true
	}
	for _, prefix := range []string{"server.", "broker.", "web."} {
		if o, ok := ws.Ops[prefix+target]; ok {
			return o, true
		}
	}
	return WindowOp{}, false
}

// burnPct is error-budget burn as a percentage: how much of the
// threshold the observed value consumed (for "<" rules), or the
// inverse for ">" floors. 100% = exactly at the objective.
func burnPct(r SLORule, observed float64) float64 {
	if r.Threshold == 0 {
		return 0
	}
	if r.Less {
		return 100 * observed / r.Threshold
	}
	if observed == 0 {
		return 0
	}
	return 100 * r.Threshold / observed
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
