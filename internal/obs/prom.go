package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus dumps the registry in the Prometheus text exposition
// format: every metric gets `# HELP`/`# TYPE` headers, dotted names
// become `srb_`-prefixed underscore names, and each Op's latency
// histogram is emitted as cumulative `_bucket{le="..."}` series (in
// seconds) with `_sum`/`_count`, so a stock Prometheus scraper can
// consume the srbd admin endpoint directly.
func WritePrometheus(w io.Writer, s Snapshot) error { return writeExposition(w, s, false) }

// WriteOpenMetrics dumps the registry in the OpenMetrics 1.0 text
// exposition format. It differs from WritePrometheus in the ways the
// stricter spec demands — TYPE precedes HELP, counter families are
// declared under their base name with `_total`-suffixed samples,
// histogram families carry a UNIT line, and the stream is terminated by
// `# EOF` — and in one way the spec enables: histogram bucket samples
// carry tail exemplars (`# {trace_id="…"} <seconds>`), so a scrape can
// jump from a slow bucket straight to `srb trace <id>` / `srb why <id>`.
// Served at /metrics?format=openmetrics.
func WriteOpenMetrics(w io.Writer, s Snapshot) error { return writeExposition(w, s, true) }

// writeExposition is the one walk over a Snapshot both dialects share;
// om selects OpenMetrics where the two differ.
func writeExposition(w io.Writer, s Snapshot, om bool) error {
	var b strings.Builder

	// header declares a family. A counter family is named with its
	// _total suffix in Prometheus and without it in OpenMetrics; its
	// sample carries the suffix in both.
	header := func(family, typ, unit, help string) {
		if !om {
			if typ == "counter" {
				family += "_total"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
			return
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", family, typ)
		if unit != "" {
			fmt.Fprintf(&b, "# UNIT %s %s\n", family, unit)
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", family, help)
	}
	counter := func(family, help string, v int64) {
		header(family, "counter", "", help)
		fmt.Fprintf(&b, "%s_total %d\n", family, v)
	}

	header("srb_build_info", "gauge", "", "Build version, injected at link time; value is always 1.")
	fmt.Fprintf(&b, "srb_build_info{version=%q} 1\n", buildVersion(s))
	header("srb_uptime_seconds", "gauge", "", "Seconds since the telemetry registry was created.")
	fmt.Fprintf(&b, "srb_uptime_seconds %s\n", formatFloat(s.UptimeSeconds))

	for _, k := range sortedKeys(s.Counters) {
		counter(promName(k), "Counter "+k+".", s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		header(name, "gauge", "", "Gauge "+k+".")
		fmt.Fprintf(&b, "%s %d\n", name, s.Gauges[k])
	}

	opNames := make([]string, 0, len(s.Ops))
	for k := range s.Ops {
		opNames = append(opNames, k)
	}
	sort.Strings(opNames)
	for _, k := range opNames {
		o := s.Ops[k]
		base := promName(k)
		counter(base+"_ops", "Completed "+k+" operations.", o.Count)
		counter(base+"_errors", "Failed "+k+" operations.", o.Errors)

		hist := base + "_duration_seconds"
		header(hist, "histogram", "seconds", "Latency of "+k+" operations.")
		// Exemplars are an OpenMetrics-only annotation: bucket upper
		// bound -> retained tail exemplar, consumed as buckets print.
		var ex map[int64]BucketExemplar
		if om {
			ex = make(map[int64]BucketExemplar, len(o.Exemplars))
			for _, e := range o.Exemplars {
				ex[e.UpperMicros] = e
			}
		}
		var cum int64
		for _, bk := range o.Buckets {
			cum += bk.Count
			// The last pow2 bucket is open-ended: its count (and any
			// exemplar) belongs only to +Inf, not to a finite le bound
			// it does not actually obey.
			if bk.UpperMicros >= BucketUpperMicros(histBuckets-1) {
				continue
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d%s\n",
				hist, formatFloat(float64(bk.UpperMicros)/1e6), cum, exemplarSuffix(ex, bk.UpperMicros))
			delete(ex, bk.UpperMicros)
		}
		// Any exemplar left over (open-ended bucket, or a bucket whose
		// counts live only in wider buckets) rides the +Inf sample; pick
		// the slowest.
		var tail *BucketExemplar
		for upper := range ex {
			e := ex[upper]
			if tail == nil || e.Micros > tail.Micros {
				tail = &e
			}
		}
		inf := ""
		if tail != nil {
			inf = fmt.Sprintf(" # {trace_id=%q} %s", tail.TraceID, formatFloat(float64(tail.Micros)/1e6))
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d%s\n", hist, cum, inf)
		fmt.Fprintf(&b, "%s_sum %s\n", hist, formatFloat(float64(o.TotalMicros)/1e6))
		fmt.Fprintf(&b, "%s_count %d\n", hist, o.Count)
	}

	if om {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for the
// bucket with the given upper bound, or "" when none is retained.
func exemplarSuffix(ex map[int64]BucketExemplar, upperMicros int64) string {
	e, ok := ex[upperMicros]
	if !ok || e.TraceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatFloat(float64(e.Micros)/1e6))
}

// buildVersion prefers the snapshot's stamped version (set by the
// server that produced it, which may be a remote peer) over this
// binary's own.
func buildVersion(s Snapshot) string {
	if s.Version != "" {
		return s.Version
	}
	return Version
}

// promName maps a dotted registry name to a legal Prometheus metric
// name: srb_ prefix, every non-[a-zA-Z0-9_] rune replaced with '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("srb_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
