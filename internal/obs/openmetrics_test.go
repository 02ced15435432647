package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	omTypeRe     = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	omSampleRe   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	omExemplarRe = regexp.MustCompile(`^\{trace_id="([^"]+)"\} (\S+)$`)
	omLeRe       = regexp.MustCompile(`le="([^"]+)"`)
)

// TestOpenMetricsScrape renders a populated registry and re-parses the
// stream with the spec's structural rules: every sample belongs to a
// declared family with the right suffix for its type, histogram buckets
// are cumulative with strictly increasing le bounds ending at +Inf,
// exemplar values sit within their bucket's bound, and the stream is
// EOF-terminated.
func TestOpenMetricsScrape(t *testing.T) {
	reg := NewRegistry()
	reg.SetExemplarThreshold(time.Millisecond)
	reg.Counter("wire.pool.dialed").Add(3)
	reg.Gauge("server.pipeline.inflight").Set(2)
	op := reg.Op("phase.server.get.dispatch")
	const fast, tailA, tailB, tailInf = 0xf, 0xa, 0xb, 0x1f
	op.ObserveTrace(200*time.Microsecond, nil, fast)
	op.ObserveTrace(1500*time.Microsecond, nil, tailA)
	op.ObserveTrace(9*time.Millisecond, nil, tailB)
	// Beyond the last finite bucket: this exemplar must ride +Inf.
	op.ObserveTrace(200*time.Second, nil, tailInf)
	reg.Op("server.get").Observe(2*time.Millisecond, nil)

	var b strings.Builder
	if err := WriteOpenMetrics(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("stream not EOF-terminated:\n...%s", out[len(out)-80:])
	}

	types := map[string]string{}
	var (
		curHist   string
		lastLe    float64
		lastCount int64
		sawInf    bool
		infCount  int64
	)
	endHist := func() {
		if curHist != "" && !sawInf {
			t.Errorf("histogram %s has no +Inf bucket", curHist)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if m := omTypeRe.FindStringSubmatch(line); m != nil {
				if _, dup := types[m[1]]; dup {
					t.Errorf("family %s declared twice", m[1])
				}
				types[m[1]] = m[2]
			} else if !strings.HasPrefix(line, "# HELP") && !strings.HasPrefix(line, "# UNIT") && line != "# EOF" {
				t.Errorf("unparseable comment line %q", line)
			}
			continue
		}
		sample, exemplar, hasEx := strings.Cut(line, " # ")
		m := omSampleRe.FindStringSubmatch(sample)
		if m == nil {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]

		// Resolve the family and enforce the per-type suffix rules.
		family, suffix := name, ""
		for _, s := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				family, suffix = strings.TrimSuffix(name, s), s
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			// A gauge sample has no suffix; anything else is undeclared.
			if typ, ok = types[name]; !ok {
				t.Errorf("sample %q has no declared family", name)
				continue
			}
			family, suffix = name, ""
		}
		switch typ {
		case "counter":
			if suffix != "_total" {
				t.Errorf("counter family %s sample %q lacks _total", family, name)
			}
		case "gauge":
			if suffix != "" {
				t.Errorf("gauge family %s has suffixed sample %q", family, name)
			}
		case "histogram":
			if suffix == "_bucket" {
				le := omLeRe.FindStringSubmatch(labels)
				if le == nil {
					t.Errorf("bucket sample without le: %q", line)
					continue
				}
				if family != curHist {
					endHist()
					curHist, lastLe, lastCount, sawInf = family, math.Inf(-1), 0, false
				}
				cnt, err := strconv.ParseInt(valStr, 10, 64)
				if err != nil {
					t.Errorf("bucket count %q: %v", valStr, err)
					continue
				}
				if cnt < lastCount {
					t.Errorf("%s buckets not cumulative: %d after %d", family, cnt, lastCount)
				}
				lastCount = cnt
				var bound float64
				if le[1] == "+Inf" {
					bound, sawInf, infCount = math.Inf(1), true, cnt
				} else if bound, err = strconv.ParseFloat(le[1], 64); err != nil {
					t.Errorf("bad le %q", le[1])
					continue
				}
				if bound <= lastLe {
					t.Errorf("%s le bounds not increasing: %v after %v", family, bound, lastLe)
				}
				lastLe = bound
				if hasEx {
					em := omExemplarRe.FindStringSubmatch(exemplar)
					if em == nil {
						t.Errorf("malformed exemplar %q", exemplar)
						continue
					}
					ev, err := strconv.ParseFloat(em[2], 64)
					if err != nil || ev > bound {
						t.Errorf("exemplar value %q outside bucket le=%v", em[2], bound)
					}
				}
			} else if suffix == "_count" && sawInf && family == curHist {
				if cnt, _ := strconv.ParseInt(valStr, 10, 64); cnt != infCount {
					t.Errorf("%s_count %d != +Inf bucket %d", family, cnt, infCount)
				}
			}
		default:
			t.Errorf("family %s has unknown type %q", family, typ)
		}
		if hasEx && typ != "histogram" {
			t.Errorf("exemplar on non-histogram sample %q", line)
		}
	}
	endHist()

	// The specific joins this PR promises: tail traces on the phase
	// histogram, the over-range trace on +Inf, and no exemplar for the
	// below-threshold observation.
	for _, want := range []string{
		`trace_id="000000000000000a"`, `trace_id="000000000000000b"`,
		`srb_phase_server_get_dispatch_duration_seconds_bucket{le="+Inf"} 4 # {trace_id="000000000000001f"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `trace_id="000000000000000f"`) {
		t.Error("below-threshold observation leaked an exemplar")
	}
}
