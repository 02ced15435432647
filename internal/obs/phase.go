package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Latency decomposition: every request's wall time is partitioned into
// named phases recorded as structured span events (Span.Phase) and
// folded into per-op×per-phase histogram Ops under the "phase."
// registry namespace, so the same rollup/window/grid machinery that
// answers "how slow is get" also answers "where inside get did the
// p99 go".
//
// Naming convention: a registry phase op is
//
//	phase.<family>.<op>.<phase>
//
// where family is "server" or "client", op is the wire op ("get",
// "put", ...; clients use "conn" for per-connection work like dial),
// and phase is one of the names below. A phase name containing "/" is
// a sub-phase nested under the top-level segment before the slash;
// top-level phases partition the span's wall time, sub-phases
// attribute time within their parent and may overlap each other.
const (
	// Server-side top-level phases: queue.wait + dispatch partition the
	// span's wall clock exactly (the span is backdated to enqueue time).
	PhaseQueueWait = "queue.wait" // pipelined request parked behind the per-conn worker semaphore
	PhaseDispatch  = "dispatch"   // the op handler itself, inclusive of all sub-phases

	// Server-side sub-phases of dispatch.
	PhaseMCATLookup     = "dispatch/mcat.lookup"     // catalog resolve + ACL check
	PhaseStorageOpen    = "dispatch/storage.open"    // storage driver open (first byte reachable)
	PhaseStorageRead    = "dispatch/storage.read"    // storage driver open+read of the winning replica
	PhaseStorageWrite   = "dispatch/storage.write"   // storage driver write fan-out
	PhaseReplicaAttempt = "dispatch/replica.attempt" // one replica candidate attempt (repeats on failover)
	PhaseFederationHop  = "dispatch/federation.hop"  // proxied call to a federated peer, wire round trip inclusive
	PhaseWireSend       = "dispatch/wire.send"       // time inside the data-frame writes of a streamed reply
	PhaseShardFanout    = "dispatch/shard.fanout"    // scatter of a catalog query to every MCAT shard
	PhaseShardMerge     = "dispatch/shard.merge"     // dedup + sort of per-shard query hits

	// Client-side phases (recorded into the client's own registry; the
	// client has no server span, so these never appear in span trees).
	PhaseBatchHold    = "batch.hold"    // item sat in the PutBatcher before its flush started
	PhasePoolCheckout = "pool.checkout" // waiting for a pooled connection (includes dial when one is minted)
	PhaseDial         = "dial"          // TCP connect + handshake for a fresh pooled conn
	PhaseSerialize    = "serialize"     // request argument marshaling
	PhaseMuxInflight  = "mux.inflight"  // request on the wire: send → matching reply frame
)

// PhasePrefix namespaces per-phase ops inside a registry.
const PhasePrefix = "phase."

// RecordPhases folds a finished span's phase events into the registry's
// per-op×per-phase histogram ops, tagging each observation with the
// trace ID so tail buckets retain joinable exemplars. Call once per
// request, after the handler has recorded its phases.
func (r *Registry) RecordPhases(family, op, trace string, events []SpanEvent) {
	if r == nil {
		return
	}
	for _, ev := range events {
		if ev.Kind != EventPhase {
			continue
		}
		r.OpAt(PhasePrefix, family, ".", op, ".", ev.Detail).ObserveTrace(time.Duration(ev.DurMicros)*time.Microsecond, nil, trace)
	}
}

// SplitPhaseOp decomposes a registry op name of the form
// "phase.<family>.<op>.<phase>" into its parts. ok is false for names
// outside the phase namespace.
func SplitPhaseOp(name string) (family, op, phase string, ok bool) {
	rest, found := strings.CutPrefix(name, PhasePrefix)
	if !found {
		return "", "", "", false
	}
	parts := strings.SplitN(rest, ".", 3)
	if len(parts) < 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return "", "", "", false
	}
	return parts[0], parts[1], parts[2], true
}

// PhaseRow is one per-op×per-phase window aggregate, the row unit of
// `srb top -phases`, the admin /phases JSON and the MySRB grid table.
type PhaseRow struct {
	Family string
	Op     string
	Phase  string
	WindowOp
}

// PhaseRows extracts and orders the phase ops out of a window's op map:
// grouped by family then op, slowest total first within the group.
func PhaseRows(ops map[string]WindowOp) []PhaseRow {
	var rows []PhaseRow
	for name, op := range ops {
		family, opName, phase, ok := SplitPhaseOp(name)
		if !ok {
			continue
		}
		rows = append(rows, PhaseRow{Family: family, Op: opName, Phase: phase, WindowOp: op})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Family != rows[j].Family {
			return rows[i].Family < rows[j].Family
		}
		if rows[i].Op != rows[j].Op {
			return rows[i].Op < rows[j].Op
		}
		if rows[i].TotalMicros != rows[j].TotalMicros {
			return rows[i].TotalMicros > rows[j].TotalMicros
		}
		return rows[i].Phase < rows[j].Phase
	})
	return rows
}

// PhaseSum returns the summed duration of the top-level (unslashed)
// phase events — the portion of a span's wall time the decomposition
// accounts for.
func PhaseSum(events []SpanEvent) int64 {
	var sum int64
	for _, ev := range events {
		if ev.Kind == EventPhase && !strings.Contains(ev.Detail, "/") {
			sum += ev.DurMicros
		}
	}
	return sum
}

// WriteWaterfall renders assembled span trees as a phase-breakdown
// waterfall — the `srb why <trace-id>` view. Each span line is followed
// by one row per phase with its duration, share of the span's wall
// time and a proportional bar; sub-phases indent under their parent,
// and any wall time the top-level phases do not account for shows as
// "(unattributed)".
func WriteWaterfall(w io.Writer, roots []*SpanNode) error {
	for _, n := range roots {
		if err := writeWaterfallNode(w, n, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeWaterfallNode(w io.Writer, n *SpanNode, depth int) error {
	indent := strings.Repeat("  ", depth)
	line := fmt.Sprintf("%s%s [%s] %dus span=%s", indent, n.Op, n.Server, n.Micros, n.Span)
	if n.Err != "" {
		line += " err=" + n.Err
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	// Group sub-phases under their parent: phases are recorded in
	// completion order, so a span's sub-phases finish (and appear)
	// before the enclosing top-level phase does — regrouping keeps the
	// printed tree matching the taxonomy, not the clock.
	var topSum int64
	sawPhase := false
	var tops []SpanEvent
	subs := map[string][]SpanEvent{}
	for _, ev := range n.Events {
		if ev.Kind != EventPhase {
			continue
		}
		sawPhase = true
		if i := strings.IndexByte(ev.Detail, '/'); i >= 0 {
			subs[ev.Detail[:i]] = append(subs[ev.Detail[:i]], ev)
		} else {
			tops = append(tops, ev)
			topSum += ev.DurMicros
		}
	}
	for _, ev := range tops {
		if err := writePhaseRow(w, indent, ev.Detail, ev.DurMicros, n.Micros); err != nil {
			return err
		}
		for _, sub := range subs[ev.Detail] {
			label := sub.Detail[strings.IndexByte(sub.Detail, '/')+1:]
			if err := writePhaseRow(w, indent+"  ", label, sub.DurMicros, n.Micros); err != nil {
				return err
			}
		}
		delete(subs, ev.Detail)
	}
	// A sub-phase whose parent never closed (error paths) still prints,
	// under its full name so the dangling parent is visible.
	for _, ev := range n.Events {
		if ev.Kind != EventPhase {
			continue
		}
		if i := strings.IndexByte(ev.Detail, '/'); i >= 0 && len(subs[ev.Detail[:i]]) > 0 {
			if err := writePhaseRow(w, indent+"  ", ev.Detail, ev.DurMicros, n.Micros); err != nil {
				return err
			}
		}
	}
	if sawPhase {
		if rest := n.Micros - topSum; rest > 0 {
			if err := writePhaseRow(w, indent, "(unattributed)", rest, n.Micros); err != nil {
				return err
			}
		}
	}
	for _, c := range n.Children {
		if err := writeWaterfallNode(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func writePhaseRow(w io.Writer, indent, label string, durMicros, spanMicros int64) error {
	pct := 0.0
	if spanMicros > 0 {
		pct = 100 * float64(durMicros) / float64(spanMicros)
	}
	_, err := fmt.Fprintf(w, "%s  %-26s %9dus %5.1f%% %s\n", indent, label, durMicros, pct, phaseBar(pct))
	return err
}

// phaseBar renders pct (0..100) as a fixed-width proportional bar.
func phaseBar(pct float64) string {
	const width = 24
	n := int(pct/100*width + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}
