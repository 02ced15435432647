package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"gosrb/internal/traceid"
)

// SpanEvent is one structured annotation inside a span: a retry, a
// breaker trip or fast-fail, a replica failover, a cache hit, a
// deadline exhaustion. AtMicros is the offset from the span's start.
// Phase events additionally carry DurMicros, the measured duration of
// the named phase (AtMicros then marks where the phase *ended*).
type SpanEvent struct {
	AtMicros  int64
	Kind      string
	Detail    string `json:",omitempty"`
	DurMicros int64  `json:",omitempty"`
}

// Event kinds emitted by the client, server, replica manager and
// federation layers. Detail strings carry the specific target.
const (
	EventRetry        = "retry"            // a retry attempt (client or federation)
	EventBreakerTrip  = "breaker.trip"     // a circuit breaker opened
	EventBreakerFast  = "breaker.fastfail" // an open breaker short-circuited a call
	EventBreakerProbe = "breaker.probe"    // a half-open breaker let one probe through
	EventFailover     = "failover"         // the read moved to another replica/server
	EventCacheHit     = "cache.hit"        // served from a cache-class resource
	EventContainerHit = "container.hit"    // served out of a container member read
	EventDeadline     = "deadline"         // the request deadline expired mid-op
	EventRepair       = "repair"           // a background repair task ran (detail: key + outcome)
	EventScrub        = "scrub"            // the scrubber flagged a divergent/missing replica
	EventSLO          = "slo"              // an SLO rule fired or resolved (detail: rule + observed)
	EventPhase        = "phase"            // a named latency phase finished (detail: phase name, DurMicros: length)
)

// Span is one timed, trace-scoped unit of work. Spans form a tree: the
// trace ID and the parent span ID travel in the wire Request envelope,
// so the span a federated peer opens for a proxied call becomes a
// child of the caller's span. Obtain spans with StartSpan /
// StartSpanFrom, or Open one held in a larger value (a server's
// connection slot, opened again for each request); all methods tolerate
// a nil receiver. Its events are held inline until there are more than
// fit, and copied by the ring into the array of the record's slot. A
// Span is not copied once opened.
type Span struct {
	Trace  traceid.ID
	ID     traceid.ID
	Parent traceid.ID
	Op     string
	Start  time.Time

	mu     sync.Mutex
	events []SpanEvent
	// buf backs events: a dispatched request records ~5 phase stamps
	// plus the odd annotation, so the hot path never grows the slice.
	buf [8]SpanEvent
}

// StartSpan opens a root span under trace, minting a fresh trace ID
// when trace is zero (i.e. this server originates the request).
func StartSpan(trace traceid.ID, op string) *Span { return StartSpanFrom(trace, 0, op) }

// StartSpanFrom opens a span under trace whose parent is the given
// span ID (zero parent = root). A fresh trace ID is minted when trace
// is zero.
func StartSpanFrom(trace, parent traceid.ID, op string) *Span {
	s := new(Span)
	s.Open(trace, parent, op)
	return s
}

// Open starts s in place as StartSpanFrom starts a new span, keeping the
// array its events grew into. s must not be in use: nothing may hold it,
// or the events End returned, from its last End on.
func (s *Span) Open(trace, parent traceid.ID, op string) {
	if trace == 0 {
		trace = traceid.New()
	}
	s.Trace, s.ID, s.Parent, s.Op, s.Start = trace, traceid.New(), parent, op, time.Now()
	if s.events == nil {
		s.events = s.buf[:0]
	}
	s.events = s.events[:0]
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() traceid.ID {
	if s == nil {
		return 0
	}
	return s.Trace
}

// SpanID returns the span's own ID (zero for a nil span).
func (s *Span) SpanID() traceid.ID {
	if s == nil {
		return 0
	}
	return s.ID
}

// Event appends one structured annotation, stamped with the offset
// from the span's start. Safe for concurrent use and on a nil span, so
// deep layers (replica manager, breakers) can annotate without caring
// whether the call was traced.
func (s *Span) Event(kind, detail string) {
	if s == nil {
		return
	}
	at := time.Since(s.Start).Microseconds()
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{AtMicros: at, Kind: kind, Detail: detail})
	s.mu.Unlock()
}

// Phase records one named latency phase of duration d, stamped at the
// phase's end. Phase names containing "/" are sub-phases of the segment
// before the slash ("dispatch/storage.read" nests under "dispatch");
// top-level phases are expected to partition the span's wall time, so a
// waterfall can show where every microsecond went. Safe on a nil span.
func (s *Span) Phase(name string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	at := time.Since(s.Start).Microseconds()
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{AtMicros: at, Kind: EventPhase, Detail: name, DurMicros: d.Microseconds()})
	s.mu.Unlock()
}

// Events returns a copy of the annotations recorded so far.
func (s *Span) Events() []SpanEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanEvent, len(s.events))
	copy(out, s.events)
	return out
}

// Elapsed reports how long the span has been open.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.Start)
}

// SpanRecord is one finished span as held by a TraceRing.
type SpanRecord struct {
	Trace  traceid.ID
	Span   traceid.ID `json:",omitempty"`
	Parent traceid.ID `json:",omitempty"`
	Op     string
	Server string `json:",omitempty"`
	Remote string `json:",omitempty"`
	Start  time.Time
	Micros int64
	Err    string      `json:",omitempty"`
	Events []SpanEvent `json:",omitempty"`
}

// TraceRing is a bounded ring of recently finished spans — enough to
// follow one logical operation across federation hops without keeping
// unbounded history. Safe for concurrent use.
type TraceRing ring[SpanRecord]

func (t *TraceRing) r() *ring[SpanRecord] { return (*ring[SpanRecord])(t) }

// NewTraceRing returns a ring holding up to capacity records (64 when
// capacity <= 0).
func NewTraceRing(capacity int) *TraceRing {
	return (*TraceRing)(newRing[SpanRecord](capacity, 64))
}

// Add appends one finished span, displacing the oldest when full. The
// record's events are copied into the array its slot already holds, so
// once the ring has gone round an add allocates nothing, and the caller
// may reuse rec.Events as soon as Add returns.
func (t *TraceRing) Add(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.r().next()
	events := append(slot.Events[:0], rec.Events...)
	*slot = rec
	slot.Events = events
}

// Recent returns up to n records, oldest first (n <= 0 returns all).
// Each carries its own copy of its events.
func (t *TraceRing) Recent(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.r().tail(n)
	for i := range out {
		out[i].Events = slices.Clone(out[i].Events)
	}
	return out
}

// ForTrace returns every retained span of one trace, oldest first, each
// with its own copy of its events.
func (t *TraceRing) ForTrace(id traceid.ID) []SpanRecord {
	if t == nil || id == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	for i := 0; i < t.count; i++ {
		if rec := t.r().at(i); rec.Trace == id {
			rec.Events = slices.Clone(rec.Events)
			out = append(out, rec)
		}
	}
	return out
}

// End finishes the span into ring, stamping server/remote context, and
// returns the span's own events; the ring record holds a copy. Callers
// may read the slice (RecordPhases folds it) but not change it. It stays
// valid until the span is opened again, and events recorded after End
// reach neither it nor the record.
func (s *Span) End(ring *TraceRing, server, remote string, err error) []SpanEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	events := s.events[:len(s.events):len(s.events)]
	s.mu.Unlock()
	if ring == nil {
		return events
	}
	rec := SpanRecord{
		Trace:  s.Trace,
		Span:   s.ID,
		Parent: s.Parent,
		Op:     s.Op,
		Server: server,
		Remote: remote,
		Start:  s.Start,
		Micros: time.Since(s.Start).Microseconds(),
		Events: events,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	ring.Add(rec)
	return events
}

// SpanNode is one span with its resolved children — the unit of an
// assembled trace tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:",omitempty"`
}

// AssembleTree builds span trees from a flat record set, such as the
// union of several servers' ForTrace results. Records are linked
// child-to-parent by span ID; a record whose parent is absent from the
// set (the parent span is still open, was evicted from its ring, or
// lives on an unreachable server) becomes a root, so late-arriving
// children from federation peers never vanish. Roots and children are
// ordered by start time.
func AssembleTree(recs []SpanRecord) []*SpanNode {
	nodes := make(map[traceid.ID]*SpanNode, len(recs))
	var anon []*SpanNode // spans without IDs (pre-span-tree records)
	for i := range recs {
		n := &SpanNode{SpanRecord: recs[i]}
		if n.Span == 0 {
			anon = append(anon, n)
			continue
		}
		nodes[n.Span] = n
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if n.Parent != 0 {
			if p, ok := nodes[n.Parent]; ok && p != n {
				p.Children = append(p.Children, n)
				continue
			}
		}
		roots = append(roots, n)
	}
	roots = append(roots, anon...)
	byStart := func(ns []*SpanNode) func(i, j int) bool {
		return func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) }
	}
	sort.Slice(roots, byStart(roots))
	for _, n := range nodes {
		sort.Slice(n.Children, byStart(n.Children))
	}
	return roots
}

// WriteTree renders assembled span trees as indented text, one line
// per span with its events nested beneath — the format served by the
// admin /trace/{id} endpoint, `srb trace` and the slow-op log.
func WriteTree(w io.Writer, roots []*SpanNode) error {
	for _, n := range roots {
		if err := writeNode(w, n, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeNode(w io.Writer, n *SpanNode, depth int) error {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	line := fmt.Sprintf("%s%s [%s] %dus span=%s", indent, n.Op, n.Server, n.Micros, n.Span)
	if n.Err != "" {
		line += " err=" + n.Err
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, ev := range n.Events {
		evLine := fmt.Sprintf("%s  · +%dus %s", indent, ev.AtMicros, ev.Kind)
		if ev.Detail != "" {
			evLine += " " + ev.Detail
		}
		if _, err := fmt.Fprintln(w, evLine); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
