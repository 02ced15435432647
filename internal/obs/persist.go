// Durable telemetry: the flight recorder's on-disk history. The store
// is a compacting log (durable.Journal), as the catalog is, so the rollup
// ring, alert log, usage table and peer observatory survive restarts:
// `srb top -window 1h`, /grid and SLO burn math keep answering over
// pre-restart intervals.
//
// Layout under the telemetry dir:
//
//	telemetry.json      the compacted log: a {"Gen":N} head, then one line per rollup, alert or table
//	telemetry.journal   a {"Gen":N} head, then the lines appended since
//	incidents/          incident bundles (see incident.go)
//
// A flush appends only what is new (rollups and alerts carry forward a
// high-water mark; the small usage/peer/heat tables are written whole,
// last line wins on replay). Every telemetryCompactEvery flushes the
// store compacts: telemetry.json is published naming a new generation,
// then the journal is emptied under it. A crash between the two leaves
// the journal in the old generation, which restore drops as covered
// rather than replays. Replay is tolerant: a truncated or corrupt line
// is skipped, never fatal, so a crash mid-append costs at most the last
// flush. A telemetry.json an older binary wrote, one JSON document, is
// still read (readLegacy), and the first compaction replaces it.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gosrb/internal/durable"
)

// DefaultTelemetryFlush is the default cadence of the telemetry flush
// job (srbd wires it onto the repair scheduler).
const DefaultTelemetryFlush = 30 * time.Second

// telemetryCompactEvery: flushes between snapshot compactions. At the
// default 30s flush that is one compaction every ~10 minutes.
const telemetryCompactEvery = 20

// telemetryEntry is one line of the snapshot or the journal. Exactly one
// field is set.
type telemetryEntry struct {
	Rollup      *Rollup     `json:",omitempty"`
	Alert       *Alert      `json:",omitempty"`
	Usage       []UsageStat `json:",omitempty"`
	Peers       []PeerStat  `json:",omitempty"`
	HeatKeys    []HeatStat  `json:",omitempty"`
	HeatObjects []HeatStat  `json:",omitempty"`
}

// TelemetrySnapshot is the persisted state Restore read back.
type TelemetrySnapshot struct {
	Rollups     []Rollup
	Alerts      []Alert
	Usage       []UsageStat
	Peers       []PeerStat
	HeatKeys    []HeatStat
	HeatObjects []HeatStat
}

// TelemetryStore owns the on-disk telemetry history of one daemon.
// Safe for concurrent use; Flush and Close serialise on one lock.
type TelemetryStore struct {
	dir       string
	retention time.Duration

	// ReplaySkipped counts the corrupt or truncated lines Restore skipped
	// (boot logs it).
	ReplaySkipped int

	mu      sync.Mutex
	journal *durable.Journal
	// line holds the entry being appended, encoded by enc, so a flush
	// allocates no line of its own.
	line       bytes.Buffer
	enc        *json.Encoder
	lastRollup time.Time
	alertsSeen int64
	flushes    int
}

// OpenTelemetryStore opens (creating as needed) the telemetry store in
// dir. retention bounds how far back rollups, alerts and incident
// bundles are kept at compaction (0 keeps everything the ring retains).
func OpenTelemetryStore(dir string, retention time.Duration) (*TelemetryStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := durable.OpenJournal(filepath.Join(dir, "telemetry.journal"))
	if err != nil {
		return nil, err
	}
	ts := &TelemetryStore{dir: dir, retention: retention, journal: j}
	ts.enc = json.NewEncoder(&ts.line)
	return ts, nil
}

// Restore loads the snapshot and replays the journal into reg: the
// rollup ring is refilled, the live counters/gauges/ops are re-seeded
// from the newest rollup (so windowed deltas stay continuous across
// the restart instead of clamping to zero against a cumulative
// baseline), and the usage and peer tables are repopulated. The
// restored alerts are returned for the caller to seed its evaluator's
// log with — the evaluator does not exist yet at restore time. Call
// once, before the first Flush.
func (ts *TelemetryStore) Restore(reg *Registry) (*TelemetrySnapshot, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	snap, err := ts.load()
	if err != nil {
		return nil, err
	}
	for _, ru := range snap.Rollups {
		reg.Rollups().Add(ru)
	}
	if n := len(snap.Rollups); n > 0 {
		reg.seedFrom(snap.Rollups[n-1])
		ts.lastRollup = snap.Rollups[n-1].At
	}
	reg.Usage().Restore(snap.Usage)
	reg.Peers().Restore(snap.Peers)
	reg.HeatKeys().Restore(snap.HeatKeys)
	reg.HeatObjects().Restore(snap.HeatObjects)
	ts.alertsSeen = int64(len(snap.Alerts))
	return snap, nil
}

// load reads telemetry.json, then the journal unless telemetry.json
// covers it (durable.Journal.Resume). An unreadable file or a corrupt
// line contributes nothing instead of failing the boot; a journal that
// cannot be emptied fails it. The caller holds ts.mu.
func (ts *TelemetryStore) load() (*TelemetrySnapshot, error) {
	snap, held := new(TelemetrySnapshot), func(*telemetryEntry) bool { return false }
	b, err := os.ReadFile(filepath.Join(ts.dir, "telemetry.json"))
	first, _, _ := bytes.Cut(b, []byte{'\n'})
	gen, ok := durable.ReadHead(first)
	switch {
	case ok:
		ts.ReplaySkipped, _ = durable.Replay(bytes.NewReader(b), snap.apply(held))
	case err == nil:
		held = snap.readLegacy(b)
	}
	return snap, ts.journal.Resume(gen, func(r io.Reader) error {
		n, _ := durable.Replay(r, snap.apply(held))
		ts.ReplaySkipped += n
		return nil
	})
}

// apply returns a replay callback that takes each line into s but the
// ones held says s holds already: a rollup or an alert after those
// before it, a table whole (the last one wins).
func (s *TelemetrySnapshot) apply(held func(*telemetryEntry) bool) func([]byte) bool {
	return func(line []byte) bool {
		var e telemetryEntry
		if json.Unmarshal(line, &e) != nil {
			return false // truncated or corrupt: skip, keep going
		}
		switch {
		case held(&e):
		case e.Rollup != nil:
			s.Rollups = append(s.Rollups, *e.Rollup)
		case e.Alert != nil:
			s.Alerts = append(s.Alerts, *e.Alert)
		case e.Usage != nil:
			s.Usage = e.Usage
		case e.Peers != nil:
			s.Peers = e.Peers
		case e.HeatKeys != nil:
			s.HeatKeys = e.HeatKeys
		case e.HeatObjects != nil:
			s.HeatObjects = e.HeatObjects
		}
		return true
	}
}

// readLegacy reads b into s: a telemetry.json an older binary wrote, the
// whole state as one JSON document, beside a journal with no head. That
// binary published the document before it emptied the journal, so a
// crash between the two left the journal's rollups and alerts in both,
// and no generation tells. held keeps that binary's rule: the document
// holds a rollup no newer than its newest, and an alert of its own at
// the same time, rule and transition.
func (s *TelemetrySnapshot) readLegacy(b []byte) (held func(*telemetryEntry) bool) {
	if json.Unmarshal(b, s) != nil {
		*s = TelemetrySnapshot{}
	}
	var newest time.Time
	if n := len(s.Rollups); n > 0 {
		newest = s.Rollups[n-1].At
	}
	alerts := s.Alerts
	return func(e *telemetryEntry) bool {
		return e.Rollup != nil && !e.Rollup.At.After(newest) ||
			e.Alert != nil && slices.ContainsFunc(alerts, func(a Alert) bool {
				return a.At.Equal(e.Alert.At) && a.Rule == e.Alert.Rule && a.Firing == e.Alert.Firing
			})
	}
}

// Flush appends everything new since the previous flush: rollups past
// the high-water mark, alert-log entries past the last flushed
// sequence, and the current tables. Every telemetryCompactEvery flushes
// it compacts instead. log may be nil (no SLO evaluator attached).
func (ts *TelemetryStore) Flush(reg *Registry, log *AlertLog, now time.Time) error {
	if ts == nil || reg == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.flushes++
	if ts.flushes%telemetryCompactEvery == 0 {
		return ts.compact(reg, log, now)
	}
	return ts.emit(reg, log, ts.lastRollup, ts.alertsSeen, time.Time{}, ts.append)
}

// emit hands put, as lines, the rollups captured after since, the
// alerts past sequence seen, each no older than cutoff, then each
// non-empty table whole, and moves the high-water marks past what put
// took. The caller holds ts.mu.
func (ts *TelemetryStore) emit(reg *Registry, log *AlertLog, since time.Time, seen int64, cutoff time.Time, put func(*telemetryEntry) error) error {
	rus := reg.Rollups().Recent(0)
	for i := range rus {
		if !rus[i].At.After(since) || rus[i].At.Before(cutoff) {
			continue
		}
		if err := put(&telemetryEntry{Rollup: &rus[i]}); err != nil {
			return err
		}
		ts.lastRollup = rus[i].At
	}
	if log != nil {
		// Restored alerts are re-seeded into the live log at boot, so the
		// live log is the single source of alert history.
		alerts, total := log.TailAfter(seen)
		for i := range alerts {
			if alerts[i].At.Before(cutoff) {
				continue
			}
			if err := put(&telemetryEntry{Alert: &alerts[i]}); err != nil {
				return err
			}
			ts.alertsSeen = total - int64(len(alerts)-1-i)
		}
		ts.alertsSeen = total
	}
	tables := []telemetryEntry{
		{Usage: reg.Usage().Snapshot()}, {Peers: reg.Peers().Snapshot()},
		{HeatKeys: reg.HeatKeys().Snapshot()}, {HeatObjects: reg.HeatObjects().Snapshot()},
	}
	for i := range tables {
		e := &tables[i]
		if len(e.Usage)+len(e.Peers)+len(e.HeatKeys)+len(e.HeatObjects) == 0 {
			continue
		}
		if err := put(e); err != nil {
			return err
		}
	}
	return nil
}

// compact publishes telemetry.json from live state, pruned to retention,
// and empties the journal (durable.Journal.Compact). A snapshot that is
// not published leaves the high-water marks where they were, so the next
// flush journals what it would have held. A journal that cannot be
// emptied is closed, and fails every later flush. The caller holds ts.mu.
func (ts *TelemetryStore) compact(reg *Registry, log *AlertLog, now time.Time) error {
	cutoff := time.Time{}
	if ts.retention > 0 {
		cutoff = now.Add(-ts.retention)
	}
	lastRollup, alertsSeen := ts.lastRollup, ts.alertsSeen
	err := ts.journal.Compact(filepath.Join(ts.dir, "telemetry.json"), func(w io.Writer, gen uint64) error {
		bw := bufio.NewWriter(w)
		bw.Write(durable.AppendHead(nil, gen))
		enc := json.NewEncoder(bw)
		if err := ts.emit(reg, log, time.Time{}, 0, cutoff, func(e *telemetryEntry) error { return enc.Encode(e) }); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		ts.lastRollup, ts.alertsSeen = lastRollup, alertsSeen
	}
	return err
}

// append writes e as one journal line. The caller holds ts.mu.
func (ts *TelemetryStore) append(e *telemetryEntry) error {
	ts.line.Reset()
	if err := ts.enc.Encode(e); err != nil {
		return err
	}
	return ts.journal.Append(ts.line.Bytes())
}

// Close compacts one final time (so a clean shutdown persists right up
// to the last capture) and releases the journal.
func (ts *TelemetryStore) Close(reg *Registry, log *AlertLog, now time.Time) error {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var err error
	if reg != nil {
		err = ts.compact(reg, log, now)
	}
	if cerr := ts.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// seedFrom re-applies one rollup's cumulative values onto a freshly
// created registry, so live atomics resume where the previous process
// stopped and window deltas against restored baselines stay exact.
func (r *Registry) seedFrom(ru Rollup) {
	if r == nil {
		return
	}
	for k, v := range ru.Counters {
		if strings.HasPrefix(k, "heat.") {
			// Heat counters are folded from the restored heat tables at
			// snapshot time, never registered live: seeding them here
			// would strand dead names once the sketch evicts the key.
			continue
		}
		c := r.Counter(k)
		c.Add(v - c.Value())
	}
	for k, v := range ru.Gauges {
		r.Gauge(k).Set(v)
	}
	for k, o := range ru.Ops {
		op := r.Op(k)
		op.count.Add(o.Count - op.count.Value())
		op.errs.Add(o.Errors - op.errs.Value())
		op.lat.count.Add(o.Count - op.lat.count.Load())
		op.lat.sumNano.Add(o.TotalMicros*1000 - op.lat.sumNano.Load())
		for i := range o.Buckets {
			op.lat.buckets[i].Add(o.Buckets[i] - op.lat.buckets[i].Load())
		}
	}
}
