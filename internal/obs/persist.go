// Durable telemetry: the flight recorder's on-disk history. The store
// follows the MCAT persistence discipline — a JSON snapshot plus an
// append-only JSON-line journal — so the rollup ring, alert log, usage
// table and peer observatory survive restarts: `srb top -window 1h`,
// /grid and SLO burn math keep answering over pre-restart intervals.
//
// Layout under the telemetry dir:
//
//	telemetry.json      full snapshot, rewritten atomically at compaction
//	telemetry.journal   entries appended since the snapshot
//	incidents/          incident bundles (see incident.go)
//
// A flush appends only what is new (rollups and alerts carry forward a
// high-water mark; the small usage/peer tables are written whole, last
// entry wins on replay). Every telemetryCompactEvery flushes the store
// compacts: snapshot first, then journal truncation — a crash between
// the two only leaves duplicate entries, which replay deduplicates.
// Replay is tolerant: a truncated or corrupt line is skipped, never
// fatal, so a crash mid-append costs at most the last flush.
package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gosrb/internal/durable"
)

// DefaultTelemetryFlush is the default cadence of the telemetry flush
// job (srbd/mysrbd wire it onto the repair scheduler).
const DefaultTelemetryFlush = 30 * time.Second

// telemetryCompactEvery: flushes between snapshot compactions. At the
// default 30s flush that is one compaction every ~10 minutes.
const telemetryCompactEvery = 20

// telemetryEntry is one journal line. Exactly one field is set.
type telemetryEntry struct {
	Rollup      *Rollup     `json:",omitempty"`
	Alert       *Alert      `json:",omitempty"`
	Usage       []UsageStat `json:",omitempty"`
	Peers       []PeerStat  `json:",omitempty"`
	HeatKeys    []HeatStat  `json:",omitempty"`
	HeatObjects []HeatStat  `json:",omitempty"`
}

// TelemetrySnapshot is the full persisted state.
type TelemetrySnapshot struct {
	SavedAt     time.Time
	Server      string
	Rollups     []Rollup    `json:",omitempty"`
	Alerts      []Alert     `json:",omitempty"`
	Usage       []UsageStat `json:",omitempty"`
	Peers       []PeerStat  `json:",omitempty"`
	HeatKeys    []HeatStat  `json:",omitempty"`
	HeatObjects []HeatStat  `json:",omitempty"`
}

// TelemetryStore owns the on-disk telemetry history of one daemon.
// Safe for concurrent use; Flush and Close serialise on one lock.
type TelemetryStore struct {
	dir       string
	server    string
	retention time.Duration

	// ReplaySkipped counts the corrupt or truncated journal lines Restore
	// skipped (boot logs it).
	ReplaySkipped int

	mu  sync.Mutex
	log *durable.Log
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
func OpenTelemetryStore(dir, server string, retention time.Duration) (*TelemetryStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := durable.OpenLog(filepath.Join(dir, "telemetry.journal"))
	if err != nil {
		return nil, err
	}
	ts := &TelemetryStore{dir: dir, server: server, retention: retention, log: log}
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
	if ts == nil {
		return &TelemetrySnapshot{}, nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	snap := ts.load()
	if reg != nil {
		if n := len(snap.Rollups); n > 0 {
			reg.seedFrom(snap.Rollups[n-1])
			reg.Rollups().Restore(snap.Rollups)
			ts.lastRollup = snap.Rollups[n-1].At
		}
		reg.Usage().Restore(snap.Usage)
		reg.Peers().Restore(snap.Peers)
		reg.HeatKeys().Restore(snap.HeatKeys)
		reg.HeatObjects().Restore(snap.HeatObjects)
	}
	ts.alertsSeen = int64(len(snap.Alerts))
	return snap, nil
}

// load reads snapshot + journal, merging tolerantly: unreadable files
// and corrupt lines contribute nothing instead of failing the boot.
func (ts *TelemetryStore) load() *TelemetrySnapshot {
	snap := &TelemetrySnapshot{Server: ts.server}
	if b, err := os.ReadFile(filepath.Join(ts.dir, "telemetry.json")); err == nil {
		var s TelemetrySnapshot
		if json.Unmarshal(b, &s) == nil {
			snap = &s
		}
	}
	if f, err := os.Open(filepath.Join(ts.dir, "telemetry.journal")); err == nil {
		ts.ReplaySkipped, _ = durable.Replay(f, func(line []byte) bool {
			var e telemetryEntry
			if json.Unmarshal(line, &e) != nil {
				return false // truncated or corrupt tail: skip, keep going
			}
			switch {
			case e.Rollup != nil:
				snap.Rollups = append(snap.Rollups, *e.Rollup)
			case e.Alert != nil:
				snap.Alerts = append(snap.Alerts, *e.Alert)
			case e.Usage != nil:
				snap.Usage = e.Usage // whole-table entries: last wins
			case e.Peers != nil:
				snap.Peers = e.Peers
			case e.HeatKeys != nil:
				snap.HeatKeys = e.HeatKeys
			case e.HeatObjects != nil:
				snap.HeatObjects = e.HeatObjects
			}
			return true
		})
		f.Close()
	}
	snap.Rollups = dedupRollups(snap.Rollups)
	return snap
}

// dedupRollups sorts by capture time and drops duplicates — compaction
// overlap (snapshot + journal both holding an entry) is expected.
func dedupRollups(rus []Rollup) []Rollup {
	if len(rus) == 0 {
		return nil
	}
	sort.Slice(rus, func(i, j int) bool { return rus[i].At.Before(rus[j].At) })
	out := rus[:1]
	for _, r := range rus[1:] {
		if !r.At.Equal(out[len(out)-1].At) {
			out = append(out, r)
		}
	}
	return out
}

// Flush appends everything new since the previous flush: rollups past
// the high-water mark, alert-log entries past the last flushed
// sequence, and the current usage/peer tables. Every
// telemetryCompactEvery flushes it compacts instead. log may be nil
// (no SLO evaluator attached).
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
	for _, ru := range reg.Rollups().Recent(0) {
		if !ru.At.After(ts.lastRollup) {
			continue
		}
		r := ru
		if err := ts.append(telemetryEntry{Rollup: &r}); err != nil {
			return err
		}
		ts.lastRollup = ru.At
	}
	if log != nil {
		fresh, total := log.TailAfter(ts.alertsSeen)
		for _, a := range fresh {
			al := a
			if err := ts.append(telemetryEntry{Alert: &al}); err != nil {
				return err
			}
		}
		ts.alertsSeen = total
	}
	for _, e := range []telemetryEntry{
		{Usage: reg.Usage().Snapshot()}, {Peers: reg.Peers().Snapshot()},
		{HeatKeys: reg.HeatKeys().Snapshot()}, {HeatObjects: reg.HeatObjects().Snapshot()},
	} {
		if len(e.Usage)+len(e.Peers)+len(e.HeatKeys)+len(e.HeatObjects) == 0 {
			continue
		}
		if err := ts.append(e); err != nil {
			return err
		}
	}
	return nil
}

// compact rewrites the snapshot from live state (pruned to retention)
// and truncates the journal. The caller holds ts.mu.
func (ts *TelemetryStore) compact(reg *Registry, log *AlertLog, now time.Time) error {
	cutoff := time.Time{}
	if ts.retention > 0 {
		cutoff = now.Add(-ts.retention)
	}
	snap := TelemetrySnapshot{SavedAt: now, Server: ts.server}
	for _, ru := range reg.Rollups().Recent(0) {
		if ru.At.Before(cutoff) {
			continue
		}
		snap.Rollups = append(snap.Rollups, ru)
		if ru.At.After(ts.lastRollup) {
			ts.lastRollup = ru.At
		}
	}
	// Restored alerts are re-seeded into the live log at boot, so the
	// live log is the single source of alert history here.
	if log != nil {
		for _, a := range log.Recent(0) {
			if a.At.Before(cutoff) {
				continue
			}
			snap.Alerts = append(snap.Alerts, a)
		}
		ts.alertsSeen = log.Total()
	}
	snap.Usage = reg.Usage().Snapshot()
	snap.Peers = reg.Peers().Snapshot()
	snap.HeatKeys = reg.HeatKeys().Snapshot()
	snap.HeatObjects = reg.HeatObjects().Snapshot()

	b, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := replaceFile(filepath.Join(ts.dir, "telemetry.json"), b); err != nil {
		return err
	}
	// Snapshot published: start a fresh journal. A crash before this
	// point leaves the old journal whole — replay dedups the overlap. A
	// journal that cannot be reopened fails every later flush.
	return ts.log.Truncate()
}

// replaceFile publishes b as the contents of path (durable.Replace).
func replaceFile(path string, b []byte) error {
	return durable.Replace(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// append writes e as one journal line. The caller holds ts.mu.
func (ts *TelemetryStore) append(e telemetryEntry) error {
	ts.line.Reset()
	if err := ts.enc.Encode(e); err != nil {
		return err
	}
	return ts.log.Append(ts.line.Bytes())
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
	if cerr := ts.log.Close(); err == nil {
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

// Restore refills the ring from persisted rollups, oldest first. The
// caller seeds the live registry separately (seedFrom) so WindowAt
// deltas against these baselines stay consistent.
func (rr *RollupRing) Restore(rus []Rollup) {
	if rr == nil {
		return
	}
	for _, ru := range rus {
		rr.Add(ru)
	}
}
