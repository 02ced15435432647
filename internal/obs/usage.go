package obs

import (
	"encoding/json"
	"time"

	"gosrb/internal/traceid"
)

// UsageStat is the accumulated account for one (user, collection)
// pair: how many operations that principal ran against that part of
// the namespace, how many failed, how many bytes moved each way, and
// the total time spent. LastTrace joins the account back to the trace
// stream (and, through the trace-stamped audit records, to the audit
// log) — the paper's "audit usage of the collections/datasets"
// requirement answered with queryable numbers.
type UsageStat struct {
	User        string
	Collection  string
	Ops         int64
	Errors      int64
	BytesIn     int64
	BytesOut    int64
	TotalMicros int64
	LastTrace   traceid.ID `json:",omitempty"`
	LastOp      string     `json:",omitempty"`
}

// UnmarshalJSON reads a row back from a flight-recorder file or a usage
// reply. A LastTrace that is not an ID — a file written when a trace ID
// was whatever string the client sent — reads as no trace: the row keeps
// the rest, where a strict decode would cost the whole file.
func (u *UsageStat) UnmarshalJSON(b []byte) error {
	type plain UsageStat
	var row struct {
		plain
		LastTrace string
	}
	if err := json.Unmarshal(b, &row); err != nil {
		return err
	}
	*u = UsageStat(row.plain)
	u.LastTrace, _ = traceid.Parse(row.LastTrace)
	return nil
}

// usageKey identifies one accounting bucket.
type usageKey struct {
	user string
	coll string
}

// maxUsageKeys bounds the table; once full, new (user, collection)
// pairs fold into a catch-all "(other)" collection per user so the
// table cannot grow without limit under adversarial path churn.
const maxUsageKeys = 1024

// UsageTable accumulates per-user, per-collection usage. Safe for
// concurrent use; all methods tolerate a nil receiver.
type UsageTable table[usageKey, UsageStat]

func (u *UsageTable) t() *table[usageKey, UsageStat] { return (*table[usageKey, UsageStat])(u) }

// NewUsageTable returns an empty table: maxUsageKeys rows, plus 64 for
// the "(other)" rows of the users who overflow it.
func NewUsageTable() *UsageTable {
	return &UsageTable{m: make(map[usageKey]*UsageStat), max: maxUsageKeys + 64}
}

// Record accounts one completed operation to (user, collection).
func (u *UsageTable) Record(user, coll string, trace traceid.ID, op string, failed bool, bytesIn, bytesOut int64, d time.Duration) {
	if u == nil || user == "" {
		return
	}
	if coll == "" {
		coll = "-"
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	key := usageKey{user: user, coll: coll}
	st, ok := u.m[key]
	if !ok {
		if len(u.m) >= maxUsageKeys {
			key = usageKey{user: user, coll: "(other)"}
			if st, ok = u.m[key]; !ok && len(u.m) >= u.max {
				return // even the overflow rows are full; drop
			}
		}
		if st == nil {
			st = &UsageStat{User: key.user, Collection: key.coll}
			u.m[key] = st
		}
	}
	st.Ops++
	if failed {
		st.Errors++
	}
	st.BytesIn += bytesIn
	st.BytesOut += bytesOut
	st.TotalMicros += d.Microseconds()
	if trace != 0 {
		st.LastTrace = trace
	}
	if op != "" {
		st.LastOp = op
	}
}

// Snapshot returns every accounting row, sorted by user then
// collection for stable output.
func (u *UsageTable) Snapshot() []UsageStat {
	return u.t().snapshot(func(a, b *UsageStat) bool {
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Collection < b.Collection
	})
}

// Restore refills the table from persisted rows (telemetry boot replay).
func (u *UsageTable) Restore(rows []UsageStat) {
	u.t().restore(rows, func(st *UsageStat) (usageKey, bool) {
		return usageKey{user: st.User, coll: st.Collection}, st.User != ""
	})
}
