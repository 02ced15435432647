// Package experiments implements the reproduction suite E1–E13 defined
// in DESIGN.md. The paper publishes no measurement tables (its two
// figures are screenshots), so each experiment regenerates one of the
// paper's measurable *claims* — container latency, catalog scaling,
// failover, load balancing, federation transparency, parallel
// transfer, synchronous replication, query operators, T-language
// processing and archive staging — or one ratio the reproduction itself
// claims (E11 pipelining and batching, E12 catalog sharding, E13
// asynchronous replication) as a table of synthetic-workload
// measurements. cmd/srbbench prints the tables; the shape tests beside
// them hold each table's floor on every `go test ./...`.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper text being exercised
	Columns []string
	Rows    [][]string
	Notes   string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// ms formats a duration in milliseconds with sane precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// ratio formats a speedup factor.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// throughputRow formats one row of a best-of-rounds throughput table:
// nOps ops took d, against the baseline cell's base.
func throughputRow(name string, nOps int, d, base time.Duration) []string {
	return []string{
		name, fmt.Sprintf("%d", nOps), ms(d),
		fmt.Sprintf("%.0f", float64(nOps)/d.Seconds()),
		ratio(base, d),
	}
}

// list is the suite in print order: each experiment's lower-case id and
// the function that regenerates its table at a given scale. All, ByID
// and srbbench's -e help (IDs) derive from it, so an experiment is one
// row here and cannot be listed but unreachable.
var list = []struct {
	ID  string
	Run func(scale int) Table
}{
	{"e1", E1ContainerWAN},
	{"e1a", E1aContainerMemberSize},
	{"e2", E2CatalogScaling},
	{"e3", E3Failover},
	{"e4", E4LoadBalance},
	{"e5", E5Federation},
	{"e6", E6ParallelTransfer},
	{"e7", E7SyncIngest},
	{"e8", E8MetadataQuery},
	{"e9", E9TLang},
	{"e10", E10ArchiveCache},
	{"e11", E11WirePipelining},
	{"e12", E12ShardedCatalog},
	{"e13", E13AsyncIngest},
}

// aliases name the ablations that print inside another experiment's
// table.
var aliases = map[string]string{"e4a": "e4", "e5a": "e5"}

// All runs every experiment at the given scale (1 = test-friendly; the
// srbbench CLI uses larger scales for paper-shaped sweeps).
func All(scale int) []Table {
	out := make([]Table, len(list))
	for i, e := range list {
		out[i] = e.Run(scale)
	}
	return out
}

// ByID runs one experiment by its lower-case id ("e1", "e4a", ...).
func ByID(id string, scale int) (Table, bool) {
	id = strings.ToLower(id)
	if a, ok := aliases[id]; ok {
		id = a
	}
	for _, e := range list {
		if e.ID == id {
			return e.Run(scale), true
		}
	}
	return Table{}, false
}

// IDs returns the experiment ids in print order, for help text.
func IDs() []string {
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.ID
	}
	return out
}
