package mysrb

import (
	"fmt"
	"html/template"
	"io"
	"sort"

	"gosrb/internal/report"
	"gosrb/internal/wire"
)

// drawActivity adds to the grid console what the grid reply does not
// carry: the window picker, and this server's per-op request-rate
// sparklines from its own rollup ring — one glyph per capture interval,
// newest to the right (peers contribute bucket distributions, not
// capture history).
func (a *App) drawActivity(w io.Writer, reply any) {
	if _, ok := reply.(wire.GridStatReply); !ok {
		return
	}
	fmt.Fprint(w, `<p>windows: <a href="/grid?window=1m">1m</a> <a href="/grid?window=5m">5m</a> <a href="/grid?window=30m">30m</a> <a href="/grid?window=6h">6h</a></p>`)
	recent := a.broker.Metrics().Rollups().Recent(33)
	if len(recent) < 2 {
		return
	}
	var ops []string
	for op := range recent[len(recent)-1].Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprint(w, `<p>local activity:</p><table border="1" cellpadding="3"><tr><th>op</th><th>activity</th></tr>`)
	for _, op := range ops {
		series := make([]int64, len(recent)-1)
		for i := 1; i < len(recent); i++ {
			series[i-1] = max(0, recent[i].Ops[op].Count-recent[i-1].Ops[op].Count)
		}
		if s := report.Spark(series); s != "" {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>", template.HTMLEscapeString(op), s)
		}
	}
	fmt.Fprint(w, "</table>")
}
