package mysrb

import (
	"fmt"
	"html/template"
	"io"
	"net/http"

	"gosrb/internal/report"
	"gosrb/internal/wire"
)

// statusNav links the status pages to each other.
const statusNav = `<p><a href="/status">server status</a> &middot; <a href="/usage">usage accounting</a> &middot; <a href="/shards">catalog shards</a> &middot; <a href="/heat">heat observatory</a> &middot; <a href="/grid">grid console</a> &middot; <a href="/peers">peer observatory</a> &middot; <a href="/incidents">incidents</a> &middot; <a href="/browse">back to browsing</a></p>`

// statusPage builds the handler of a status page out of report rows —
// the same feeds `srb` and the srbd admin endpoint serve: each named feed
// is produced from the app's env (the request's query supplies its
// parameters) and its rendering drawn as HTML tables. draw, when set,
// adds what a table cannot: it runs on each reply before the tables.
func (a *App) statusPage(title string, draw func(w io.Writer, reply any), feeds ...string) func(http.ResponseWriter, *http.Request, string) {
	rows := make([]*report.Report, len(feeds))
	for i, name := range feeds {
		if rows[i] = report.Lookup(name); rows[i] == nil {
			panic("mysrb: no report row named " + name)
		}
	}
	return func(w http.ResponseWriter, r *http.Request, user string) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><head><title>mySRB %s</title></head><body>\n<h2>%s — %s</h2>\n%s",
			title, title, template.HTMLEscapeString(a.env.Name), statusNav)
		for _, rp := range rows {
			rep, err := rp.Produce(a.env, r.URL.Query())
			if err != nil {
				fmt.Fprintf(w, "<p>%s</p>", template.HTMLEscapeString(err.Error()))
				continue
			}
			if draw != nil {
				draw(w, rep)
			}
			rp.Render(rep, r.URL.Query()).WriteHTML(w)
		}
		fmt.Fprint(w, "</body></html>")
	}
}

// drawShardHeat draws the per-shard heat join as bars above the heat
// observatory's tables.
func drawShardHeat(w io.Writer, reply any) {
	rep := reply.(wire.HeatReply)
	if len(rep.ShardHeat) == 0 {
		return
	}
	maxScore := float64(0)
	for _, sh := range rep.ShardHeat {
		maxScore = max(maxScore, sh.Score)
	}
	fmt.Fprint(w, `<h3>Shard heat</h3><table border="1" cellpadding="3">
<tr><th>shard</th><th>heat</th><th>score</th><th>hot keys</th><th>objects</th></tr>`)
	for _, sh := range rep.ShardHeat {
		pct := 0
		if maxScore > 0 {
			pct = int(sh.Score / maxScore * 100)
		}
		fmt.Fprintf(w, `<tr><td>%d</td><td><div style="width:200px;background:#eee"><div style="width:%d%%;background:#c33;color:#fff;white-space:nowrap">&nbsp;</div></div></td><td>%.1f</td><td>%d</td><td>%d</td></tr>`,
			sh.Shard, pct, sh.Score, sh.HotKeys, sh.Objects)
	}
	fmt.Fprintf(w, "</table><p>Imbalance (hottest shard over mean): %.2fx</p>", rep.Imbalance)
}

// drawBundleLinks lists every incident bundle's members as download
// links (/incident?id=...&file=...) above the bundle index.
func drawBundleLinks(w io.Writer, reply any) {
	for _, m := range reply.(wire.IncidentsReply).Incidents {
		fmt.Fprintf(w, "<p>%s:", template.HTMLEscapeString(m.ID))
		for _, f := range m.Files {
			fmt.Fprintf(w, ` <a href="/incident?id=%s&amp;file=%s">%s</a>`,
				template.URLQueryEscaper(m.ID), template.URLQueryEscaper(f), template.HTMLEscapeString(f))
		}
		fmt.Fprint(w, "</p>")
	}
}
