package report

import (
	"fmt"
	"html/template"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"

	"gosrb/internal/obs"
)

// Doc is a report drawn for people: lines of prose and tables, in
// reading order. A report has one renderer, which builds a Doc;
// WriteText draws it for a terminal or a text/plain route and WriteHTML
// for a MySRB page.
type Doc []Block

// Block is one line of prose (Cols nil) or one table under its title.
type Block struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// line appends one line of prose.
func (d *Doc) line(format string, a ...any) {
	*d = append(*d, Block{Title: fmt.Sprintf(format, a...)})
}

// table starts a table; the caller fills it with row and appends it.
func table(title string, cols ...string) Block { return Block{Title: title, Cols: cols} }

// row appends one row; floats are formatted by the caller, everything
// else prints as %v.
func (b *Block) row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	b.Rows = append(b.Rows, row)
}

// numeric reports whether a cell reads as a number (or is blank), so a
// column of such cells is right-aligned.
func numeric(s string) bool {
	_, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return err == nil || s == ""
}

// WriteText draws the document in fixed-width columns: a column is as
// wide as its widest cell, and right-aligned when every cell in it is a
// number. A blank line sets each table off from what precedes it.
func (d Doc) WriteText(w io.Writer) {
	for i, b := range d {
		if i > 0 && len(b.Cols) > 0 {
			fmt.Fprintln(w)
		}
		if b.Title != "" {
			fmt.Fprintln(w, b.Title)
		}
		width := make([]int, len(b.Cols))
		right := make([]bool, len(b.Cols))
		for i, c := range b.Cols {
			width[i], right[i] = utf8.RuneCountInString(c), true
		}
		for _, row := range b.Rows {
			for i, c := range row {
				width[i] = max(width[i], utf8.RuneCountInString(c))
				right[i] = right[i] && numeric(c)
			}
		}
		line := func(cells []string) {
			var sb strings.Builder
			for i, c := range cells {
				if right[i] {
					fmt.Fprintf(&sb, "%*s ", width[i], c)
				} else {
					fmt.Fprintf(&sb, "%-*s ", width[i], c)
				}
			}
			fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		}
		if len(b.Cols) > 0 {
			line(b.Cols)
		}
		for _, row := range b.Rows {
			line(row)
		}
	}
}

// WriteHTML draws the document as paragraphs and bordered tables, every
// cell escaped.
func (d Doc) WriteHTML(w io.Writer) {
	for _, b := range d {
		if b.Title != "" {
			fmt.Fprintf(w, "<p>%s</p>", template.HTMLEscapeString(b.Title))
		}
		if len(b.Cols) == 0 {
			continue
		}
		fmt.Fprint(w, `<table border="1" cellpadding="3"><tr>`)
		for _, c := range b.Cols {
			fmt.Fprintf(w, "<th>%s</th>", template.HTMLEscapeString(c))
		}
		fmt.Fprint(w, "</tr>")
		for _, row := range b.Rows {
			fmt.Fprint(w, "<tr>")
			for _, c := range row {
				fmt.Fprintf(w, "<td>%s</td>", template.HTMLEscapeString(c))
			}
			fmt.Fprint(w, "</tr>")
		}
		fmt.Fprint(w, "</table>")
	}
}

// sparkGlyphs are the eight block heights a sparkline is drawn with.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as a unicode sparkline scaled to the series max.
func Spark(vals []int64) string {
	var top int64
	for _, v := range vals {
		top = max(top, v)
	}
	if top == 0 {
		return ""
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		idx := int(v * int64(len(sparkGlyphs)-1) / top)
		if v > 0 && idx == 0 {
			idx = 1 // any activity shows above the baseline
		}
		out[i] = sparkGlyphs[idx]
	}
	return string(out)
}

// latencySpark draws an op's windowed latency distribution from its
// pow-2 bucket deltas, one glyph per bucket from the lowest to the
// highest that holds a sample — available for every zone member, since
// the buckets ride the wire for grid-quantile merging.
func latencySpark(bs []obs.BucketCount) string {
	if len(bs) == 0 {
		return ""
	}
	slot := func(b obs.BucketCount) int { return bits.Len64(uint64(b.UpperMicros)) - 1 }
	lo, hi := slot(bs[0]), slot(bs[0])
	for _, b := range bs {
		lo, hi = min(lo, slot(b)), max(hi, slot(b))
	}
	vals := make([]int64, hi-lo+1)
	for _, b := range bs {
		vals[slot(b)-lo] = b.Count
	}
	return Spark(vals)
}
