package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (X, Y) observation of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table renders a set of series sharing an X column, mirroring how the
// paper's figures tabulate one curve per parameter setting.
type Table struct {
	Title  string
	XLabel string
	series []*Series
}

// NewTable returns an empty table.
func NewTable(title, xLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel}
}

// AddSeries registers a curve and returns it for population.
func (t *Table) AddSeries(name string) *Series {
	s := &Series{Name: name}
	t.series = append(t.series, s)
	return s
}

// Series returns the registered curves.
func (t *Table) Series() []*Series { return t.series }

// xValues returns the sorted union of X coordinates across all series.
func (t *Table) xValues() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range t.series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func (t *Table) lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Render formats the table as aligned text. Missing cells render as "-".
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	headers := []string{t.XLabel}
	for _, s := range t.series {
		headers = append(headers, s.Name)
	}
	rows := [][]string{headers}
	for _, x := range t.xValues() {
		row := []string{formatCell(x)}
		for _, s := range t.series {
			if y, ok := t.lookup(s, x); ok {
				row = append(row, formatCell(y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCSV formats the table as CSV with the same layout as Render.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range t.xValues() {
		b.WriteString(formatCell(x))
		for _, s := range t.series {
			b.WriteByte(',')
			if y, ok := t.lookup(s, x); ok {
				b.WriteString(formatCell(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
