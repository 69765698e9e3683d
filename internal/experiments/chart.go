package experiments

import (
	"fmt"
	"math"
	"strings"
)

// chart geometry defaults.
const (
	chartWidth  = 64 // plot columns
	chartHeight = 16 // plot rows
)

// seriesGlyphs mark the curves, one glyph per series in order.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '$', '~'}

// overlapGlyph marks cells where points of two or more different series
// land; the legend explains it only when at least one such cell exists.
const overlapGlyph = '?'

// RenderChart draws the table's series as an ASCII scatter chart with a
// shared linear scale, followed by a legend. It complements Render for
// terminal-only environments where figure shape matters more than exact
// values. Tables with no points render as an empty-chart notice.
func (t *Table) RenderChart() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	xmin, xmax, ymin, ymax, any := t.bounds()
	if !any {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	const (
		cellEmpty   = -1
		cellOverlap = -2
	)
	grid := make([][]byte, chartHeight)
	owner := make([][]int, chartHeight) // cellEmpty, a series index, or cellOverlap
	for r := range grid {
		grid[r] = bytes(' ', chartWidth)
		owner[r] = make([]int, chartWidth)
		for c := range owner[r] {
			owner[r][c] = cellEmpty
		}
	}
	overlap := false
	for si, s := range t.series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range s.Points {
			col := int(math.Round((p.X - xmin) / (xmax - xmin) * float64(chartWidth-1)))
			row := chartHeight - 1 - int(math.Round((p.Y-ymin)/(ymax-ymin)*float64(chartHeight-1)))
			if col < 0 || col >= chartWidth || row < 0 || row >= chartHeight {
				continue
			}
			switch owner[row][col] {
			case cellEmpty, si:
				owner[row][col] = si
				grid[row][col] = glyph
			default:
				// Two different series in one cell: render the dedicated
				// overlap glyph instead of letting the later series win.
				owner[row][col] = cellOverlap
				grid[row][col] = overlapGlyph
				overlap = true
			}
		}
	}
	topLabel := formatCell(ymax)
	bottomLabel := formatCell(ymin)
	labelWidth := len(topLabel)
	if len(bottomLabel) > labelWidth {
		labelWidth = len(bottomLabel)
	}
	for r := 0; r < chartHeight; r++ {
		label := strings.Repeat(" ", labelWidth)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelWidth, topLabel)
		case chartHeight - 1:
			label = fmt.Sprintf("%*s", labelWidth, bottomLabel)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", labelWidth))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", chartWidth))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s  %s = %s .. %s\n",
		strings.Repeat(" ", labelWidth), t.XLabel, formatCell(xmin), formatCell(xmax))
	for si, s := range t.series {
		fmt.Fprintf(&b, "  %c %s\n", seriesGlyphs[si%len(seriesGlyphs)], s.Name)
	}
	if overlap {
		fmt.Fprintf(&b, "  %c multiple series share the cell\n", overlapGlyph)
	}
	return b.String()
}

// bounds returns the data extent across all series.
func (t *Table) bounds() (xmin, xmax, ymin, ymax float64, any bool) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range t.series {
		for _, p := range s.Points {
			any = true
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymin = math.Min(ymin, p.Y)
			ymax = math.Max(ymax, p.Y)
		}
	}
	return xmin, xmax, ymin, ymax, any
}

func bytes(fill byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}
