package experiments

import (
	"strings"
	"testing"
)

func TestRenderChartOverlapGlyph(t *testing.T) {
	// Two series with identical points land on the same cells; every shared
	// cell must render the overlap glyph and the legend must explain it.
	tbl := NewTable("Overlap", "x")
	a := tbl.AddSeries("first")
	b := tbl.AddSeries("second")
	for i := 0; i <= 4; i++ {
		a.Add(float64(i), float64(i))
		b.Add(float64(i), float64(i))
	}
	out := tbl.RenderChart()
	if !strings.Contains(out, string(overlapGlyph)) {
		t.Fatalf("no overlap glyph rendered:\n%s", out)
	}
	if !strings.Contains(out, "multiple series share the cell") {
		t.Errorf("legend missing overlap note:\n%s", out)
	}
	// The colliding cells must not silently show the later series' glyph:
	// with fully identical series no plot cell may carry either glyph.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "|") {
			continue // legend and axis lines legitimately contain glyphs
		}
		if strings.ContainsAny(line, "*o") {
			t.Errorf("collision cell kept a series glyph: %q", line)
		}
	}
}

func TestRenderChartNoOverlapNote(t *testing.T) {
	// Disjoint series must not mention overlap in the legend.
	tbl := NewTable("", "x")
	a := tbl.AddSeries("low")
	b := tbl.AddSeries("high")
	for i := 0; i <= 4; i++ {
		a.Add(float64(i), 0)
		b.Add(float64(i), 100)
	}
	out := tbl.RenderChart()
	if strings.Contains(out, "multiple series share the cell") {
		t.Errorf("overlap note without any collision:\n%s", out)
	}
}

func TestRenderChartSameSeriesRepeatNotOverlap(t *testing.T) {
	// A series hitting its own cell twice is not a collision.
	tbl := NewTable("", "x")
	s := tbl.AddSeries("dup")
	s.Add(1, 1)
	s.Add(1, 1)
	out := tbl.RenderChart()
	if strings.Contains(out, string(overlapGlyph)) {
		t.Errorf("self-collision rendered the overlap glyph:\n%s", out)
	}
}
