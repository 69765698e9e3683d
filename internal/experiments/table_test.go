package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig X", "s")
	a := tbl.AddSeries("analysis")
	b := tbl.AddSeries("sim")
	a.Add(1, 0.5)
	a.Add(2, 0.75)
	b.Add(1, 0.48)
	out := tbl.Render()
	if !strings.Contains(out, "# Fig X") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, 2 data rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "s") || !strings.Contains(lines[1], "analysis") {
		t.Errorf("bad header: %q", lines[1])
	}
	if !strings.Contains(lines[3], "-") {
		t.Errorf("missing cell not rendered as '-': %q", lines[3])
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("", "mu")
	s := tbl.AddSeries(`c=8, "severe"`)
	s.Add(2, 0.25)
	out := tbl.RenderCSV()
	want := "mu,\"c=8, \"\"severe\"\"\"\n2,0.25\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestTableXUnionSorted(t *testing.T) {
	tbl := NewTable("", "x")
	a := tbl.AddSeries("a")
	a.Add(3, 1)
	a.Add(1, 1)
	b := tbl.AddSeries("b")
	b.Add(2, 1)
	xs := tbl.xValues()
	if len(xs) != 3 || xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Errorf("xValues = %v", xs)
	}
}

func TestFormatCell(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{0.5, "0.5"},
		{0.123456, "0.1235"},
		{-2, "-2"},
	}
	for _, tt := range tests {
		if got := formatCell(tt.v); got != tt.want {
			t.Errorf("formatCell(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestRenderChartBasics(t *testing.T) {
	tbl := NewTable("Shape", "s")
	a := tbl.AddSeries("rising")
	for i := 1; i <= 10; i++ {
		a.Add(float64(i), float64(i)*0.1)
	}
	b := tbl.AddSeries("flat")
	for i := 1; i <= 10; i++ {
		b.Add(float64(i), 0.5)
	}
	out := tbl.RenderChart()
	if !strings.Contains(out, "# Shape") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "* rising") || !strings.Contains(out, "o flat") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "s = 1 .. 10") {
		t.Errorf("missing x range:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	plotLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines++
		}
	}
	if plotLines != chartHeight {
		t.Errorf("plot rows = %d, want %d", plotLines, chartHeight)
	}
}

func TestRenderChartEmpty(t *testing.T) {
	tbl := NewTable("Empty", "x")
	tbl.AddSeries("nothing")
	if out := tbl.RenderChart(); !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart output:\n%s", out)
	}
}

func TestRenderChartConstantSeries(t *testing.T) {
	// Degenerate extent (single point, flat line) must not divide by zero.
	tbl := NewTable("", "x")
	s := tbl.AddSeries("dot")
	s.Add(5, 7)
	out := tbl.RenderChart()
	if !strings.Contains(out, "* dot") {
		t.Errorf("single-point chart broken:\n%s", out)
	}
}
