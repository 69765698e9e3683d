package experiments

import (
	"strings"
	"testing"
)

func TestObsTableScrapeMatchesODE(t *testing.T) {
	tbl, err := ObsTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Title, "delivery delay p50=") {
		t.Errorf("title missing delay percentiles: %q", tbl.Title)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series() {
		for _, p := range s.Points {
			series[s.Name] = append(series[s.Name], p.Y)
		}
	}
	for _, name := range []string{"scraped blocks/peer", "ODE e(t)", "scraped empty fraction", "ODE z0(t)"} {
		if len(series[name]) < 10 {
			t.Fatalf("series %q has %d points", name, len(series[name]))
		}
	}
	// The scraped steady-state occupancy must track the ODE's e(t); the
	// tiny population keeps the tolerance loose.
	simLast := mean(tail(series["scraped blocks/peer"], 5))
	odeLast := mean(tail(series["ODE e(t)"], 5))
	if simLast < 0.5*odeLast || simLast > 2*odeLast {
		t.Errorf("scraped occupancy %.2f vs ODE %.2f: obs pipeline off", simLast, odeLast)
	}
}

// TestObsTableRowsOverlay: every row of the quick A7 table carries both a
// scraped value and an ODE value, so the two curves share their time marks.
func TestObsTableRowsOverlay(t *testing.T) {
	tbl, err := ObsTable(Options{N: 40, Quick: true, Horizon: 12, Warmup: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range tbl.xValues() {
		for _, s := range tbl.Series() {
			if _, ok := tbl.lookup(s, x); !ok {
				t.Errorf("row t=%v has no %q value", x, s.Name)
			}
		}
	}
}

func tail(v []float64, n int) []float64 {
	if len(v) < n {
		return v
	}
	return v[len(v)-n:]
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
