package obs

import (
	"bytes"
	"strings"
	"testing"
)

func lintString(s string) error { return LintExposition(strings.NewReader(s)) }

func TestLintAcceptsWellFormedExposition(t *testing.T) {
	good := `# TYPE a_total counter
a_total{endpoint="n1"} 3
a_total{endpoint="n2"} 4
# TYPE b gauge
b 1.5
# TYPE c histogram
c_bucket{le="0.1"} 1
c_bucket{le="+Inf"} 2
c_sum 0.3
c_count 2
`
	if err := lintString(good); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
}

func TestLintRejectsMalformedExpositions(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"duplicate TYPE", "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"},
		{"split family", "# TYPE x counter\nx 1\n# TYPE y gauge\ny 2\nx 3\n"},
		{"bad metric name", "# TYPE 9x counter\n9x 1\n"},
		{"bad value", "# TYPE x counter\nx one\n"},
		{"unclosed label", "# TYPE x counter\nx{a=\"1 2\n"},
		{"sample without TYPE", "x 1\n"},
		{"non-cumulative histogram", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"histogram missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"count disagrees with +Inf", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
	}
	for _, tc := range cases {
		if err := lintString(tc.text); err == nil {
			t.Errorf("%s: lint passed:\n%s", tc.name, tc.text)
		}
	}
}

// TestMultiRegistryExpositionHasOneTypeLinePerFamily: rendering each
// endpoint of a shared debug port on its own would emit one "# TYPE" line
// per endpoint for the same family — which the format forbids and real
// scrapers reject. WriteExposition must group families across snapshots,
// and the result must pass the lint.
func TestMultiRegistryExpositionHasOneTypeLinePerFamily(t *testing.T) {
	r1 := NewRegistry("node-1")
	r1.Gauge("bufferedBlocks").Set(3)
	r1.Histogram("pullRTT", DelayBuckets()).Observe(0.01)
	r2 := NewRegistry("node-2")
	r2.Gauge("bufferedBlocks").Set(5)
	r2.Histogram("pullRTT", DelayBuckets()).Observe(0.02)

	var buf bytes.Buffer
	WriteExposition(&buf, r1.Snapshot(), r2.Snapshot())
	text := buf.String()
	if n := strings.Count(text, "# TYPE p2p_bufferedBlocks gauge"); n != 1 {
		t.Fatalf("%d TYPE lines for bufferedBlocks, want 1:\n%s", n, text)
	}
	if n := strings.Count(text, "# TYPE p2p_pullRTT histogram"); n != 1 {
		t.Fatalf("%d TYPE lines for pullRTT, want 1:\n%s", n, text)
	}
	if !strings.Contains(text, `p2p_bufferedBlocks{endpoint="node-1"} 3`) ||
		!strings.Contains(text, `p2p_bufferedBlocks{endpoint="node-2"} 5`) {
		t.Fatalf("per-endpoint samples missing:\n%s", text)
	}
	if err := lintString(text); err != nil {
		t.Fatalf("multi-registry exposition fails lint: %v\n%s", err, text)
	}
}
