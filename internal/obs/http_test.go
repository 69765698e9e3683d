package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"p2pcollect/internal/rlnc"
)

// buildRegistry returns a registry exercising every exposed element.
func buildRegistry(label string) *Registry {
	r := NewRegistry(label)
	counters := map[string]int64{"pullsUseful": 12, "pullsEmpty": 3}
	r.RegisterCounters(func(f func(string, int64)) {
		f("pullsUseful", counters["pullsUseful"])
		f("pullsEmpty", counters["pullsEmpty"])
	})
	h := r.Histogram("deliveryDelay", []float64{1, 2, 4})
	h.Observe(1.5)
	h.Observe(3)
	g := r.Gauge("bufferOccupancy")
	g.Set(17)
	ts := r.TimeSeries("occupancy", 8)
	ts.Observe(1, 10)
	ts.Observe(2, 12)
	rt := NewRingTracer(16)
	rt.Trace(TraceEvent{Seg: rlnc.SegmentID{Origin: 1, Seq: 1}, Kind: TraceInject, T: 1})
	r.SetTracer(rt)
	r.SetInfo("policy", "blind")
	return r
}

func TestServeEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", buildRegistry("node-1"), buildRegistry("server"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`p2p_pullsUseful{endpoint="node-1"} 12`,
		`p2p_pullsUseful{endpoint="server"} 12`,
		`p2p_bufferOccupancy{endpoint="node-1"} 17`,
		`p2p_deliveryDelay_bucket{endpoint="node-1",le="2"} 1`,
		`p2p_deliveryDelay_count{endpoint="node-1"} 2`,
		`p2p_occupancy{endpoint="server"} 12`, // latest series sample as gauge
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	var snap struct {
		Endpoints []Snapshot `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(get("/debug/snapshot")), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if len(snap.Endpoints) != 2 {
		t.Fatalf("snapshot has %d endpoints, want 2", len(snap.Endpoints))
	}
	ep := snap.Endpoints[0]
	if ep.Label != "node-1" || ep.Counters["pullsUseful"] != 12 ||
		ep.Info["policy"] != "blind" || len(ep.TraceTail) != 1 {
		t.Errorf("snapshot endpoint = %+v", ep)
	}
	if len(ep.Histograms) != 1 || ep.Histograms[0].Count != 2 {
		t.Errorf("snapshot histograms = %+v", ep.Histograms)
	}
	if len(ep.Series) != 1 || len(ep.Series[0].Points) != 2 {
		t.Errorf("snapshot series = %+v", ep.Series)
	}

	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", pprofIdx)
	}
	if idx := get("/"); !strings.Contains(idx, "/metrics") {
		t.Errorf("index page missing route list:\n%s", idx)
	}
}

// TestExpositionIsAFunctionOfSnapshots pins the single read path: /metrics
// is byte-for-byte WriteExposition over the /debug/snapshot payload (after
// its trip through JSON), and carries exactly the sample lines the
// two-writer parent rendered straight from the live instruments
// (testdata/exposition_parent.txt; only the family order differs).
func TestExpositionIsAFunctionOfSnapshots(t *testing.T) {
	srv := httptest.NewServer(Handler(buildRegistry("node-1"), buildRegistry("server")))
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	metrics := get("/metrics")
	var doc struct {
		Endpoints []Snapshot `json:"endpoints"`
	}
	if err := json.Unmarshal(get("/debug/snapshot"), &doc); err != nil {
		t.Fatal(err)
	}
	var fromSnaps bytes.Buffer
	WriteExposition(&fromSnaps, doc.Endpoints...)
	if !bytes.Equal(metrics, fromSnaps.Bytes()) {
		t.Errorf("/metrics differs from WriteExposition(/debug/snapshot):\n%s\nvs\n%s", metrics, fromSnaps.Bytes())
	}
	parent, err := os.ReadFile("testdata/exposition_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(text []byte) string {
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if got, want := sorted(metrics), sorted(parent); got != want {
		t.Errorf("sample lines differ from the parent's exposition:\ngot\n%s\nwant\n%s", got, want)
	}
	if err := LintExposition(bytes.NewReader(metrics)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}

// TestSnapshotEncodeFailureIsClean500: a NaN gauge cannot be encoded as
// JSON. The handler must find that out before it starts the body — status
// 500, no partial document, and no "superfluous WriteHeader" complaint on
// the server's error log.
func TestSnapshotEncodeFailureIsClean500(t *testing.T) {
	r := NewRegistry("server")
	r.Gauge("bufferOccupancy").Set(math.NaN())
	var errLog bytes.Buffer
	srv := httptest.NewUnstartedServer(Handler(r))
	srv.Config.ErrorLog = log.New(&errLog, "", 0)
	srv.Start()
	resp, err := http.Get(srv.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close() // waits for the handler, so errLog is quiescent below
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	if strings.Contains(string(body), "{") {
		t.Errorf("error response carries partial JSON: %q", body)
	}
	if errLog.Len() != 0 {
		t.Errorf("server error log: %s", errLog.String())
	}
}

// hungUpWriter is a ResponseWriter whose client went away: every body
// write fails. It records explicit status writes.
type hungUpWriter struct {
	header   http.Header
	statuses []int
}

func (w *hungUpWriter) Header() http.Header        { return w.header }
func (w *hungUpWriter) Write([]byte) (int, error)  { return 0, io.ErrClosedPipe }
func (w *hungUpWriter) WriteHeader(statusCode int) { w.statuses = append(w.statuses, statusCode) }

// TestSnapshotWriteFailureSendsNoSecondStatus: when the scraper hangs up
// mid-body the handler must not follow the started 200 with a 500 (the
// "superfluous WriteHeader" line net/http used to log).
func TestSnapshotWriteFailureSendsNoSecondStatus(t *testing.T) {
	w := &hungUpWriter{header: http.Header{}}
	Handler(buildRegistry("server")).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/snapshot", nil))
	if len(w.statuses) != 0 {
		t.Errorf("handler wrote status %v after the body had started", w.statuses)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", NewRegistry("")); err == nil {
		t.Fatal("Serve accepted a bogus address")
	}
}

func TestScrapeWhileCounting(t *testing.T) {
	// Registry-level race check: scrape the HTTP endpoint while counters,
	// histogram, gauge, and tracer are hammered from another goroutine.
	r := NewRegistry("busy")
	h := r.Histogram("d", ExpBuckets(0.001, 2, 10))
	g := r.Gauge("g")
	rt := NewRingTracer(32)
	r.SetTracer(rt)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			h.Observe(float64(i) * 0.001)
			g.Set(float64(i))
			rt.Trace(TraceEvent{T: float64(i)})
		}
	}()
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/metrics", "/debug/snapshot"} {
			resp, err := http.Get(srv.URL() + path)
			if err != nil {
				t.Fatalf("scrape %s: %v", path, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}
	<-done
}
