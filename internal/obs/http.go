package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the debug mux over the given registries — one endpoint's,
// or those of a whole in-process cluster sharing a port:
//
//	/metrics         Prometheus text exposition, all endpoints, labeled
//	/debug/snapshot  JSON snapshot {"endpoints":[...]}
//	/debug/pprof/    the standard runtime profiles
//
// Both telemetry routes render a fresh set of snapshots, so /metrics is
// exactly WriteExposition over what /debug/snapshot would have returned.
// The mux is self-contained so callers can mount it on any server; Serve
// is the turnkey path.
func Handler(regs ...*Registry) http.Handler {
	snapshots := func() []Snapshot {
		snaps := make([]Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		return snaps
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteExposition(w, snapshots()...)
	})
	mux.HandleFunc("/debug/snapshot", func(w http.ResponseWriter, req *http.Request) {
		// Encode before touching w: a value JSON cannot carry (a NaN gauge)
		// must answer a clean 500, not a 200 with half a document.
		body, err := json.MarshalIndent(map[string]any{"endpoints": snapshots()}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n')) //nolint:errcheck // the scraper hung up
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "p2pcollect debug endpoint\n\n/metrics\n/debug/snapshot\n/debug/pprof/\n")
	})
	return mux
}

// DebugServer is a running exposition endpoint.
type DebugServer struct {
	// Addr is the bound address, with the real port when ":0" was asked for.
	Addr string

	srv *http.Server
	ln  net.Listener
}

// URL returns the server's base URL.
func (d *DebugServer) URL() string { return "http://" + d.Addr }

// Close shuts the endpoint down and releases the port.
func (d *DebugServer) Close() error { return d.srv.Close() }

// Serve binds addr (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port)
// and serves Handler(regs...) until Close. Scrapes run on their own
// goroutines, so a slow scraper never blocks collection.
func Serve(addr string, regs ...*Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(regs...),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after Close
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}
