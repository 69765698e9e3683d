package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Source is anything that can be scraped: a single Registry, or a Group
// bundling the registries of a whole in-process cluster under one port.
type Source interface {
	Registries() []*Registry
}

// Registries implements Source for a lone registry.
func (r *Registry) Registries() []*Registry { return []*Registry{r} }

// Group is a Source over several registries — e.g. one per node plus one
// for the server of an in-process cluster.
type Group struct {
	regs []*Registry
}

// NewGroup bundles registries into one scrape surface.
func NewGroup(regs ...*Registry) *Group { return &Group{regs: regs} }

// Add appends a registry to the group.
func (g *Group) Add(r *Registry) { g.regs = append(g.regs, r) }

// Registries implements Source.
func (g *Group) Registries() []*Registry { return g.regs }

// Handler returns the debug mux for a source:
//
//	/metrics         Prometheus text exposition, all endpoints, labeled
//	/debug/snapshot  JSON snapshot {"endpoints":[...]}
//	/debug/pprof/    the standard runtime profiles
//
// The mux is self-contained so callers can mount it on any server; Serve
// is the turnkey path.
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// One family-grouped exposition across all registries: writing each
		// registry separately would repeat "# TYPE" per endpoint, which the
		// format forbids.
		WriteExposition(w, src.Registries()...)
	})
	mux.HandleFunc("/debug/snapshot", func(w http.ResponseWriter, req *http.Request) {
		regs := src.Registries()
		snaps := make([]Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		// Encode before touching w: a value JSON cannot carry (a NaN gauge)
		// must answer a clean 500, not a 200 with half a document.
		body, err := json.MarshalIndent(map[string]any{"endpoints": snaps}, "", "  ")
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
// and serves Handler(src) until Close. Scrapes run on their own
// goroutines, so a slow scraper never blocks collection.
func Serve(addr string, src Source) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(src),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after Close
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}
