// Command obstool is the fleet-side companion to the in-process debug
// endpoints: it turns per-shard scrapes and crash artifacts into one
// cluster-level picture.
//
//	obstool merge [-format text|prom] [-label cluster] <url-or-file>...
//	    Scrape N /debug/snapshot endpoints (or read saved JSON payloads),
//	    merge every endpoint registry into one cluster view, and print it
//	    with a per-shard breakdown and derived signals: pull redundancy
//	    ratio, collection-time percentiles (first block to decode at the
//	    server), WAL append-latency percentiles.
//
//	obstool postmortem [-wal dir] <flight.bin>
//	    Decode a crash flight-recorder dump (the last moments of a dead
//	    server) and inspect the WAL directory next to it without mutating
//	    it, reporting what a restart would recover.
//
//	obstool lint <url-or-file>
//	    Check a /metrics exposition against the Prometheus text-format
//	    rules (one TYPE line per family, contiguous families, cumulative
//	    histogram buckets).
//
// Sources starting with http:// or https:// are fetched; anything else is
// read as a local file. The merge output with -format prom is itself a
// valid exposition, so a cron job can re-export the cluster view to a
// pushgateway-style sink.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"p2pcollect/internal/collect/store/wal"
	"p2pcollect/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "merge":
		fs := flag.NewFlagSet("merge", flag.ExitOnError)
		format := fs.String("format", "text", `output format: "text" or "prom"`)
		label := fs.String("label", "cluster", "label for the merged snapshot")
		fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError
		err = runMerge(os.Stdout, *format, *label, fs.Args())
	case "postmortem":
		fs := flag.NewFlagSet("postmortem", flag.ExitOnError)
		walDir := fs.String("wal", "", "WAL directory to inspect (default: the dump's directory)")
		fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError
		if fs.NArg() != 1 {
			err = errors.New("postmortem: need exactly one flight dump path")
			break
		}
		err = runPostmortem(os.Stdout, fs.Arg(0), *walDir)
	case "lint":
		if len(os.Args) != 3 {
			err = errors.New("lint: need exactly one url or file")
			break
		}
		err = runLint(os.Stdout, os.Args[2])
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "obstool: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  obstool merge [-format text|prom] [-label cluster] <url-or-file>...
  obstool postmortem [-wal dir] <flight.bin>
  obstool lint <url-or-file>
`)
}

// openSource fetches an http(s) URL or opens a local file.
func openSource(source string) (io.ReadCloser, error) {
	if strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://") {
		resp, err := http.Get(source) //nolint:gosec // operator-supplied scrape target
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("%s: %s", source, resp.Status)
		}
		return resp.Body, nil
	}
	return os.Open(source)
}

// loadSnapshots reads one source's registry snapshots. The canonical shape
// is the /debug/snapshot payload {"endpoints":[...]}; a bare JSON array or
// a single snapshot object (saved views, merged views) also load.
func loadSnapshots(source string) ([]obs.Snapshot, error) {
	rc, err := openSource(source)
	if err != nil {
		return nil, err
	}
	defer rc.Close() //nolint:errcheck // read-only
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", source, err)
	}
	var payload struct {
		Endpoints []obs.Snapshot `json:"endpoints"`
	}
	if err := json.Unmarshal(data, &payload); err == nil && len(payload.Endpoints) > 0 {
		return payload.Endpoints, nil
	}
	var list []obs.Snapshot
	if err := json.Unmarshal(data, &list); err == nil && len(list) > 0 {
		return list, nil
	}
	var one obs.Snapshot
	if err := json.Unmarshal(data, &one); err == nil && (one.Label != "" || len(one.Counters) > 0) {
		return []obs.Snapshot{one}, nil
	}
	return nil, fmt.Errorf("%s: no snapshots in payload", source)
}

// shardLabel names a source in the per-shard breakdown: the host:port for
// URLs, the base name for files.
func shardLabel(source string) string {
	if strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://") {
		trimmed := strings.TrimPrefix(strings.TrimPrefix(source, "http://"), "https://")
		if i := strings.IndexByte(trimmed, '/'); i >= 0 {
			trimmed = trimmed[:i]
		}
		return trimmed
	}
	return filepath.Base(source)
}

func runMerge(w io.Writer, format, label string, sources []string) error {
	if len(sources) == 0 {
		return errors.New("merge: need at least one url or file")
	}
	var all []obs.Snapshot
	type shardView struct {
		source string
		snap   obs.Snapshot
	}
	shards := make([]shardView, 0, len(sources))
	for _, src := range sources {
		snaps, err := loadSnapshots(src)
		if err != nil {
			return err
		}
		all = append(all, snaps...)
		shards = append(shards, shardView{src, obs.MergeSnapshots(shardLabel(src), snaps...)})
	}
	cluster := obs.MergeSnapshots(label, all...)
	switch format {
	case "prom":
		obs.WriteExposition(w, cluster)
	case "text":
		fmt.Fprintf(w, "cluster view %q: %d endpoints from %d sources\n", label, len(all), len(sources))
		writeSnapshotText(w, "  ", cluster)
		if len(shards) > 1 {
			for _, sh := range shards {
				fmt.Fprintf(w, "shard %s:\n", sh.source)
				writeSnapshotText(w, "  ", sh.snap)
			}
		}
	default:
		return fmt.Errorf("merge: unknown format %q", format)
	}
	return nil
}

// writeSnapshotText renders one snapshot — derived signals first, then the
// raw counters, gauges, and histogram percentiles.
func writeSnapshotText(w io.Writer, indent string, s obs.Snapshot) {
	for _, line := range derivedSignals(s) {
		fmt.Fprintf(w, "%s%s\n", indent, line)
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%scounter %-32s %d\n", indent, name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%sgauge   %-32s %g\n", indent, name, s.Gauges[name])
	}
	hists := append([]obs.HistogramSnapshot(nil), s.Histograms...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	for _, h := range hists {
		fmt.Fprintf(w, "%shist    %-32s n=%d sum=%g p50=%g p90=%g p99=%g\n",
			indent, h.Name, h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	if conflicts, ok := s.Info["mergeConflicts"]; ok {
		fmt.Fprintf(w, "%smerge conflicts: %s\n", indent, conflicts)
	}
}

// derivedSignals computes the operator-level numbers no single raw metric
// carries: the pull redundancy ratio (what fraction of server pull work
// bought nothing), the collection-time percentiles, and the WAL append
// latency percentiles.
func derivedSignals(s obs.Snapshot) []string {
	var lines []string
	useful := s.Counters["pullschedFeedbackUseful"]
	redundant := s.Counters["pullschedFeedbackRedundant"]
	empty := s.Counters["pullschedFeedbackEmpty"]
	if total := useful + redundant + empty; total > 0 {
		lines = append(lines, fmt.Sprintf("pulls: %d useful, %d redundant, %d empty (redundancy ratio %.3f)",
			useful, redundant, empty, float64(redundant+empty)/float64(total)))
	}
	for _, h := range s.Histograms {
		switch h.Name {
		case "collectionTime":
			lines = append(lines, fmt.Sprintf("collection time (first block → decode): p50=%.3gs p90=%.3gs p99=%.3gs (n=%d)",
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Count))
		case "walAppendLatency":
			lines = append(lines, fmt.Sprintf("wal append latency: p50=%.3gs p99=%.3gs (n=%d)",
				h.Quantile(0.50), h.Quantile(0.99), h.Count))
		}
	}
	return lines
}

func runPostmortem(w io.Writer, flightPath, walDir string) error {
	events, err := obs.ReadFlightDumpFile(flightPath)
	if err != nil && !errors.Is(err, obs.ErrFlightCorrupt) {
		return err
	}
	fmt.Fprintf(w, "flight dump %s: %d events\n", flightPath, len(events))
	if err != nil {
		fmt.Fprintf(w, "  WARNING: dump damaged past that point: %v\n", err)
	}
	for _, ev := range events {
		line := fmt.Sprintf("  t=%-12.6f %-12s actor=%d", ev.T, ev.Kind, ev.Actor)
		if ev.Seg.Origin != 0 || ev.Seg.Seq != 0 {
			line += fmt.Sprintf(" seg=%d/%d", ev.Seg.Origin, ev.Seg.Seq)
		}
		if ev.TraceID != 0 {
			line += fmt.Sprintf(" trace=%016x hop=%d", ev.TraceID, ev.Hop)
		}
		if ev.N != 0 {
			line += fmt.Sprintf(" n=%d", ev.N)
		}
		fmt.Fprintln(w, line)
	}

	if walDir == "" {
		walDir = filepath.Dir(flightPath)
	}
	stats, werr := wal.Inspect(walDir)
	if werr != nil {
		// A flight dump without a WAL next to it is still a useful artifact
		// (durability may be disabled); report and carry on.
		fmt.Fprintf(w, "wal %s: not inspectable: %v\n", walDir, werr)
		return nil
	}
	fmt.Fprintf(w, "wal %s: recoverable state\n", walDir)
	fmt.Fprintf(w, "  snapshot loaded:   %v (%d segments)\n", stats.SnapshotLoaded, stats.SnapshotSegments)
	fmt.Fprintf(w, "  replayed records:  %d\n", stats.ReplayedRecords)
	fmt.Fprintf(w, "  torn tail:         %v\n", stats.TornTail)
	fmt.Fprintf(w, "  open segments:     %d (total rank %d, %d decodable)\n",
		stats.OpenSegments, stats.TotalRank, stats.DecodedPending)
	return nil
}

func runLint(w io.Writer, source string) error {
	rc, err := openSource(source)
	if err != nil {
		return err
	}
	defer rc.Close() //nolint:errcheck // read-only
	if err := obs.LintExposition(rc); err != nil {
		return fmt.Errorf("lint %s: %w", source, err)
	}
	fmt.Fprintf(w, "%s: exposition ok\n", source)
	return nil
}
