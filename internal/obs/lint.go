package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LintExposition validates Prometheus text-format output the way a real
// server's parser would, catching the mistakes that silently break
// ingestion:
//
//   - every sample belongs to a family declared by exactly one "# TYPE"
//     line (duplicate TYPE lines — the classic multi-registry bug — fail)
//   - a family's samples are contiguous: once another family's samples
//     start, the earlier family may not resume
//   - metric names are legal, label strings are well formed, and values
//     parse as floats
//   - histogram families have cumulative, non-decreasing _bucket series
//     per label set, ending in an le="+Inf" bucket that equals _count,
//     with _sum present
//
// It returns the first violation found, with its line number.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	declared := make(map[string]string) // family -> kind
	closed := make(map[string]bool)     // family -> samples ended
	current := ""
	// histogram bookkeeping: per family, per non-le label set
	type histSeries struct {
		lastBucket int64
		infBucket  int64
		hasInf     bool
		count      int64
		hasCount   bool
		hasSum     bool
	}
	hists := make(map[string]map[string]*histSeries)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, kind := fields[2], fields[3]
				if !validMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid metric kind %q", lineNo, kind)
				}
				if _, dup := declared[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE line for %s", lineNo, name)
				}
				declared[name] = kind
				if current != "" && current != name {
					closed[current] = true
				}
				current = name
			}
			continue // other comments (# HELP) pass through
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := name
		kind, ok := declared[fam]
		if !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && declared[base] == "histogram" {
					fam, kind, ok = base, "histogram", true
					break
				}
			}
		}
		if !ok {
			return fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if fam != current {
			if closed[fam] {
				return fmt.Errorf("line %d: family %s resumed after other families", lineNo, fam)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		if kind == "histogram" {
			series := hists[fam]
			if series == nil {
				series = make(map[string]*histSeries)
				hists[fam] = series
			}
			le, rest := splitLELabel(labels)
			hs := series[rest]
			if hs == nil {
				hs = &histSeries{}
				series[rest] = hs
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				n := int64(value)
				if n < hs.lastBucket {
					return fmt.Errorf("line %d: %s buckets not cumulative (%d after %d)", lineNo, fam, n, hs.lastBucket)
				}
				hs.lastBucket = n
				if le == "+Inf" {
					hs.infBucket = n
					hs.hasInf = true
				}
			case strings.HasSuffix(name, "_sum"):
				hs.hasSum = true
			case strings.HasSuffix(name, "_count"):
				hs.count = int64(value)
				hs.hasCount = true
			default:
				return fmt.Errorf("line %d: sample %s inside histogram family %s", lineNo, name, fam)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, series := range hists {
		for labels, hs := range series {
			where := fam
			if labels != "" {
				where = fam + "{" + labels + "}"
			}
			if !hs.hasInf {
				return fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", where)
			}
			if !hs.hasSum {
				return fmt.Errorf("histogram %s missing _sum", where)
			}
			if !hs.hasCount {
				return fmt.Errorf("histogram %s missing _count", where)
			}
			if hs.count != hs.infBucket {
				return fmt.Errorf("histogram %s _count %d != +Inf bucket %d", where, hs.count, hs.infBucket)
			}
		}
	}
	return nil
}

// parseSampleLine splits `name{labels} value [timestamp]`.
func parseSampleLine(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels = rest[1:end]
		rest = rest[end+1:]
		if err := validateLabels(labels); err != nil {
			return "", "", 0, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample value in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("unparsable sample value %q", fields[0])
	}
	return name, labels, value, nil
}

// validateLabels checks `k="v",k2="v2"` shape.
func validateLabels(labels string) error {
	if labels == "" {
		return nil
	}
	for _, pair := range splitLabelPairs(labels) {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label pair %q", pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !validMetricName(k) {
			return fmt.Errorf("invalid label name %q", k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value in %q", pair)
		}
	}
	return nil
}

// splitLabelPairs splits on commas outside quotes; inside quotes a
// backslash escapes the next character.
func splitLabelPairs(labels string) []string {
	var out []string
	quoted := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch c := labels[i]; {
		case c == '\\' && quoted:
			i++
		case c == '"':
			quoted = !quoted
		case c == ',' && !quoted:
			out = append(out, labels[start:i])
			start = i + 1
		}
	}
	return append(out, labels[start:])
}

// splitLELabel extracts the le label's value and returns the remaining
// label pairs joined back up, so bucket series group by their identity
// labels.
func splitLELabel(labels string) (le, rest string) {
	var kept []string
	for _, pair := range splitLabelPairs(labels) {
		if pair == "" {
			continue
		}
		if strings.HasPrefix(pair, `le="`) && strings.HasSuffix(pair, `"`) {
			le = pair[len(`le="`) : len(pair)-1]
			continue
		}
		kept = append(kept, pair)
	}
	return le, strings.Join(kept, ",")
}

// validMetricName checks the exposition-format name grammar.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
