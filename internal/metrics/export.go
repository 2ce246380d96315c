package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Snapshot is one metric's captured state. Counter and gauge values live
// in Value; histograms carry Count, Sum, and the per-bucket counts.
type Snapshot struct {
	Name string
	Unit string
	Help string
	Kind Kind

	Value int64

	Count   int64
	Sum     int64
	Buckets []int64 // len HistBuckets; Buckets[i] counts v in (2^(i-1), 2^i]
}

// splitName separates a label-carrying name
// (`foo_total{node="a"}`) into its base name and the label body
// (`node="a"`, without braces). Plain names return an empty label
// body.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// BucketBound returns bucket i's inclusive upper bound, or -1 for the
// overflow bucket (rendered as +Inf).
func BucketBound(i int) int64 {
	if i >= HistBuckets-1 {
		return -1
	}
	return 1 << uint(i)
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram snapshot
// from its log2 buckets, returning the matched bucket's upper bound — a
// within-2x estimate, which is what a log-scale histogram promises. It
// returns 0 when the histogram is empty or the snapshot is not a
// histogram.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			if bound := BucketBound(i); bound >= 0 {
				return bound
			}
			// Overflow bucket: the best statement the histogram can make
			// is "beyond the largest finite bound".
			return 1 << uint(HistBuckets-2)
		}
	}
	return 1 << uint(HistBuckets-2)
}

// Diff subtracts an earlier snapshot from a later one of the same
// registry, so callers can report what one run contributed to cumulative
// process-lifetime metrics. Counters and histograms subtract; gauges keep
// their after value (a gauge is a level, not a flow). Metrics absent from
// before pass through unchanged.
func Diff(before, after []Snapshot) []Snapshot {
	prev := make(map[string]Snapshot, len(before))
	for _, s := range before {
		prev[s.Name] = s
	}
	out := make([]Snapshot, 0, len(after))
	for _, s := range after {
		b, ok := prev[s.Name]
		if ok && s.Kind != KindGauge {
			s.Value -= b.Value
			s.Count -= b.Count
			s.Sum -= b.Sum
			if len(s.Buckets) == len(b.Buckets) {
				buckets := make([]int64, len(s.Buckets))
				for i := range s.Buckets {
					buckets[i] = s.Buckets[i] - b.Buckets[i]
				}
				s.Buckets = buckets
			}
		}
		out = append(out, s)
	}
	return out
}

// WriteText renders the registry in the Prometheus text exposition
// format: # HELP / # TYPE headers, then one sample line per counter or
// gauge and the _bucket/_sum/_count series per histogram. Labels embedded
// in a metric's registered name are carried onto every emitted sample.
func (r *Registry) WriteText(w io.Writer) error {
	return WriteText(w, r.Snapshot())
}

// WriteText renders captured snapshots in the Prometheus text format.
func WriteText(w io.Writer, snaps []Snapshot) error {
	seenHeader := make(map[string]bool)
	for _, s := range snaps {
		base, labels := splitName(s.Name)
		if !seenHeader[base] {
			seenHeader[base] = true
			help := s.Help
			if s.Unit != "" {
				help += " (unit: " + s.Unit + ")"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, help, base, s.Kind); err != nil {
				return err
			}
		}
		var err error
		switch s.Kind {
		case KindHistogram:
			err = writeHistogramText(w, base, labels, s)
		default:
			if labels != "" {
				_, err = fmt.Fprintf(w, "%s{%s} %d\n", base, labels, s.Value)
			} else {
				_, err = fmt.Fprintf(w, "%s %d\n", base, s.Value)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramText emits the cumulative _bucket series plus _sum and
// _count for one histogram snapshot, skipping the long runs of empty
// buckets a 64-bucket log scale inevitably has (cumulative counts make
// the omission lossless).
func writeHistogramText(w io.Writer, base, labels string, s Snapshot) error {
	join := func(extra string) string {
		if labels == "" {
			return extra
		}
		return labels + "," + extra
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if b == 0 && i != len(s.Buckets)-1 {
			continue
		}
		le := "+Inf"
		if bound := BucketBound(i); bound >= 0 {
			le = fmt.Sprintf("%d", bound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, join(fmt.Sprintf("le=%q", le)), cum); err != nil {
			return err
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", base, suffix, s.Sum, base, suffix, s.Count)
	return err
}
