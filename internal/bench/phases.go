package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
)

// PhaseBreakdown condenses one run's registry delta into the four phases
// of the JBS segment fetch path: transport (time on the wire), disk
// (segment reads the suppliers paid), cache (DataCache / FileCache
// effectiveness), and merge (fetch round trips as seen by the NetMerger).
// It is computed from metrics.Diff of registry snapshots taken around the
// run, so concurrent runs in one process would smear each other — the
// bench harness runs providers one at a time.
type PhaseBreakdown struct {
	// Transport.
	SentBytes, RecvBytes   int64
	SentFrames, RecvFrames int64
	SendTime, RecvTime     time.Duration

	// Disk.
	DiskReads int64
	DiskBytes int64
	DiskTime  time.Duration

	// Cache.
	DataHits, DataMisses int64
	FileHits, FileMisses int64

	// Merge.
	Fetches      int64
	FetchedBytes int64
	FetchTime    time.Duration
	FetchP50     time.Duration
	FetchP99     time.Duration
}

// PhasesFromDiff folds a registry diff into a PhaseBreakdown.
func PhasesFromDiff(diff []metrics.Snapshot) *PhaseBreakdown {
	p := &PhaseBreakdown{}
	for _, s := range diff {
		switch s.Name {
		case "jbs_transport_sent_bytes_total":
			p.SentBytes += s.Value
		case "jbs_transport_sent_frames_total":
			p.SentFrames += s.Value
		case "jbs_transport_recv_bytes_total":
			p.RecvBytes += s.Value
		case "jbs_transport_recv_frames_total":
			p.RecvFrames += s.Value
		case "jbs_transport_send_ns":
			p.SendTime += time.Duration(s.Sum)
		case "jbs_transport_recv_ns":
			p.RecvTime += time.Duration(s.Sum)
		case "jbs_segment_read_ns":
			p.DiskReads += s.Count
			p.DiskTime += time.Duration(s.Sum)
		case "jbs_segment_read_bytes_total":
			p.DiskBytes += s.Value
		case "jbs_datacache_hits_total":
			p.DataHits += s.Value
		case "jbs_datacache_misses_total":
			p.DataMisses += s.Value
		case "jbs_filecache_hits_total":
			p.FileHits += s.Value
		case "jbs_filecache_misses_total":
			p.FileMisses += s.Value
		case "jbs_merger_fetches_total":
			p.Fetches += s.Value
		case "jbs_merger_bytes_total":
			p.FetchedBytes += s.Value
		case "jbs_merger_rtt_ns":
			p.FetchTime += time.Duration(s.Sum)
			p.FetchP50 = time.Duration(s.Quantile(0.50))
			p.FetchP99 = time.Duration(s.Quantile(0.99))
		}
	}
	return p
}

// Zero reports whether the run left no trace in the JBS data path —
// true for the hadoop-http baseline, which bypasses it entirely.
func (p *PhaseBreakdown) Zero() bool {
	return p.Fetches == 0 && p.SentFrames == 0 && p.DiskReads == 0
}

// Format renders the breakdown as one indented line per phase.
func (p *PhaseBreakdown) Format(indent string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%stransport  tx %s in %d frames (%s on wire), rx %s in %d frames (%s)\n",
		indent, fmtBytes(p.SentBytes), p.SentFrames, round(p.SendTime),
		fmtBytes(p.RecvBytes), p.RecvFrames, round(p.RecvTime))
	fmt.Fprintf(&sb, "%sdisk       %d segment reads, %s, %s\n",
		indent, p.DiskReads, fmtBytes(p.DiskBytes), round(p.DiskTime))
	fmt.Fprintf(&sb, "%scache      datacache %d/%d hits, filecache %d/%d hits\n",
		indent, p.DataHits, p.DataHits+p.DataMisses, p.FileHits, p.FileHits+p.FileMisses)
	fmt.Fprintf(&sb, "%smerge      %d fetches, %s reassembled, rtt %s total (p50 %s, p99 %s)\n",
		indent, p.Fetches, fmtBytes(p.FetchedBytes), round(p.FetchTime),
		round(p.FetchP50), round(p.FetchP99))
	return sb.String()
}

// Summary renders the breakdown as a single report-note line.
func (p *PhaseBreakdown) Summary() string {
	return fmt.Sprintf("transport tx %s rx %s | disk %d reads %s | cache dc %d/%d fc %d/%d | merge rtt %s (p50 %s)",
		round(p.SendTime), round(p.RecvTime),
		p.DiskReads, round(p.DiskTime),
		p.DataHits, p.DataHits+p.DataMisses, p.FileHits, p.FileHits+p.FileMisses,
		round(p.FetchTime), round(p.FetchP50))
}

// round trims durations to display precision.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
