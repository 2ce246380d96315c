package mapred

import (
	"os"
	"time"

	"repro/internal/metrics"
)

// The map-side writer's metric handles, resolved once at package init so
// the map-side hot path never touches the registry by name.
var (
	writerSealNS = metrics.Default().Histogram("jbs_map_writer_seal_ns", "ns",
		"Latency of sealing one map attempt's records into a servable MOF.")
	writerSealedBytes = metrics.Default().Counter("jbs_map_writer_sealed_bytes_total", "bytes",
		"MOF data bytes sealed by the map-side writer.")
	writerSpills = metrics.Default().Counter("jbs_map_writer_spills_total", "spills",
		"Map-side sorted-run spills.")
)

// observeWriterSeal records one successful seal: its latency and the
// sealed data size (from the final MOF on disk).
func observeWriterSeal(start time.Time, final MOFPaths) {
	writerSealNS.Observe(time.Since(start).Nanoseconds())
	if st, err := os.Stat(final.Data); err == nil {
		writerSealedBytes.Add(st.Size())
	}
}
