package transport

import (
	"repro/internal/metrics"
)

// Wire accounting for every TCP connection in the process. Handles are
// resolved once at package init; the per-frame cost is a few atomic adds
// and two time.Now reads, far below the syscall they sit next to.
var (
	sentBytes = metrics.Default().Counter("jbs_transport_sent_bytes_total", "bytes",
		"payload bytes sent (framing headers excluded)")
	sentFrames = metrics.Default().Counter("jbs_transport_sent_frames_total", "frames",
		"framed messages sent")
	recvBytes = metrics.Default().Counter("jbs_transport_recv_bytes_total", "bytes",
		"payload bytes received")
	recvFrames = metrics.Default().Counter("jbs_transport_recv_frames_total", "frames",
		"framed messages received")
	// sendNS times one framed send (one writev). recvNS times payload
	// receipt only, from the frame header to the last byte, so idle waiting
	// for the next frame does not pollute the distribution.
	sendNS = metrics.Default().Histogram("jbs_transport_send_ns", "ns",
		"one framed send, header to last byte")
	recvNS = metrics.Default().Histogram("jbs_transport_recv_ns", "ns",
		"one framed receive, first byte to last")
)

// Connection-cache metrics aggregate over every ConnCache instance in the
// process (one per NetMerger); per-instance numbers stay available via
// ConnCache.Stats.
var (
	ccHits = metrics.Default().Counter("jbs_conncache_hits_total", "lookups",
		"connection-cache lookups served by an established connection")
	ccMisses = metrics.Default().Counter("jbs_conncache_misses_total", "lookups",
		"connection-cache lookups that dialed")
	ccEvictions = metrics.Default().Counter("jbs_conncache_evictions_total", "conns",
		"connections torn down by LRU capacity pressure")
	ccActive = metrics.Default().Gauge("jbs_conncache_active", "conns",
		"established connections currently cached across all caches")
)
