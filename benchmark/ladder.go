package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flow"
	"repro/internal/merge"
	"repro/internal/mof"
	"repro/internal/registry"
	"repro/internal/transport"
)

// The ladder times each layer's public functions in isolation, the way
// the paper's Fig. 2 climbs from the disk alone to one supplier and one
// copier. Every rung runs a fixed number of operations on segments of the
// workload's own size, so a rung's number moves only when its layer does.

// ladder holds the fixed work of the rungs: bytes caps the data a
// byte-moving rung touches, ops is the operation count of a rung whose
// operations are cheap and size-free, rpcs and frames count round trips
// and 128 KiB frames. The tests walk a ladder a hundredth of this size.
type ladder struct {
	bytes, ops, rpcs, frames int
}

var fullLadder = ladder{bytes: 64 << 20, ops: 1_000_000, rpcs: 2_000, frames: 4096}

// cost is what n operations cost, per operation.
type cost struct {
	ns, allocs, bytes float64
	seconds           float64 // whole loop
}

// measure runs fn n times between two reads of the allocator's counters.
func measure(n int, fn func(i int) error) (cost, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return cost{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&b)
	return cost{
		ns:      float64(elapsed.Nanoseconds()) / float64(n),
		allocs:  float64(b.Mallocs-a.Mallocs) / float64(n),
		bytes:   float64(b.TotalAlloc-a.TotalAlloc) / float64(n),
		seconds: elapsed.Seconds(),
	}, nil
}

// clamp returns v limited to [lo, hi].
func clamp(v, lo, hi int) int { return max(lo, min(v, hi)) }

// walk runs every rung on segments of segBytes, writing one metric per
// result into out. dir is scratch space the caller removes.
func (l ladder) walk(dir string, segBytes int, seed int64, out map[string]float64) error {
	segBytes = max(segBytes, 64)
	segs := clamp(l.bytes/segBytes, 8, 4096)
	mofs := filepath.Join(dir, "mofs")
	rungs := []func() error{
		func() error { return l.mof(mofs, segs, segBytes, seed, out) },
		func() error { return l.dataCache(segBytes, out) },
		func() error { return l.bufpool(out) },
		func() error { return l.transport(out) },
		func() error { return l.loopback(mofs, segs, segBytes, out) },
		func() error { return l.merge(segs, segBytes, seed, out) },
		func() error { return l.registry(out) },
		func() error { return l.flow(out) },
	}
	for _, rung := range rungs {
		if err := rung(); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

// mof is the disk-alone rung: write the fixture (daemon.WriteFixture:
// Writer.Append and Close), then index lookups and segment reads through the caches the
// supplier uses. Reads are served from the OS page cache.
func (l ladder) mof(dir string, segs, segBytes int, seed int64, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	if err := daemon.WriteFixture(dir, segs, 1, segBytes, uint64(seed)); err != nil {
		return err
	}
	writeSeconds := time.Since(start).Seconds()

	ic := mof.NewIndexCache(segs)
	entries := make([]mof.IndexEntry, segs)
	var written int64
	miss, err := measure(segs, func(i int) error {
		ix, err := ic.Get(filepath.Join(dir, taskName(i)+".index"))
		if err != nil {
			return err
		}
		entries[i], err = ix.Entry(0)
		written += entries[i].Length
		return err
	})
	if err != nil {
		return err
	}
	out["mof.write_mb_per_s"] = float64(written) / 1e6 / writeSeconds
	out["mof.index_miss_us"] = miss.ns / 1e3
	hotIndex := filepath.Join(dir, taskName(0)+".index")
	hit, err := measure(l.ops, func(int) error {
		_, err := ic.Get(hotIndex)
		return err
	})
	if err != nil {
		return err
	}
	out["mof.index_hit_ns"] = hit.ns

	fc := mof.NewFileCache(128)
	paths := make([]string, segs)
	for i := range paths {
		paths[i] = filepath.Join(dir, taskName(i)+".data")
	}
	reads := clamp(4*l.bytes/segBytes, 256, 16384)
	read, err := measure(reads, func(i int) error {
		l, err := mof.ReadSegmentLease(fc, bufpool.Default(), paths[i%segs], entries[i%segs])
		if err != nil {
			return err
		}
		l.Release()
		return nil
	})
	if cerr := fc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out["mof.read_mb_per_s"] = float64(entries[0].Length) / 1e6 / (read.ns / 1e9)
	out["mof.read_us_per_segment"] = read.ns / 1e3
	out["mof.read_allocs_per_segment"] = read.allocs
	return nil
}

// dataCache times the supplier's staging memory: the pin path of a
// resident segment, and the miss path at capacity (Pin miss, Put with an
// eviction, the two Unpins).
func (l ladder) dataCache(segBytes int, out map[string]float64) error {
	const resident = 8
	dc := core.NewDataCache(int64(resident * segBytes))
	defer dc.Drain()
	names := make([]string, 4096)
	for i := range names {
		names[i] = taskName(i)
	}
	pool := bufpool.Default()
	stage := func(i int) error {
		if _, ok := dc.Pin(names[i%len(names)], 0); ok {
			return fmt.Errorf("datacache: %s resident, want a miss", names[i%len(names)])
		}
		//jbsvet:ignore leaseflow DataCache.Put takes the lease over; eviction and the deferred Drain release it
		lease := pool.Get(segBytes)
		dc.Put(names[i%len(names)], 0, lease)
		dc.Unpin(names[i%len(names)], 0)
		return nil
	}
	miss, err := measure(clamp(4*l.bytes/segBytes, 4096, 200_000), stage)
	if err != nil {
		return err
	}
	out["core.datacache_miss_ns"] = miss.ns
	const hot = "hot"
	//jbsvet:ignore leaseflow DataCache.Put takes the lease over; the deferred Drain releases it
	lease := pool.Get(segBytes)
	dc.Put(hot, 0, lease)
	dc.Unpin(hot, 0)
	hit, err := measure(l.ops, func(int) error {
		if _, ok := dc.Pin(hot, 0); !ok {
			return fmt.Errorf("datacache: staged segment not resident, want a hit")
		}
		dc.Unpin(hot, 0)
		return nil
	})
	if err != nil {
		return err
	}
	out["core.datacache_hit_ns"] = hit.ns
	return nil
}

// bufpool times a Get/Release pair at the three sizes the data path
// leases: a small segment, a transport frame, a large segment.
func (l ladder) bufpool(out map[string]float64) error {
	pool := bufpool.Default()
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4k", 4 << 10}, {"128k", 128 << 10}, {"1m", 1 << 20}} {
		c, err := measure(l.ops, func(int) error {
			pool.Get(size.bytes).Release()
			return nil
		})
		if err != nil {
			return err
		}
		out["bufpool.get_release_"+size.name+"_ns"] = c.ns
	}
	return nil
}

// transport times framed TCP over loopback: a one-way stream of
// 128 KiB frames sent with SendVec and received with RecvBuf, then a
// 64-byte ping-pong.
func (l ladder) transport(out map[string]float64) error {
	const frameBytes = transport.DefaultBufferSize
	frames, pings := l.frames, 10*l.rpcs
	tcp := transport.NewTCP()
	lis, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	// The peer swallows the stream, acknowledges it, then echoes pings
	// until the connection closes.
	peer := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			peer <- err
			return
		}
		defer c.Close()
		for i := 0; i < frames; i++ {
			l, err := transport.RecvBuf(c)
			if err != nil {
				peer <- err
				return
			}
			l.Release()
		}
		if err := c.Send([]byte{1}); err != nil {
			peer <- err
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				break // the dialer closed: the echo loop is over
			}
			if err := c.Send(msg); err != nil {
				break
			}
		}
		peer <- nil
	}()
	c, err := tcp.Dial(lis.Addr())
	if err != nil {
		return err
	}
	header, payload := make([]byte, 16), make([]byte, frameBytes-16)
	stream, err := measure(frames, func(int) error { return transport.SendVec(c, header, payload) })
	if err == nil {
		ackStart := time.Now()
		_, err = c.Recv()
		stream.seconds += time.Since(ackStart).Seconds()
	}
	var ping cost
	if err == nil {
		msg := make([]byte, 64)
		ping, err = measure(pings, func(int) error {
			if err := c.Send(msg); err != nil {
				return err
			}
			_, err := c.Recv()
			return err
		})
	}
	_ = c.Close() // ends the peer's echo loop
	if perr := <-peer; err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	out["transport.stream_mb_per_s"] = float64(frames) * frameBytes / 1e6 / stream.seconds
	out["transport.allocs_per_frame"] = stream.allocs
	out["transport.pingpong_us"] = ping.ns / 1e3
	return nil
}

// loopback is the "one supplier, one copier" rung: an in-process
// MOFSupplier and NetMerger over loopback TCP, statically addressed,
// fetching the ladder fixture round after round.
func (l ladder) loopback(dir string, segs, segBytes int, out map[string]float64) error {
	sup, err := core.NewMOFSupplier(core.SupplierConfig{
		Transport: transport.NewTCP(), Addr: "127.0.0.1:0",
	}, daemon.DirLookup(dir))
	if err != nil {
		return err
	}
	defer sup.Close()
	m, err := core.NewNetMerger(core.MergerConfig{Transport: transport.NewTCP()})
	if err != nil {
		return err
	}
	defer m.Close()
	specs := make([]core.FetchSpec, segs)
	for i := range specs {
		specs[i] = core.FetchSpec{Addr: sup.Addr(), MapTask: taskName(i)}
	}
	var delivered int64
	round := func(int) error {
		return m.Fetch(specs, func(_ core.FetchSpec, data []byte) error {
			delivered += int64(len(data))
			return nil
		})
	}
	if err := round(0); err != nil { // untimed: dial, fill the caches
		return err
	}
	delivered = 0
	rounds := max(1, clamp(4*l.bytes/segBytes, 512, 32768)/segs)
	c, err := measure(rounds, round)
	if err != nil {
		return err
	}
	out["core.loopback_mb_per_s"] = float64(delivered) / 1e6 / c.seconds
	out["core.loopback_fetches_per_s"] = float64(rounds*segs) / c.seconds
	out["core.loopback_allocs_per_fetch"] = c.allocs / float64(segs)
	out["core.loopback_bytes_per_fetch"] = c.bytes / float64(segs)
	return nil
}

// merge times the reduce side over one partition: NormalizeSegment
// alone, then NetLevitatedMerger's AddSegment x N, Finish and a full
// drain of the iterator. Records are Terasort-shaped (10 + 90 bytes).
func (l ladder) merge(segs, segBytes int, seed int64, out map[string]float64) error {
	const keyLen, valueLen = 10, 90
	segs = clamp(l.bytes/2/segBytes, 2, segs)
	perSeg := max(1, segBytes/(keyLen+valueLen+2))
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d65726765)) // "merge"
	value := make([]byte, valueLen)
	segments := make([][]byte, segs)
	var total int64
	for s := range segments {
		keys := make([]string, perSeg)
		for i := range keys {
			k := make([]byte, keyLen)
			for j := range k {
				k[j] = byte('a' + rng.IntN(26))
			}
			keys[i] = string(k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			segments[s] = mof.AppendRecord(segments[s], mof.Record{Key: []byte(k), Value: value})
		}
		total += int64(len(segments[s]))
	}
	norm, err := measure(segs, func(i int) error {
		_, _, err := merge.NormalizeSegment(segments[i])
		return err
	})
	if err != nil {
		return err
	}
	out["merge.normalize_mb_per_s"] = float64(total) / 1e6 / norm.seconds

	records := 0
	c, err := measure(1, func(int) error {
		m := merge.NewNetLevitatedMerger()
		for _, seg := range segments {
			if err := m.AddSegment(seg); err != nil {
				return err
			}
		}
		it, err := m.Finish()
		if err != nil {
			return err
		}
		defer it.Close()
		for {
			if _, err := it.Next(); err != nil {
				break // io.EOF ends the drain; the count below catches a short one
			}
			records++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if records != segs*perSeg {
		return fmt.Errorf("merge drained %d records, want %d", records, segs*perSeg)
	}
	out["merge.records_per_s"] = float64(records) / c.seconds
	out["merge.allocs_per_record"] = c.allocs / float64(records)
	return nil
}

// registry times the control plane against an in-process registry
// server holding one supplier: a lookup RPC, a full map fetch, and the
// Resolver's answer from inside its TTL.
func (l ladder) registry(out map[string]float64) error {
	srv, err := registry.NewServer(registry.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer srv.Close()
	c := registry.NewClient(srv.Addr())
	defer c.Close()
	if err := c.Register("ladder-sup", "127.0.0.1:1", nil); err != nil {
		return err
	}
	task := taskName(0)
	lookup, err := measure(l.rpcs, func(int) error {
		_, err := c.Lookup(task)
		return err
	})
	if err != nil {
		return err
	}
	out["registry.lookup_rpc_us"] = lookup.ns / 1e3
	fetchMap, err := measure(l.rpcs, func(int) error {
		_, err := c.FetchMap()
		return err
	})
	if err != nil {
		return err
	}
	out["registry.fetch_map_us"] = fetchMap.ns / 1e3
	resolver := registry.NewResolver(c, time.Hour)
	cached, err := measure(l.ops, func(int) error {
		_, err := resolver.Resolve(task)
		return err
	})
	if err != nil {
		return err
	}
	out["registry.resolve_cached_ns"] = cached.ns
	return nil
}

// flow times the admission ledger's Admit + Release pair. Flow
// control is off in all four workloads; the rung is the baseline a later
// flow-on workload starts from.
func (l ladder) flow(out map[string]float64) error {
	var cfg flow.Config
	if err := cfg.ApplyDefaults(); err != nil {
		return err
	}
	led := flow.NewLedger(cfg)
	c, err := measure(l.ops, func(int) error {
		if led.Admit(4<<10) == flow.Shed {
			return fmt.Errorf("flow: an empty ledger shed a 4 KiB request")
		}
		led.Release(4 << 10)
		return nil
	})
	if err != nil {
		return err
	}
	out["flow.admit_release_ns"] = c.ns
	return nil
}
