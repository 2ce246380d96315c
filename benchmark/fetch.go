package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/mof"
	"repro/internal/registry"
	"repro/internal/transport"
)

// fetchClients is the number of concurrent reducer clients, and so the
// closed loop's concurrency; nproc is 2 on the box this was sized for.
const fetchClients = 2

// fetchWindow is the length of one window of a fetch workload's timed
// region. At 100 clock ticks a second and two busy cores, half a second
// holds about a hundred ticks of CPU time, which keeps the rounding of
// the daemons' /proc CPU times near one percent of a window's CPU.
const fetchWindow = 500 * time.Millisecond

// daemonStartTimeout bounds each wait for a daemon's start-up line, and
// daemonStopTimeout each SIGTERM drain.
const (
	daemonStartTimeout = 20 * time.Second
	daemonStopTimeout  = 20 * time.Second
)

// fetchEnv is a running registry + two suppliers over a seeded fixture.
// The benchmark process hosts the NetMerger, wired as daemon.RunMergerJob
// wires it: specs carry no address and resolve through the registry.
type fetchEnv struct {
	spec    fetchSpec
	dir     string // run directory; removed by close
	fixture string
	sha     string
	index   [][]mof.IndexEntry // [task][partition]
	// specs holds, per partition, the fetch specs of one batch: that
	// partition's segment of every map task, unaddressed. They are built
	// once so that the timed loop does not pay for formatting task names.
	specs [][]core.FetchSpec

	reg     *proc
	sups    []*proc
	regAddr string
	debug   []string // suppliers' /debug/jbs addresses
}

// taskName is the name daemon.WriteFixture gives map task i.
func taskName(i int) string { return fmt.Sprintf("m-%05d", i) }

// hashFiles returns the SHA-256 over the relative name and content of
// every regular file under dir, in name order.
func hashFiles(dir string) (string, error) {
	var names []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			names = append(names, path)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		rel, err := filepath.Rel(dir, name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		_ = f.Close() // read-only
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setupFetch generates the fixture, starts the daemons from bins and runs
// the untimed, byte-verified warm-up round.
func setupFetch(spec fetchSpec, seed int64, bins, scratch string) (_ *fetchEnv, err error) {
	dir, err := os.MkdirTemp(scratch, "run-*")
	if err != nil {
		return nil, err
	}
	e := &fetchEnv{spec: spec, dir: dir, fixture: filepath.Join(dir, "mofs")}
	defer func() {
		if err != nil {
			e.abort()
		}
	}()
	if err = os.Mkdir(e.fixture, 0o755); err != nil {
		return nil, err
	}
	if err = daemon.WriteFixture(e.fixture, spec.tasks, spec.parts, spec.segBytes, uint64(seed)); err != nil {
		return nil, err
	}
	if e.sha, err = hashFiles(e.fixture); err != nil {
		return nil, err
	}
	e.index = make([][]mof.IndexEntry, spec.tasks)
	for t := range e.index {
		ix, err := mof.ReadIndex(filepath.Join(e.fixture, taskName(t)+".index"))
		if err != nil {
			return nil, err
		}
		e.index[t] = ix.Entries
	}
	e.specs = make([][]core.FetchSpec, spec.parts)
	for p := range e.specs {
		for t := 0; t < spec.tasks; t++ {
			e.specs[p] = append(e.specs[p], core.FetchSpec{MapTask: taskName(t), Partition: p})
		}
	}

	// Daemons print their bound addresses on start-up; ports are ephemeral.
	e.reg, err = startProc("jbsregistryd", filepath.Join(bins, "jbsregistryd"), "-addr", "127.0.0.1:0", "-quiet")
	if err != nil {
		return nil, err
	}
	line, err := e.reg.expect("serving", daemonStartTimeout)
	if err != nil {
		return nil, err
	}
	if e.regAddr = wordAfter(line, "at"); e.regAddr == "" {
		return nil, fmt.Errorf("no address in registry start-up line %q", line)
	}
	for _, id := range []string{"sup-a", "sup-b"} {
		p, err := startProc("jbssupplierd/"+id, filepath.Join(bins, "jbssupplierd"),
			"-registry", e.regAddr, "-id", id, "-mof-dir", e.fixture, "-debug", "127.0.0.1:0", "-quiet")
		if err != nil {
			return nil, err
		}
		e.sups = append(e.sups, p)
		line, err := p.expect("debug at", daemonStartTimeout)
		if err != nil {
			return nil, err
		}
		addr := strings.TrimSuffix(strings.TrimPrefix(wordAfter(line, "at"), "http://"), "/debug/jbs")
		e.debug = append(e.debug, addr)
		// "serving" is printed once the supplier holds its registration.
		if _, err := p.expect("serving", daemonStartTimeout); err != nil {
			return nil, err
		}
	}

	m, err := e.newMerger(nil, nil)
	if err != nil {
		return nil, err
	}
	defer m.close()
	if failed, ferr := e.verifyRound(m); failed > 0 {
		return nil, fmt.Errorf("warm-up round: %d of %d batches failed: %w", failed, spec.parts, ferr)
	}
	return e, nil
}

// wordAfter returns the whitespace-separated word following marker.
func wordAfter(line, marker string) string {
	fields := strings.Fields(line)
	for i, f := range fields {
		if f == marker && i+1 < len(fields) {
			return fields[i+1]
		}
	}
	return ""
}

func (e *fetchEnv) daemons() map[string][]int {
	d := map[string][]int{"registry": {e.reg.pid()}}
	for _, s := range e.sups {
		d["supplier"] = append(d["supplier"], s.pid())
	}
	return d
}

func (e *fetchEnv) inputsSHA256() string { return e.sha }

func (e *fetchEnv) segmentBytes() int { return int(e.index[0][0].Length) }

// close drains the daemons (each must exit 0) and removes the run
// directory.
func (e *fetchEnv) close() error {
	var first error
	for _, p := range append(e.sups, e.reg) {
		if err := p.stop(daemonStopTimeout); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(e.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// abort is close for a set-up that failed part-way: whatever was started
// is killed, not drained.
func (e *fetchEnv) abort() {
	for _, p := range append(e.sups, e.reg) {
		if p != nil {
			p.kill()
		}
	}
	_ = os.RemoveAll(e.dir) // already failing; the set-up error is the one to report
}

// batchParents maps a partition to the open batch span fetching it, so
// the resolver decorator, which sees only a spec, can name its parent. A
// partition has one batch in flight at a time.
type batchParents []atomic.Int64

func (b batchParents) set(part int, span, op int32) { b[part].Store(int64(span)<<32 | int64(op)) }
func (b batchParents) get(part int) (span, op int32) {
	v := b[part].Load()
	return int32(v >> 32), int32(v)
}

// merger is the NetMerger the reducer clients share, with what has to be
// closed after it.
type merger struct {
	*core.NetMerger
	rc *registry.Client
	// traced is the decorated transport of a traced run, nil otherwise.
	traced *tracedTransport
	// bytes and segments count what has been delivered to the clients so
	// far, as it arrives; the window sampler reads them.
	bytes, segments atomic.Int64
}

func (m *merger) close() {
	_ = m.NetMerger.Close() // connections to live suppliers; nothing to flush
	_ = m.rc.Close()        // likewise
}

// newMerger builds the shared NetMerger. With a tracer, its transport and
// resolver are decorated; parents is then the table the batches publish
// their spans in.
func (e *fetchEnv) newMerger(tr *tracer, parents batchParents) (*merger, error) {
	m := &merger{rc: registry.NewClient(e.regAddr)}
	resolver := registry.NewResolver(m.rc, 0)
	var tp transport.Transport = transport.NewTCP()
	resolve := func(spec core.FetchSpec) (string, error) { return resolver.Resolve(spec.MapTask) }
	if tr != nil {
		m.traced = &tracedTransport{Transport: tp, tr: tr}
		tp = m.traced
		inner := resolve
		resolve = func(spec core.FetchSpec) (string, error) {
			parent, op := parents.get(spec.Partition)
			start := time.Now()
			addr, err := inner(spec)
			tr.add("registry.resolve", parent, op, start, time.Now())
			return addr, err
		}
	}
	var err error
	m.NetMerger, err = core.NewNetMerger(core.MergerConfig{Transport: tp, Resolver: resolve})
	if err != nil {
		_ = m.rc.Close() // already failing; report the merger error
		return nil, err
	}
	return m, nil
}

// batch is the outcome of one NetMerger.Fetch over a partition.
type batch struct {
	seconds  float64
	bytes    int64
	segments int64
	err      error // nil when every segment arrived and checked out
}

// fetchBatch fetches one partition's segment from every map task in one
// NetMerger.Fetch call. Segments are always checked by length; with
// verify they are compared byte for byte with the fixture file.
func (e *fetchEnv) fetchBatch(m *merger, part int, verify bool, tr *tracer, parents batchParents, op int32) batch {
	var b batch
	var bad error
	deliver := func(spec core.FetchSpec, data []byte) error {
		t, err := strconv.Atoi(strings.TrimPrefix(spec.MapTask, "m-"))
		if err != nil || t < 0 || t >= e.spec.tasks {
			bad = fmt.Errorf("delivered unknown task %q", spec.MapTask)
			return nil
		}
		entry := e.index[t][spec.Partition]
		b.segments++
		b.bytes += int64(len(data))
		m.segments.Add(1)
		m.bytes.Add(int64(len(data)))
		switch {
		case int64(len(data)) != entry.Length:
			bad = fmt.Errorf("segment %s/%d: %d bytes, want %d", spec.MapTask, spec.Partition, len(data), entry.Length)
		case verify:
			want, err := mof.ReadSegmentBytes(filepath.Join(e.fixture, spec.MapTask+".data"), entry)
			if err != nil {
				bad = fmt.Errorf("segment %s/%d: reference: %w", spec.MapTask, spec.Partition, err)
			} else if !bytes.Equal(data, want) {
				bad = fmt.Errorf("segment %s/%d differs from the fixture", spec.MapTask, spec.Partition)
			}
		}
		return nil
	}
	var spanID int32
	if tr != nil {
		spanID = tr.begin("core.fetch_batch", 0, op)
		parents.set(part, spanID, op)
		inner := deliver
		deliver = func(spec core.FetchSpec, data []byte) error {
			start := time.Now()
			err := inner(spec, data)
			tr.add("core.deliver", spanID, op, start, time.Now())
			return err
		}
	}
	start := time.Now()
	err := m.Fetch(e.specs[part], deliver)
	b.seconds = time.Since(start).Seconds()
	if tr != nil {
		tr.end(spanID)
	}
	switch {
	case err != nil:
		b.err = err
	case bad != nil:
		b.err = bad
	case b.segments != int64(e.spec.tasks):
		b.err = fmt.Errorf("partition %d: %d segments delivered, want %d", part, b.segments, e.spec.tasks)
	}
	return b
}

// verifyRound fetches the whole grid once, byte-verified, with the usual
// two clients. It returns the number of failed batches.
func (e *fetchEnv) verifyRound(m *merger) (failed int, first error) {
	results := make([][]batch, fetchClients)
	var wg sync.WaitGroup
	for c := 0; c < fetchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := c; p < e.spec.parts; p += fetchClients {
				results[c] = append(results[c], e.fetchBatch(m, p, true, nil, nil, 0))
			}
		}(c)
	}
	wg.Wait()
	for _, rs := range results {
		for _, b := range rs {
			if b.err != nil {
				failed++
				if first == nil {
					first = b.err
				}
			}
		}
	}
	return failed, first
}

// run keeps two reducer clients fetching for d: client c takes partitions
// c, c+2, ... round after round, one batch per NetMerger.Fetch call, the
// next batch only after the last returned (a closed loop of two). This
// goroutine meanwhile closes a window every fetchWindow. A final
// byte-verified round follows outside the timed region.
func (e *fetchEnv) run(d time.Duration, tr *tracer) (*sample, error) {
	var parents batchParents
	if tr != nil {
		parents = make(batchParents, e.spec.parts)
	}
	m, err := e.newMerger(tr, parents)
	if err != nil {
		return nil, err
	}
	defer m.close()

	var before counterSet
	if tr != nil {
		if before, err = scrapeCounters(e.debug); err != nil {
			return nil, err
		}
	}
	open, err := readEdge(e.daemons())
	if err != nil {
		return nil, err
	}
	results := make([][]batch, fetchClients)
	var ops atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < fetchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := c; time.Now().Before(deadline); p = (p + fetchClients) % e.spec.parts {
				results[c] = append(results[c], e.fetchBatch(m, p, false, tr, parents, ops.Add(1)))
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	s := &sample{}
	tick := time.NewTicker(fetchWindow)
	defer tick.Stop()
	from, fromTime, fromBytes, fromSegments := open, start, int64(0), int64(0)
	var sampleErr error
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			now, bytes, segments := time.Now(), m.bytes.Load(), m.segments.Load()
			at, err := readEdge(e.daemons())
			if err != nil {
				sampleErr = err // keep waiting for the clients; report after
				continue
			}
			s.windows = append(s.windows,
				windowSince(from, at, now.Sub(fromTime).Seconds(), bytes-fromBytes, segments-fromSegments))
			from, fromTime, fromBytes, fromSegments = at, now, bytes, segments
		}
	}
	s.wallSeconds = time.Since(start).Seconds()
	if sampleErr != nil {
		return nil, sampleErr
	}
	if tr != nil {
		tr.stop() // the verification round below is not part of the trace
	}
	shut, err := readEdge(e.daemons())
	if err != nil {
		return nil, err
	}
	s.since(open, shut)
	if len(s.windows) == 0 {
		// A region shorter than fetchWindow is its own window.
		s.windows = append(s.windows, windowSince(open, shut, s.wallSeconds, m.bytes.Load(), m.segments.Load()))
	}
	if tr != nil {
		after, err := scrapeCounters(e.debug)
		if err != nil {
			return nil, err
		}
		s.counters = after.minus(before)
		s.counters["merger_retries"] = float64(m.Stats().Retries)
		s.counters["recv_bytes"] = float64(m.traced.recvBytes.Load())
	}
	for _, rs := range results {
		for _, b := range rs {
			s.attempted++
			s.opSeconds = append(s.opSeconds, b.seconds)
			if b.err != nil {
				s.fail(b.err)
				continue
			}
			s.bytes += b.bytes
			s.segments += b.segments
		}
	}
	failed, ferr := e.verifyRound(m)
	s.attempted += e.spec.parts
	if failed > 0 {
		s.failed += failed - 1
		s.fail(ferr)
	}
	return s, nil
}
