package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// jobEnv is one generated DFS input plus the reference its job's output
// must match. Every iteration runs the job on a fresh mapred.Cluster and
// work directory over that one input.
type jobEnv struct {
	spec  jobSpec
	bm    workload.Benchmark
	dir   string // run directory; removed by close
	nodes []string
	fs    *dfs.Cluster
	sha   string
	ref   jobReference

	seq int // iterations so far; names work and output directories
	// segBytes is the warm-up job's mean segment size.
	segBytes int
}

// jobReference is what a correct run of the job must output: a record
// count and an order-independent checksum over (key, value) pairs.
type jobReference struct {
	records int64
	sum     uint64
}

// hashKV is FNV-1a over key, a tab, and value.
func hashKV(k, v []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range k {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ '\t') * prime
	for _, b := range v {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// setupJob generates the input, computes the reference from it and runs
// the untimed, fully verified warm-up job.
func setupJob(spec jobSpec, seed int64, scratch string) (_ *jobEnv, err error) {
	bm, err := workload.ByName(spec.benchmark)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-*")
	if err != nil {
		return nil, err
	}
	e := &jobEnv{spec: spec, bm: bm, dir: dir, nodes: []string{"node00", "node01"}}
	defer func() {
		if err != nil {
			_ = os.RemoveAll(dir) // already failing; the set-up error is the one to report
		}
	}()
	dfsRoot := filepath.Join(dir, "dfs")
	e.fs, err = dfs.NewCluster(dfs.Config{
		BlockSize:   int64(spec.blockRecords * spec.recordLen),
		Replication: 1,
	}, e.nodes, dfsRoot)
	if err != nil {
		return nil, err
	}
	// No writer node: blocks are placed round-robin, so both nodes hold
	// input and run map tasks.
	if err := bm.Generate(e.fs, "/input", "", spec.records, seed); err != nil {
		return nil, err
	}
	if e.sha, err = hashFiles(dfsRoot); err != nil {
		return nil, err
	}
	if e.ref, err = e.reference(); err != nil {
		return nil, err
	}
	_, res, err := e.runJob(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	if err := e.verify(res); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	e.segBytes = int(res.Counters.ShuffledBytes / max(1, res.Counters.ShuffledSegments))
	e.discard(res)
	return e, nil
}

// reference reads the generated input back and derives the job's
// expected output: every record for Terasort (identity map and reduce),
// per-word totals for WordCount.
func (e *jobEnv) reference() (jobReference, error) {
	var ref jobReference
	r, err := e.fs.Open("/input", "")
	if err != nil {
		return ref, err
	}
	defer r.Close()
	br := bufio.NewReaderSize(r, 256<<10)
	rec := make([]byte, e.spec.recordLen)
	totals := make(map[string]int)
	for {
		if _, err := io.ReadFull(br, rec); err == io.EOF {
			break
		} else if err != nil {
			return ref, fmt.Errorf("read input: %w", err)
		}
		switch e.spec.benchmark {
		case "Terasort":
			ref.records++
			ref.sum += hashKV(rec[:workload.TeraKeyLen], rec[workload.TeraKeyLen:])
		case "WordCount":
			for _, w := range bytes.Fields(rec) {
				totals[string(w)]++
			}
		default:
			return ref, fmt.Errorf("no reference for benchmark %q", e.spec.benchmark)
		}
	}
	for w, n := range totals {
		ref.records++
		ref.sum += hashKV([]byte(w), strconv.AppendInt(nil, int64(n), 10))
	}
	return ref, nil
}

// runJob runs the job once on a fresh cluster and returns Cluster.Run's
// wall time. With a tracer the provider is decorated and the job's spans
// are recorded under op.
func (e *jobEnv) runJob(tr *tracer, op int32) (seconds float64, res *mapred.Result, err error) {
	e.seq++
	work := filepath.Join(e.dir, fmt.Sprintf("work-%04d", e.seq))
	jbs, err := shuffle.NewJBSProvider(shuffle.JBSConfig{Transport: "tcp"})
	if err != nil {
		return 0, nil, err
	}
	var provider mapred.ShuffleProvider = jbs
	var traced *tracedProvider
	if tr != nil {
		traced = &tracedProvider{ShuffleProvider: jbs, tr: tr, op: op}
		provider = traced
	}
	cluster, err := mapred.NewCluster(mapred.Config{
		Nodes: e.nodes, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, WorkDir: work,
	}, e.fs, provider)
	if err != nil {
		return 0, nil, err
	}
	job := e.bm.Job("/input", fmt.Sprintf("/out-%04d", e.seq), e.spec.reducers)
	if tr != nil {
		traced.job = tr.begin("mapred.run", 0, op)
	}
	start := time.Now()
	res, err = cluster.Run(job)
	end := time.Now()
	if tr != nil {
		tr.end(traced.job)
		traced.addPhases(start, end)
	}
	if cerr := cluster.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	return end.Sub(start).Seconds(), res, err
}

// addPhases records the two intervals of a job that no decorated call
// covers but that its calls delimit: Run's start to the first
// Fetcher.Fetch, and the end of the last Merger.Finish to Run's return.
func (p *tracedProvider) addPhases(start, end time.Time) {
	if first := p.firstFetchStart.Load(); first > 0 {
		p.tr.add("mapred.map_phase", p.job, p.op, start, p.tr.t0.Add(time.Duration(first)))
	}
	if last := p.lastFinishEnd.Load(); last > 0 {
		p.tr.add("mapred.reduce_tail", p.job, p.op, p.tr.t0.Add(time.Duration(last)), end)
	}
}

// verify reads the job's output back and checks it against the
// reference: record count, order-independent checksum and, for Terasort,
// that each part holds only its TeraPartitioner range in key order, which
// makes the concatenated parts globally sorted.
func (e *jobEnv) verify(res *mapred.Result) error {
	if got := res.Counters.OutputRecords; got != e.ref.records {
		return fmt.Errorf("job wrote %d records, want %d", got, e.ref.records)
	}
	var got jobReference
	for part, path := range res.OutputFiles {
		if err := e.verifyPart(part, path, &got); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if got != e.ref {
		return fmt.Errorf("job output has %d records with checksum %x, want %d with %x",
			got.records, got.sum, e.ref.records, e.ref.sum)
	}
	return nil
}

// verifyPart folds one output part into got, checking Terasort's order.
func (e *jobEnv) verifyPart(part int, path string, got *jobReference) error {
	r, err := e.fs.Open(path, "")
	if err != nil {
		return err
	}
	defer r.Close()
	sorted := e.spec.benchmark == "Terasort"
	var prev []byte
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Bytes()
		tab := bytes.IndexByte(line, '\t')
		if tab < 0 {
			return fmt.Errorf("output line without a tab: %q", line)
		}
		k, v := line[:tab], line[tab+1:]
		got.records++
		got.sum += hashKV(k, v)
		if sorted {
			if bytes.Compare(prev, k) > 0 || workload.TeraPartitioner(k, e.spec.reducers) != part {
				return fmt.Errorf("key %q out of order or in the wrong part", k)
			}
			prev = append(prev[:0], k...)
		}
	}
	return sc.Err()
}

// discard deletes a finished job's output from the DFS.
func (e *jobEnv) discard(res *mapred.Result) {
	for _, path := range res.OutputFiles {
		_ = e.fs.Delete(path) // scratch output inside the run directory
	}
}

func (e *jobEnv) daemons() map[string][]int { return nil }

func (e *jobEnv) inputsSHA256() string { return e.sha }

func (e *jobEnv) segmentBytes() int { return e.segBytes }

func (e *jobEnv) close() error { return os.RemoveAll(e.dir) }

// run executes the job back to back for about d, one at a time. Every
// job's record count is checked; the last job's output is verified in
// full outside the timed region. Each job is one window: its CPU and
// allocation run from the end of the job before it, so they include the
// cluster's tear-down and the deletion of the previous job's output.
func (e *jobEnv) run(d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	var before counterSet
	if tr != nil {
		before = localCounters()
		s.counters = make(counterSet)
	}
	open, err := readEdge(nil)
	if err != nil {
		return nil, err
	}
	prev := open
	var last *mapred.Result
	for elapsed := 0.0; elapsed < d.Seconds(); {
		seconds, res, err := e.runJob(tr, int32(s.attempted+1))
		s.attempted++
		elapsed += seconds
		now, eerr := readEdge(nil)
		if eerr != nil {
			return nil, eerr
		}
		from := prev
		prev = now
		if err != nil {
			s.fail(err)
			continue
		}
		if last != nil {
			e.discard(last)
			last = nil
		}
		if got := res.Counters.OutputRecords; got != e.ref.records {
			s.fail(fmt.Errorf("job wrote %d records, want %d", got, e.ref.records))
			e.discard(res)
			continue
		}
		last = res
		s.opSeconds = append(s.opSeconds, seconds)
		s.wallSeconds += seconds
		s.bytes += res.Counters.ShuffledBytes
		s.segments += res.Counters.ShuffledSegments
		s.windows = append(s.windows,
			windowSince(from, now, seconds, res.Counters.ShuffledBytes, res.Counters.ShuffledSegments))
		if tr != nil {
			c := res.Counters
			s.counters["map_tasks"] += float64(c.MapTasks)
			s.counters["map_spills"] += float64(c.MapSpills)
			s.counters["combine_inputs"] += float64(c.CombineInputs)
			s.counters["combine_outputs"] += float64(c.CombineOutputs)
		}
	}
	s.since(open, prev)
	if tr != nil {
		for k, v := range localCounters().minus(before) {
			s.counters[k] = v
		}
	}
	if last != nil {
		if err := e.verify(last); err != nil {
			s.fail(err)
		}
		e.discard(last)
	}
	return s, nil
}
