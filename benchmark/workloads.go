package main

import (
	"fmt"
	"time"
)

// jobSpec sizes one in-process mapred job workload.
type jobSpec struct {
	// benchmark is the workload.ByName name ("Terasort", "WordCount").
	benchmark string
	// records is the number of generated input records (lines).
	records int
	// recordLen is the fixed input record width in bytes.
	recordLen int
	// blockRecords is the DFS block size in records: one map task each.
	blockRecords int
	reducers     int
}

// fetchSpec sizes one multi-process fetch workload: a tasks x parts grid
// of segBytes segments served by two jbssupplierd processes.
type fetchSpec struct {
	tasks, parts, segBytes int
}

// workloadSpec is one named workload; exactly one of job and fetch is set.
type workloadSpec struct {
	name  string
	job   *jobSpec
	fetch *fetchSpec
}

// The sizes below are the issue's, scaled down: the same layers do the
// same share of the work, on less data. terasort-job's jobs are kept to a
// third of a second on purpose. The sandbox un-backs guest memory that has
// been free for two seconds (virtio-balloon free page reporting), and a
// job that writes its multi-megabyte DFS blocks into such memory pays the
// hypervisor about 6 ms per MB for it. With jobs much shorter than the
// reporter's two-second cadence few jobs are hit, and the medians a run
// reports ignore them; at one second per job every second or third job
// was hit and a run's median jumped between two modes.
var workloads = []workloadSpec{
	// The paper's headline job. Every layer works; reduce-side
	// reassembly and the whole-partition NetLevitatedMerger dominate.
	{name: "terasort-job", job: &jobSpec{
		benchmark: "Terasort", records: 300_000, recordLen: 100, blockRecords: 25_000, reducers: 4}},
	// Same engine, but the combiner leaves 8% of terasort-job's bytes to
	// shuffle: map-side writers and GroupByKey dominate, so a
	// shuffle-path change predicts no movement here. Its files are small,
	// so the cold-memory cost above does not reach it and its jobs can be
	// longer. Six map tasks are fewer than the eight commits the engine
	// waits for before it fetches early, so the reducers fetch once, after
	// the map phase, and do not wait behind map tasks for a core.
	{name: "wordcount-job", job: &jobSpec{
		benchmark: "WordCount", records: 240_000, recordLen: 64, blockRecords: 40_000, reducers: 4}},
	// Bytes dominate. Each supplier's share of the fixture (~140 MB)
	// exceeds its 64 MiB DataCache, so every fetch is a staging miss:
	// pread, stage + evict, nine 128 KiB frames + CRC32C per segment.
	{name: "fetch-large-cold", fetch: &fetchSpec{tasks: 64, parts: 4, segBytes: 1 << 20}},
	// Fixed per-fetch cost dominates. The 9 MB fixture is resident in
	// every cache after the untimed first round: merger lock + injector,
	// request marshal, Resolve per spec, DataCache pin, one frame each.
	{name: "fetch-small-hot", fetch: &fetchSpec{tasks: 128, parts: 16, segBytes: 4 << 10}},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// sample is what one timed region measured, from outside the program.
type sample struct {
	// opSeconds holds the wall time of every operation: one Cluster.Run
	// on a job workload, one batch NetMerger.Fetch on a fetch workload.
	opSeconds []float64
	// wallSeconds is the time the operations ran for: the sum of
	// opSeconds on a job workload (one closed-loop client), the span from
	// the first batch's start to the last batch's end on a fetch workload
	// (two clients).
	wallSeconds float64
	// bytes and segments are what reducers were handed.
	bytes, segments int64
	// attempted and failed count operations, the verification-only ones
	// outside the timed region included.
	attempted, failed int
	// cpuSeconds is user+sys CPU by role ("bench", "supplier",
	// "registry") over the timed region; allocBytes the benchmark
	// process's cumulative heap allocation over it.
	cpuSeconds map[string]float64
	allocBytes uint64
	// windows cuts the timed region into slices measured on their own.
	windows []window
	// counters holds layer counts the program exports, summed over the
	// region; filled on traced runs only.
	counters counterSet
	// firstErr is the first operation failure, for the operator.
	firstErr error
}

// window is one slice of a timed region: one job on a job workload,
// fetchWindow of wall time on a fetch workload. Rates and costs are
// computed per window and a run reports their medians, so that a burst of
// noise on the shared host spoils a few windows and not the run's number.
type window struct {
	seconds         float64
	bytes, segments int64
	cpuSeconds      float64 // user+sys of every process
	allocBytes      uint64
	rssMB           float64 // resident set of every process at the window's end
}

// fail counts one failed operation, keeping the first error.
func (s *sample) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// env is one set-up workload, ready to run timed regions.
type env interface {
	// run executes operations back to back for about d. With a tracer it
	// decorates the program's seams and records spans.
	run(d time.Duration, tr *tracer) (*sample, error)
	// daemons lists the OS processes the workload runs besides the
	// benchmark itself, by role.
	daemons() map[string][]int
	// inputsSHA256 fingerprints the generated input files.
	inputsSHA256() string
	// segmentBytes is the mean size of the segments an operation moves;
	// the ladder runs on segments of that size.
	segmentBytes() int
	// close stops daemons and removes the run directory.
	close() error
}
