package mapred

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Emit receives one intermediate or output record. The key and value are
// copied before it returns, so the caller may reuse their memory.
type Emit func(key, value []byte)

// MapFunc transforms one input record into intermediate records. The key
// and value are borrowed from the RecordReader: they are valid until the
// function returns, and a function that keeps one longer must copy it.
type MapFunc func(key, value []byte, emit Emit) error

// ReduceFunc folds all values of one key into output records. The key and
// values are valid until the function returns.
type ReduceFunc func(key []byte, values [][]byte, emit Emit) error

// Partitioner assigns a key to one of numReduce partitions.
type Partitioner func(key []byte, numReduce int) int

// HashPartitioner is the default FNV-1a partitioner.
func HashPartitioner(key []byte, numReduce int) int {
	h := fnv.New32a()
	_, _ = h.Write(key) // fnv.Write never fails
	return int(h.Sum32() % uint32(numReduce))
}

// Job describes one MapReduce job.
type Job struct {
	// Name labels the job in logs and output paths.
	Name string
	// Input is the DFS path of the input file.
	Input string
	// Output is the DFS directory for part files.
	Output string
	// NumReducers is the number of ReduceTasks.
	NumReducers int
	// Map is the user map function.
	Map MapFunc
	// Reduce is the user reduce function. If nil, intermediate records are
	// written out directly (identity reduce).
	Reduce ReduceFunc
	// Combine, if non-nil, runs on each MapTask's sorted partition buffers
	// before the MOF is written, shrinking intermediate data (this is why
	// WordCount and Grep shuffle little data in the paper's Fig. 12).
	Combine ReduceFunc
	// SortMemory is the map-side sort buffer budget in bytes (Hadoop's
	// io.sort.mb), counting each buffered record's key, value and sort
	// bookkeeping: map outputs beyond it spill sorted runs to local disk,
	// merged into the final MOF at task end. Zero means unbounded.
	SortMemory int64
	// CompressMOF enables per-segment flate compression of map outputs
	// (Hadoop's mapred.compress.map.output), shrinking local disk traffic
	// and shuffle volume; reducers inflate fetched segments before
	// merging.
	CompressMOF bool
	// InputFormat defaults to LineInput.
	InputFormat InputFormat
	// Partitioner defaults to HashPartitioner.
	Partitioner Partitioner
}

// Validate checks the job and fills defaults.
func (j *Job) Validate() error {
	if j.Name == "" {
		return errors.New("mapred: job needs a name")
	}
	if j.Input == "" || j.Output == "" {
		return fmt.Errorf("mapred: job %s needs input and output paths", j.Name)
	}
	if j.NumReducers <= 0 {
		return fmt.Errorf("mapred: job %s needs at least one reducer", j.Name)
	}
	if j.Map == nil {
		return fmt.Errorf("mapred: job %s needs a map function", j.Name)
	}
	if j.InputFormat == nil {
		j.InputFormat = LineInput
	}
	if j.Partitioner == nil {
		j.Partitioner = HashPartitioner
	}
	return nil
}

// Counters aggregates job statistics, mirroring Hadoop's counter groups.
type Counters struct {
	MapTasks            int64
	ReduceTasks         int64
	MapInputRecords     int64
	MapOutputRecords    int64
	MapOutputBytes      int64
	CombineInputs       int64
	CombineOutputs      int64
	MapSpills           int64
	MapSpilledBytes     int64
	TaskRetries         int64
	SpeculativeLaunches int64
	SpeculativeWins     int64
	ShuffledSegments    int64
	ShuffledBytes       int64
	SpillEvents         int64
	SpilledBytes        int64
	MergePasses         int64
	ReduceGroups        int64
	OutputRecords       int64
	OutputBytes         int64
	LocalMapTasks       int64
	RemoteMapTasks      int64
}

// counterSet is a job's counter bank. A task attempt counts in a Counters
// of its own, with plain increments, and adds it here once, when it
// commits: an attempt that fails, is retried or loses to a speculative twin
// leaves no trace in the job's counters. Only what belongs to the job and
// not to any one attempt (retries, speculative launches) is added as it
// happens.
type counterSet struct {
	mu    sync.Mutex
	total Counters
}

func (cs *counterSet) add(d *Counters) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	t := &cs.total
	t.MapTasks += d.MapTasks
	t.ReduceTasks += d.ReduceTasks
	t.MapInputRecords += d.MapInputRecords
	t.MapOutputRecords += d.MapOutputRecords
	t.MapOutputBytes += d.MapOutputBytes
	t.CombineInputs += d.CombineInputs
	t.CombineOutputs += d.CombineOutputs
	t.MapSpills += d.MapSpills
	t.MapSpilledBytes += d.MapSpilledBytes
	t.TaskRetries += d.TaskRetries
	t.SpeculativeLaunches += d.SpeculativeLaunches
	t.SpeculativeWins += d.SpeculativeWins
	t.ShuffledSegments += d.ShuffledSegments
	t.ShuffledBytes += d.ShuffledBytes
	t.SpillEvents += d.SpillEvents
	t.SpilledBytes += d.SpilledBytes
	t.MergePasses += d.MergePasses
	t.ReduceGroups += d.ReduceGroups
	t.OutputRecords += d.OutputRecords
	t.OutputBytes += d.OutputBytes
	t.LocalMapTasks += d.LocalMapTasks
	t.RemoteMapTasks += d.RemoteMapTasks
}

func (cs *counterSet) snapshot() Counters {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.total
}

// Result is the outcome of a completed job.
type Result struct {
	// Job is the job name.
	Job string
	// Shuffle is the shuffle provider used.
	Shuffle string
	// OutputFiles are the DFS part-file paths, one per reducer.
	OutputFiles []string
	// Counters are the aggregated statistics.
	Counters Counters
}

// firstErr captures the first error from concurrent tasks.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
