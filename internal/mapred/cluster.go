// Package mapred is a from-scratch MapReduce engine with Hadoop's runtime
// structure (Section II-A): a JobTracker scheduling MapTasks and
// ReduceTasks onto per-node TaskTracker slots, MapTasks that read DFS
// splits and write partitioned, sorted Map Output Files to local disk, and
// ReduceTasks that shuffle, merge and reduce. The shuffle itself is a
// plugin (ShuffleProvider), which is exactly the seam JBS occupies.
package mapred

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/merge"
	"repro/internal/mof"
)

// Config sizes the compute cluster. The paper's testbed runs 4 MapTask
// slots and 2 ReduceTask slots per slave node.
type Config struct {
	// Nodes are the slave node names; they must match the DFS datanodes.
	Nodes []string
	// MapSlotsPerNode bounds concurrent MapTasks per node (default 4).
	MapSlotsPerNode int
	// ReduceSlotsPerNode bounds concurrent ReduceTasks per node (default 2).
	ReduceSlotsPerNode int
	// WorkDir is the local scratch root for MOFs and spills.
	WorkDir string
	// MaxTaskAttempts is how many times a failing task is retried before
	// the job fails (Hadoop's mapred.map.max.attempts; default 1 = no
	// retries).
	MaxTaskAttempts int
	// Speculative enables speculative execution: a MapTask still running
	// after SpeculativeDelay gets a backup attempt on another node; the
	// first attempt to commit its MOF wins, the loser is discarded.
	Speculative bool
	// SpeculativeDelay is how long a MapTask may run before a backup
	// launches (default 500ms — in-process tasks are fast).
	SpeculativeDelay time.Duration
}

func (c *Config) applyDefaults() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("mapred: need at least one node")
	}
	if c.MapSlotsPerNode == 0 {
		c.MapSlotsPerNode = 4
	}
	if c.ReduceSlotsPerNode == 0 {
		c.ReduceSlotsPerNode = 2
	}
	if c.MapSlotsPerNode < 0 || c.ReduceSlotsPerNode < 0 {
		return fmt.Errorf("mapred: slot counts must be positive")
	}
	if c.WorkDir == "" {
		return fmt.Errorf("mapred: need a work directory")
	}
	if c.MaxTaskAttempts == 0 {
		c.MaxTaskAttempts = 1
	}
	if c.MaxTaskAttempts < 0 {
		return fmt.Errorf("mapred: max task attempts must be positive")
	}
	if c.SpeculativeDelay == 0 {
		c.SpeculativeDelay = 500 * time.Millisecond
	}
	if c.SpeculativeDelay < 0 {
		return fmt.Errorf("mapred: speculative delay must be positive")
	}
	return nil
}

// Cluster is a running compute cluster bound to a DFS and one shuffle
// implementation.
type Cluster struct {
	cfg      Config
	fs       *dfs.Cluster
	provider ShuffleProvider

	registries map[string]*MOFRegistry
	addrs      map[string]string
	fetchers   map[string]Fetcher
	stops      []func() error

	jobSeq int
	mu     sync.Mutex
}

// NewCluster starts the shuffle servers and fetchers on every node.
func NewCluster(cfg Config, fs *dfs.Cluster, provider ShuffleProvider) (*Cluster, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:        cfg,
		fs:         fs,
		provider:   provider,
		registries: make(map[string]*MOFRegistry),
		addrs:      make(map[string]string),
		fetchers:   make(map[string]Fetcher),
	}
	for _, node := range cfg.Nodes {
		reg := NewMOFRegistry()
		c.registries[node] = reg
		addr, stop, err := provider.StartNode(node, reg)
		if err != nil {
			_ = c.Close() // already failing; the start error is the one to report
			return nil, fmt.Errorf("mapred: start shuffle server on %s: %w", node, err)
		}
		c.addrs[node] = addr
		c.stops = append(c.stops, stop)
	}
	addrOf := func(node string) (string, error) {
		a, ok := c.addrs[node]
		if !ok {
			return "", fmt.Errorf("mapred: no shuffle server for node %s", node)
		}
		return a, nil
	}
	for _, node := range cfg.Nodes {
		f, err := provider.NewFetcher(node, addrOf)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("mapred: start fetcher on %s: %w", node, err)
		}
		c.fetchers[node] = f
	}
	return c, nil
}

// Close stops fetchers and shuffle servers.
func (c *Cluster) Close() error {
	var first error
	for _, f := range c.fetchers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, stop := range c.stops {
		if err := stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShuffleName returns the active shuffle provider's name.
func (c *Cluster) ShuffleName() string { return c.provider.Name() }

// mapEvent announces one committed MapTask to a ReduceTask's shuffle (or a
// map-phase failure). Reducers fetch segments incrementally as these
// arrive, overlapping the shuffle with the map phase exactly as Hadoop's
// MOFCopiers do (paper Fig. 1).
type mapEvent struct {
	task string
	host string
	err  error
}

// Run executes one job to completion. The map and reduce phases run
// concurrently: ReduceTasks start immediately and shuffle each MapTask's
// segments as soon as that map commits.
func (c *Cluster) Run(job *Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.jobSeq++
	jobID := fmt.Sprintf("job-%04d-%s", c.jobSeq, job.Name)
	c.mu.Unlock()

	cs := &counterSet{}

	splits, err := c.fs.Splits(job.Input)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", jobID, err)
	}
	assignments := c.scheduleMaps(jobID, splits)

	// One completion feed per reducer, buffered so map commits never
	// block: at most one event per map plus one failure marker.
	feeds := make([]chan mapEvent, job.NumReducers)
	for i := range feeds {
		feeds[i] = make(chan mapEvent, len(assignments)+1)
	}

	// The map phase runs concurrently with the reduce phase; the WaitGroup
	// makes the join explicit, so the goroutine provably cannot outlive Run
	// (mapErr is written before Done and read only after Wait).
	var mapWG sync.WaitGroup
	var mapErr error
	mapWG.Add(1)
	go func() {
		defer mapWG.Done()
		mapErr = c.runMapPhase(assignments, job, cs, feeds)
	}()
	outputs, reduceErr := c.runReducePhase(jobID, job, len(assignments), feeds, cs)
	mapWG.Wait()

	if mapErr != nil {
		return nil, fmt.Errorf("mapred: %s map phase: %w", jobID, mapErr)
	}
	if reduceErr != nil {
		return nil, fmt.Errorf("mapred: %s reduce phase: %w", jobID, reduceErr)
	}
	return &Result{
		Job:         job.Name,
		Shuffle:     c.provider.Name(),
		OutputFiles: outputs,
		Counters:    cs.snapshot(),
	}, nil
}

// mapAssignment pairs a split with its chosen node.
type mapAssignment struct {
	taskID string
	split  dfs.Split
	node   string
	local  bool
}

// scheduleMaps assigns splits to nodes, preferring split-local nodes with
// spare assignments (the delay-scheduling effect: most MapTasks read local
// input).
func (c *Cluster) scheduleMaps(jobID string, splits []dfs.Split) []mapAssignment {
	load := make(map[string]int, len(c.cfg.Nodes))
	valid := make(map[string]bool, len(c.cfg.Nodes))
	for _, n := range c.cfg.Nodes {
		valid[n] = true
	}
	var out []mapAssignment
	rr := 0
	for i, sp := range splits {
		node := ""
		local := false
		// Prefer the least-loaded valid local host.
		for _, h := range sp.Hosts {
			if valid[h] && (node == "" || load[h] < load[node]) {
				node = h
				local = true
			}
		}
		if node == "" {
			node = c.cfg.Nodes[rr%len(c.cfg.Nodes)]
			rr++
		}
		load[node]++
		out = append(out, mapAssignment{
			taskID: fmt.Sprintf("%s-m-%05d", jobID, i),
			split:  sp,
			node:   node,
			local:  local,
		})
	}
	return out
}

// runMapPhase executes all MapTasks (with optional speculative backups),
// broadcasting every winning commit to the reducer feeds. On failure the
// feeds receive a failure marker so waiting reducers abort.
func (c *Cluster) runMapPhase(assignments []mapAssignment, job *Job, cs *counterSet, feeds []chan mapEvent) error {
	// A node's channel holds one token per free map slot. The token is the
	// slot's buffers: an attempt takes one to run and puts it back, buffers
	// grown to what it needed, for the slot's next task.
	slots := make(map[string]chan *mapBuffers, len(c.cfg.Nodes))
	for _, n := range c.cfg.Nodes {
		slots[n] = make(chan *mapBuffers, c.cfg.MapSlotsPerNode)
		for i := 0; i < c.cfg.MapSlotsPerNode; i++ {
			slots[n] <- newMapBuffers()
		}
	}

	var wg sync.WaitGroup
	var fe firstErr
	var commitHost sync.Map // taskID -> winning node
	announce := func(task, node string) {
		for _, feed := range feeds {
			feed <- mapEvent{task: task, host: node}
		}
	}
	for _, a := range assignments {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.superviseMapTask(a, job, cs, slots, &fe, &commitHost, announce, &wg)
		}()
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		for _, feed := range feeds {
			feed <- mapEvent{err: err}
		}
		return err
	}
	return nil
}

// superviseMapTask runs a task's primary attempt and, under speculative
// execution, a backup attempt on the next node if the primary runs past
// the delay. The job fails only if every attempt fails.
func (c *Cluster) superviseMapTask(a mapAssignment, job *Job, cs *counterSet,
	slots map[string]chan *mapBuffers, fe *firstErr, commitHost *sync.Map,
	announce func(task, node string), wg *sync.WaitGroup) {

	done := make(chan error, 2)
	runAttempt := func(node string, attempt int) {
		bufs := <-slots[node]
		defer func() { slots[node] <- bufs }()
		done <- c.withRetry(fmt.Sprintf("map task %s attempt %d", a.taskID, attempt), cs, nil, func() error {
			return c.runMapTask(a, node, attempt, job, cs, bufs, commitHost, announce)
		})
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		runAttempt(a.node, 0)
	}()

	if !c.cfg.Speculative || len(c.cfg.Nodes) < 2 {
		if err := <-done; err != nil {
			fe.set(fmt.Errorf("task %s on %s: %w", a.taskID, a.node, err))
		}
		return
	}

	timer := time.NewTimer(c.cfg.SpeculativeDelay)
	defer timer.Stop()
	select {
	case err := <-done:
		if err != nil {
			fe.set(fmt.Errorf("task %s on %s: %w", a.taskID, a.node, err))
		}
		return
	case <-timer.C:
	}

	// The primary is a straggler: launch a backup on the next node.
	cs.add(&Counters{SpeculativeLaunches: 1})
	backupNode := c.nextNode(a.node)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runAttempt(backupNode, 1)
	}()

	err1 := <-done
	if err1 == nil {
		// One attempt committed; the other will discard itself. Drain it
		// so the channel's sender never blocks (capacity 2 covers this,
		// but the job must not finish before both attempts settle — the
		// WaitGroup holds for them).
		return
	}
	if err2 := <-done; err2 != nil {
		fe.set(fmt.Errorf("task %s (both attempts failed): %w", a.taskID, err2))
	}
}

// nextNode picks the speculative backup node.
func (c *Cluster) nextNode(node string) string {
	for i, n := range c.cfg.Nodes {
		if n == node {
			return c.cfg.Nodes[(i+1)%len(c.cfg.Nodes)]
		}
	}
	return c.cfg.Nodes[0]
}

// runMapTask executes one map attempt on the given node, in the slot's
// buffers: read the split, feed the map function's output through the sort
// writer, seal the attempt's MOF, and try to commit it. The attempt counts
// in its own Counters and adds them to the job's only if it commits.
// A losing attempt (another attempt committed first) discards its files
// and reports success.
func (c *Cluster) runMapTask(a mapAssignment, node string, attempt int, job *Job, cs *counterSet, bufs *mapBuffers, commitHost *sync.Map, announce func(task, node string)) error {
	r, err := c.fs.OpenRange(a.split.Path, node, a.split.Offset, a.split.Length)
	if err != nil {
		return err
	}
	defer r.Close()
	bufs.in.Reset(r)
	var tc Counters

	dir := filepath.Join(c.cfg.WorkDir, node, "mof")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	attemptID := fmt.Sprintf("%s-a%d", a.taskID, attempt)
	w := newSortWriter(writerConfig{
		partitions: job.NumReducers,
		inputBytes: a.split.Length,
		sortMemory: job.SortMemory,
		dir:        dir,
		taskID:     attemptID,
		combine:    job.Combine,
		compress:   job.CompressMOF,
		tc:         &tc,
		bufs:       bufs,
	})
	sealed := false
	defer func() {
		if !sealed {
			w.Abort()
		}
	}()

	var emitErr error
	emit := func(k, v []byte) {
		p := job.Partitioner(k, job.NumReducers)
		if err := w.Add(p, k, v); err != nil && emitErr == nil {
			emitErr = err
		}
		tc.MapOutputRecords++
		tc.MapOutputBytes += int64(len(k) + len(v))
	}
	reader := job.InputFormat(bufs.in)
	for {
		k, v, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		tc.MapInputRecords++
		if err := job.Map(k, v, emit); err != nil {
			return err
		}
		if emitErr != nil {
			return emitErr
		}
	}

	paths := MOFPaths{
		Data:  filepath.Join(dir, attemptID+".data"),
		Index: filepath.Join(dir, attemptID+".index"),
	}
	if err := w.Seal(paths); err != nil {
		return err
	}
	sealed = true

	// Commit: the first attempt to claim the task (across all nodes) wins;
	// the loser withdraws its files.
	if _, lost := commitHost.LoadOrStore(a.taskID, node); lost {
		os.Remove(paths.Data)
		os.Remove(paths.Index)
		return nil
	}
	c.registries[node].Register(a.taskID, paths)
	announce(a.taskID, node)
	tc.MapTasks = 1
	if attempt > 0 {
		tc.SpeculativeWins = 1
	}
	if slices.Contains(a.split.Hosts, node) {
		tc.LocalMapTasks = 1
	} else {
		tc.RemoteMapTasks = 1
	}
	cs.add(&tc)
	return nil
}

// withRetry runs fn up to MaxTaskAttempts times, invoking cleanup before
// every re-attempt (Hadoop's per-task attempt machinery, collapsed to the
// in-process case: a retried attempt truncates and rewrites its own
// files).
func (c *Cluster) withRetry(kind string, cs *counterSet, cleanup func(), fn func() error) error {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxTaskAttempts; attempt++ {
		if attempt > 1 {
			cs.add(&Counters{TaskRetries: 1})
			if cleanup != nil {
				cleanup()
			}
		}
		if err := fn(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("%s failed after %d attempts: %w", kind, c.cfg.MaxTaskAttempts, lastErr)
}

// eventCursor replays a reducer's completion feed across task-attempt
// retries: recorded events are replayed, then new ones read from the feed.
type eventCursor struct {
	feed chan mapEvent
	seen []mapEvent
}

// at returns the i-th event, reading from the feed as needed.
func (ec *eventCursor) at(i int) mapEvent {
	for i >= len(ec.seen) {
		ec.seen = append(ec.seen, <-ec.feed)
	}
	return ec.seen[i]
}

// fetchBatchSize is how many newly committed maps a reducer's shuffle
// requests in one Fetch call.
const fetchBatchSize = 8

// runReducePhase launches every ReduceTask immediately; each shuffles
// incrementally from its completion feed and returns its output file.
func (c *Cluster) runReducePhase(jobID string, job *Job, numMaps int, feeds []chan mapEvent, cs *counterSet) ([]string, error) {
	slots := make(map[string]chan struct{}, len(c.cfg.Nodes))
	for _, n := range c.cfg.Nodes {
		slots[n] = make(chan struct{}, c.cfg.ReduceSlotsPerNode)
	}

	outputs := make([]string, job.NumReducers)
	var wg sync.WaitGroup
	var fe firstErr
	for rID := 0; rID < job.NumReducers; rID++ {
		rID := rID
		node := c.cfg.Nodes[rID%len(c.cfg.Nodes)]
		cursor := &eventCursor{feed: feeds[rID]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots[node] <- struct{}{}
			defer func() { <-slots[node] }()
			outPath := fmt.Sprintf("%s/part-r-%05d", job.Output, rID)
			cleanup := func() { c.fs.Delete(outPath) }
			var out string
			err := c.withRetry(fmt.Sprintf("reduce task %d", rID), cs, cleanup, func() error {
				var rerr error
				out, rerr = c.runReduceTask(jobID, job, rID, node, numMaps, cursor, cs)
				return rerr
			})
			if err != nil {
				fe.set(fmt.Errorf("reducer %d on %s: %w", rID, node, err))
				return
			}
			outputs[rID] = out
		}()
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		return nil, err
	}
	return outputs, nil
}

func (c *Cluster) runReduceTask(jobID string, job *Job, rID int, node string, numMaps int, cursor *eventCursor, cs *counterSet) (string, error) {
	reduceID := fmt.Sprintf("%s-r-%05d", jobID, rID)

	spillDir := filepath.Join(c.cfg.WorkDir, node, "spill", reduceID)
	// Every exit removes the attempt's spill runs. The success path below
	// removes them itself first, so that it can report a failure to.
	defer os.RemoveAll(spillDir)
	merger, err := c.provider.NewMerger(spillDir)
	if err != nil {
		return "", err
	}
	fetcher := c.fetchers[node]
	defer fetcher.Release(reduceID) // deferred first, so it runs after it.Close
	// The attempt's own counters, added to the job's when it has
	// succeeded: a failed attempt that withRetry runs again counts once.
	var tc Counters
	deliver := func(id SegmentID, data []byte) error {
		tc.ShuffledSegments++
		tc.ShuffledBytes += int64(len(data))
		// Empty segments (padded index entries) are stored as zero bytes
		// whether or not the MOF is compressed.
		if job.CompressMOF && len(data) > 0 {
			raw, derr := mof.DecompressSegment(data)
			if derr != nil {
				return derr
			}
			data = raw
		}
		return merger.AddSegment(data)
	}

	// Incremental shuffle: fetch each batch of newly committed map outputs
	// while the remaining MapTasks are still running.
	var batch []SegmentID
	for i := 0; i < numMaps; i++ {
		ev := cursor.at(i)
		if ev.err != nil {
			return "", fmt.Errorf("shuffle aborted: %w", ev.err)
		}
		batch = append(batch, SegmentID{Host: ev.host, MapTask: ev.task, Partition: rID})
		if len(batch) >= fetchBatchSize || i == numMaps-1 {
			if err := fetcher.Fetch(reduceID, batch, deliver); err != nil {
				return "", fmt.Errorf("shuffle: %w", err)
			}
			batch = nil
		}
	}
	it, err := merger.Finish()
	if err != nil {
		return "", err
	}
	defer it.Close()

	outPath := fmt.Sprintf("%s/part-r-%05d", job.Output, rID)
	w, err := c.fs.Create(outPath, node)
	if err != nil {
		return "", err
	}
	// Every error exit discards the attempt's blocks; once Close has
	// committed the file, Abort does nothing.
	defer w.Abort()
	// The file writer is itself a block-sized buffer, so records go to it
	// directly. Emit cannot fail: the first write error is kept for the end
	// of the reduce (the writer refuses everything after it).
	var outErr error
	outEmit := func(k, v []byte) {
		for _, p := range [...][]byte{k, tab, v, newline} {
			if _, err := w.Write(p); err != nil && outErr == nil {
				outErr = err
			}
		}
		tc.OutputRecords++
		tc.OutputBytes += int64(len(k) + len(v) + 2)
	}

	if job.Reduce == nil {
		// Identity reduce: emit every record in order.
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return "", err
			}
			outEmit(rec.Key, rec.Value)
		}
	} else {
		err = merge.GroupByKey(it, func(key []byte, values [][]byte) error {
			tc.ReduceGroups++
			return job.Reduce(key, values, outEmit)
		})
		if err != nil {
			return "", err
		}
	}
	if outErr != nil {
		return "", outErr
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	if err := os.RemoveAll(spillDir); err != nil {
		return "", fmt.Errorf("remove spill dir for %s: %w", reduceID, err)
	}

	st := merger.Stats()
	tc.SpillEvents = int64(st.Spills)
	tc.SpilledBytes = st.SpilledBytes
	tc.MergePasses = int64(st.MergePasses)
	tc.ReduceTasks = 1
	cs.add(&tc)
	return outPath, nil
}

// The separators of a reducer's output line.
var tab, newline = []byte{'\t'}, []byte{'\n'}
