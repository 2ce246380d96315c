package mapred

import (
	"sort"
	"sync"

	"repro/internal/merge"
)

// MOFPaths locates one map task's output: the MOF data file and its index
// file on the node's local disk.
type MOFPaths struct {
	Data  string
	Index string
}

// MOFRegistry is the per-node table of completed map outputs the shuffle
// server consults. TaskTrackers register MOFs as MapTasks commit.
type MOFRegistry struct {
	mu     sync.RWMutex
	byTask map[string]MOFPaths
}

// NewMOFRegistry returns an empty registry.
func NewMOFRegistry() *MOFRegistry {
	return &MOFRegistry{byTask: make(map[string]MOFPaths)}
}

// Register records a completed map task's output files.
func (r *MOFRegistry) Register(task string, p MOFPaths) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byTask[task] = p
}

// RegisterOnce commits a task's output only if no attempt committed first,
// reporting whether this attempt won — the commit protocol behind
// speculative execution.
func (r *MOFRegistry) RegisterOnce(task string, p MOFPaths) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byTask[task]; ok {
		return false
	}
	r.byTask[task] = p
	return true
}

// Lookup returns the MOF paths for a task.
func (r *MOFRegistry) Lookup(task string) (MOFPaths, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.byTask[task]
	return p, ok
}

// Tasks returns the registered task ids, sorted.
func (r *MOFRegistry) Tasks() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byTask))
	for t := range r.byTask {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// SegmentID names one shuffle unit: the segment of one map task's MOF
// destined for one reduce partition, hosted on one node.
type SegmentID struct {
	// Host is the node holding the MOF.
	Host string
	// MapTask is the producing map task id.
	MapTask string
	// Partition is the reduce partition.
	Partition int
}

// Fetcher is the per-node client side of a shuffle implementation: stock
// Hadoop's MOFCopier threads, or JBS's NetMerger. One Fetcher serves every
// ReduceTask on its node; Fetch must be safe for concurrent calls (the JBS
// NetMerger consolidates them; the baseline runs them independently).
type Fetcher interface {
	// Fetch retrieves all segments, invoking deliver once per segment with
	// its raw bytes. deliver calls may come from the calling goroutine or
	// an internal one, but never concurrently for one Fetch call. The
	// bytes are lent to reduceTask until Release: deliver may keep the
	// slice (the mergers do) but nothing may read it afterwards.
	Fetch(reduceTask string, segs []SegmentID, deliver func(SegmentID, []byte) error) error
	// Release ends the loan of everything Fetch delivered to reduceTask;
	// the engine calls it once per reduce attempt, on every exit, after
	// the merge iterator is closed. JBS returns pooled buffers here.
	Release(reduceTask string)
	// Close releases the fetcher's connections.
	Close() error
}

// ShuffleProvider plugs a complete shuffle implementation into the engine,
// mirroring the Hadoop pluggable-shuffle hook the paper uses (MAPREDUCE-
// 4049): a per-node server component and a per-node fetch component, plus
// the reduce-side merger choice that goes with them.
type ShuffleProvider interface {
	// Name identifies the implementation in reports.
	Name() string
	// StartNode starts the node's shuffle server (HttpServlets or
	// MOFSupplier) over its MOF registry, returning the address remote
	// fetchers use.
	StartNode(node string, reg *MOFRegistry) (addr string, stop func() error, err error)
	// NewFetcher creates the node's fetch engine. addrOf resolves a node
	// name to its shuffle server address.
	NewFetcher(node string, addrOf func(node string) (string, error)) (Fetcher, error)
	// NewMerger creates the reduce-side merger paired with this shuffle
	// (spill-based for stock Hadoop, network-levitated for JBS). spillDir
	// is a reducer-private scratch directory.
	NewMerger(spillDir string) (merge.Merger, error)
}
