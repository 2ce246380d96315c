package mapred

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/merge"
	"repro/internal/mof"
)

// writerConfig sizes one map attempt's writer.
type writerConfig struct {
	// partitions is the job's reducer count.
	partitions int
	// inputBytes is the length of the attempt's input split. A map's
	// output is about the size of its input, so the buffers are allocated
	// once at this size (clamped by sortMemory) instead of grown by
	// append, which allocates five times the final size on the way there.
	inputBytes int64
	// sortMemory bounds the buffered bytes — records plus the writer's
	// own bookkeeping per record — before a sorted run spills to disk
	// (0 = unbounded).
	sortMemory int64
	// dir is the local scratch directory for spill runs.
	dir string
	// taskID prefixes run file names; it must be unique per attempt.
	taskID string
	// combine is the optional map-side combiner, run over every sorted
	// run before it is written.
	combine ReduceFunc
	// compress enables per-segment flate compression of runs and MOF.
	compress bool
	// cs receives spill/combine counters when the writer runs inside a
	// cluster job; nil outside one (benchmark and test harnesses).
	cs *counterSet
}

// sortEntry locates one record inside the arena.
type sortEntry struct {
	off        uint64
	klen, vlen uint32
}

// sortEntryBytes is the size of a sortEntry, charged to the sort budget
// for every buffered record.
const sortEntryBytes = 16

// sortWriter is the map side's MOF producer (Hadoop's io.sort.mb buffer):
// a MapTask feeds it every intermediate record and seals it into the
// task's servable MOF, every segment in key order with equal keys in emit
// order. Records are copied into one shared byte arena; sorting is a
// counting sort by partition into one exact-size entry slice followed by
// a key sort of each partition, so no per-record allocation is made and
// nothing grows by append. When the buffer exceeds its budget it is
// sorted and spilled as one partitioned run file, and Seal merges the runs
// per partition into the final MOF.
type sortWriter struct {
	cfg writerConfig
	// arena holds the key and value bytes of every buffered record, back
	// to back in emit order.
	arena []byte
	// meta holds, per buffered record in emit order, the uvarints
	// partition, key length and value length: about three bytes a record.
	// The sort entries are built from it at sort time, in one allocation
	// of the exact size, instead of growing beside the arena.
	meta []byte
	// counts is the number of buffered records per partition.
	counts   []int
	buffered int // records in the arena
	runs     []MOFPaths
}

func newSortWriter(cfg writerConfig) *sortWriter {
	size := cfg.inputBytes
	if cfg.sortMemory > 0 && cfg.sortMemory < size {
		size = cfg.sortMemory
	}
	return &sortWriter{
		cfg:   cfg,
		arena: make([]byte, 0, size),
		// Enough for records of 48 bytes and up; denser streams grow it.
		meta:   make([]byte, 0, size/16),
		counts: make([]int, cfg.partitions),
	}
}

func (w *sortWriter) key(e sortEntry) []byte {
	return w.arena[e.off : e.off+uint64(e.klen)]
}

func (w *sortWriter) val(e sortEntry) []byte {
	return w.arena[e.off+uint64(e.klen) : e.off+uint64(e.klen)+uint64(e.vlen)]
}

// Add copies one intermediate record for the given reduce partition into
// the arena, spilling a sorted run when the buffer exceeds its budget.
func (w *sortWriter) Add(partition int, key, value []byte) error {
	if partition < 0 || partition >= len(w.counts) {
		return fmt.Errorf("%w: %d of %d", mof.ErrBadPartition, partition, len(w.counts))
	}
	if uint64(len(key)) > math.MaxUint32 || uint64(len(value)) > math.MaxUint32 {
		return fmt.Errorf("mapred: record of %d+%d bytes exceeds the sort buffer's 4 GiB field limit", len(key), len(value))
	}
	w.arena = append(w.arena, key...)
	w.arena = append(w.arena, value...)
	w.meta = binary.AppendUvarint(w.meta, uint64(partition))
	w.meta = binary.AppendUvarint(w.meta, uint64(len(key)))
	w.meta = binary.AppendUvarint(w.meta, uint64(len(value)))
	w.counts[partition]++
	w.buffered++
	if w.cfg.sortMemory > 0 && int64(len(w.arena)+len(w.meta)+w.buffered*sortEntryBytes) > w.cfg.sortMemory {
		return w.spill()
	}
	return nil
}

// sorted returns the buffered records grouped by partition, each group
// in key order with equal keys in emit order, which is what the reduce
// side sees as value order. Emit order is arena order, so comparing
// offsets after keys makes the order total and lets the unstable sort,
// which is about twice as fast as the stable one, give the stable
// result. Two records share an offset only when the earlier one is empty
// (no key, no value), so among equal offsets the shorter value is first.
func (w *sortWriter) sorted() [][]sortEntry {
	all := make([]sortEntry, w.buffered)
	parts := make([][]sortEntry, len(w.counts))
	next := 0
	for p, n := range w.counts {
		parts[p] = all[next : next : next+n]
		next += n
	}
	var off uint64
	for m := w.meta; len(m) > 0; {
		p, a := binary.Uvarint(m)
		klen, b := binary.Uvarint(m[a:])
		vlen, c := binary.Uvarint(m[a+b:])
		m = m[a+b+c:]
		parts[p] = append(parts[p], sortEntry{off: off, klen: uint32(klen), vlen: uint32(vlen)})
		off += klen + vlen
	}
	for _, part := range parts {
		slices.SortFunc(part, func(a, b sortEntry) int {
			if c := bytes.Compare(w.key(a), w.key(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(a.off, b.off); c != 0 {
				return c
			}
			return cmp.Compare(a.vlen, b.vlen)
		})
	}
	return parts
}

// combine runs the combiner over every group of equal keys in one sorted
// partition and returns its (usually much smaller) output in key order.
func (w *sortWriter) combine(part []sortEntry) ([]mof.Record, error) {
	var out []mof.Record
	emit := func(k, v []byte) {
		out = append(out, mof.Record{Key: bytes.Clone(k), Value: bytes.Clone(v)})
	}
	var values [][]byte
	for i := 0; i < len(part); {
		key := w.key(part[i])
		values = values[:0]
		j := i
		for ; j < len(part) && bytes.Equal(w.key(part[j]), key); j++ {
			values = append(values, w.val(part[j]))
		}
		w.cfg.cs.addCombineInputs(int64(j - i))
		if err := w.cfg.combine(key, values, emit); err != nil {
			return nil, err
		}
		i = j
	}
	w.cfg.cs.addCombineOutputs(int64(len(out)))
	merge.SortRecords(out) // combiner output order is the emitter's choice
	return out, nil
}

// writeRun sorts the buffer and writes it as one partitioned MOF pair,
// running the combiner per partition when set. On error nothing is left
// at paths.
func (w *sortWriter) writeRun(paths MOFPaths) (err error) {
	parts := w.sorted()
	mw, err := mof.NewWriter(paths.Data, paths.Index, len(parts), writerOptions(w.cfg.compress)...)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			mw.Abort()
		}
	}()
	for p, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := mw.BeginSegment(p); err != nil {
			return err
		}
		if err := w.writePartition(mw, part); err != nil {
			return err
		}
	}
	return mw.Close()
}

// writePartition appends one sorted partition to the open segment,
// through the combiner when the job sets one.
func (w *sortWriter) writePartition(mw *mof.Writer, part []sortEntry) error {
	if w.cfg.combine == nil {
		for _, e := range part {
			if err := mw.Append(w.key(e), w.val(e)); err != nil {
				return err
			}
		}
		return nil
	}
	recs, err := w.combine(part)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := mw.Append(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// spill writes the buffer as a numbered run and resets it, keeping the
// allocated capacity for the next fill.
func (w *sortWriter) spill() error {
	if w.buffered == 0 {
		return nil
	}
	paths := MOFPaths{
		Data:  filepath.Join(w.cfg.dir, fmt.Sprintf("%s.spill%d.data", w.cfg.taskID, len(w.runs))),
		Index: filepath.Join(w.cfg.dir, fmt.Sprintf("%s.spill%d.index", w.cfg.taskID, len(w.runs))),
	}
	if err := w.writeRun(paths); err != nil {
		return err
	}
	w.cfg.cs.addMapSpill(int64(len(w.arena)))
	writerSpills.Inc()
	w.runs = append(w.runs, paths)
	w.arena = w.arena[:0]
	w.meta = w.meta[:0]
	clear(w.counts)
	w.buffered = 0
	return nil
}

// Seal produces the task's final MOF (data + index) at the given paths: a
// direct sorted write when nothing spilled, otherwise Hadoop's final
// map-side merge pass over the runs. The writer is spent afterwards.
func (w *sortWriter) Seal(final MOFPaths) error {
	start := time.Now()
	if len(w.runs) == 0 {
		if err := w.writeRun(final); err != nil {
			return err
		}
	} else {
		// Spill the in-memory remainder so everything is in runs.
		if err := w.spill(); err != nil {
			return err
		}
		defer w.Abort() // the runs are spent either way
		if err := mergeRuns(w.runs, len(w.counts), final, w.cfg.compress); err != nil {
			return err
		}
	}
	observeWriterSeal(start, final)
	return nil
}

// Abort discards the spill runs of a failed attempt. Best effort (an
// aborted attempt must not fail its cleanup path); safe to call after a
// failed Seal.
func (w *sortWriter) Abort() {
	for _, r := range w.runs {
		_ = os.Remove(r.Data)
		_ = os.Remove(r.Index)
	}
	w.runs = nil
}

// writerOptions maps the compression flag to MOF writer options.
func writerOptions(compress bool) []mof.WriterOption {
	if compress {
		return []mof.WriterOption{mof.WithCompression()}
	}
	return nil
}

// mergeRuns merges the per-partition segments of every run into the final
// MOF. Run files are left in place; on error nothing is left at final.
func mergeRuns(runs []MOFPaths, partitions int, final MOFPaths, compress bool) (err error) {
	indexes := make([]*mof.Index, len(runs))
	for i, r := range runs {
		ix, err := mof.ReadIndex(r.Index)
		if err != nil {
			return err
		}
		indexes[i] = ix
	}
	w, err := mof.NewWriter(final.Data, final.Index, partitions, writerOptions(compress)...)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()
	for p := 0; p < partitions; p++ {
		if err := mergePartition(w, runs, indexes, p); err != nil {
			return err
		}
	}
	return w.Close()
}

// mergePartition merges one partition's segment of every run into w.
func mergePartition(w *mof.Writer, runs []MOFPaths, indexes []*mof.Index, p int) error {
	var sources []merge.Source
	// merge.Merge closes its sources except when priming one fails, and
	// the early returns below bypass it; a second Close is harmless.
	defer func() { closeSources(sources) }()
	for i, r := range runs {
		entry, err := indexes[i].Entry(p)
		if err != nil {
			return err
		}
		if entry.Length == 0 {
			continue
		}
		sr, err := mof.OpenSegment(r.Data, entry)
		if err != nil {
			return err
		}
		sources = append(sources, sr)
	}
	if len(sources) == 0 {
		return nil
	}
	if err := w.BeginSegment(p); err != nil {
		return err
	}
	return merge.Merge(sources, func(r mof.Record) error {
		return w.Append(r.Key, r.Value)
	})
}

func closeSources(sources []merge.Source) {
	for _, s := range sources {
		_ = s.Close() // read-side sources; close errors carry no data
	}
}
