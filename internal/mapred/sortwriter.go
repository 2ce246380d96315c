package mapred

import (
	"bufio"
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
	// tc is the attempt's counters, which receive the spill and combine
	// counts; nil outside a cluster job (benchmark and test harnesses).
	tc *Counters
	// bufs is the map slot's buffers, which the writer works in and leaves
	// behind for the slot's next task; nil for a writer with its own.
	bufs *mapBuffers
}

// mapBuffers is what a map slot keeps from one task to the next, so that a
// task allocates (and the runtime zeroes) its large buffers only when the
// slot's previous tasks needed less. A slot holds the buffers of one task,
// whatever the number of tasks it runs.
type mapBuffers struct {
	// in buffers the task's input split for the job's InputFormat.
	in *bufio.Reader
	// arena holds every buffered record in the MOF record encoding
	// (mof.AppendRecord), back to back in emit order.
	arena []byte
	// meta holds, per buffered record in emit order, its partition as a
	// uvarint: about a byte a record. The sort entries are built from it
	// and the arena at sort time, in one slice of the exact size, instead
	// of growing beside the arena.
	meta []byte
	// entries backs the sort entries of one run.
	entries []sortEntry
	// mw writes every run and the final MOF of the slot's tasks.
	mw mof.Writer
	// values, combined and combinedEntries are the combiner's scratch: one
	// group's values, the output records encoded back to back in emit
	// order like the arena's, and the entries locating them.
	values          [][]byte
	combined        []byte
	combinedEntries []sortEntry
}

// inputBufferSize is the size of the reader a map task's InputFormat
// reads its split through. The readers in this package ask bufio for this
// size, so they adopt the slot's reader instead of stacking their own.
const inputBufferSize = 256 << 10

func newMapBuffers() *mapBuffers {
	return &mapBuffers{in: bufio.NewReaderSize(nil, inputBufferSize)}
}

// sortEntry locates one record inside the buffer of encoded records it was
// built over (the arena, or the combiner's output) and carries the head of
// its key, so that most comparisons never touch the buffer.
type sortEntry struct {
	// prefixHi and prefixLo are the halves of the entry's prefix: the
	// key's first seven bytes, big-endian and zero-padded, above one byte
	// holding the key's length, or 8 for any longer key. The prefix
	// orders two keys as bytes.Compare does unless both are equal in it:
	// then they are the same key if it says they are shorter than eight
	// bytes, and differ from their eighth byte on, if at all. (Two words
	// and not one uint64, whose alignment would pad the entry to 16
	// bytes.)
	prefixHi, prefixLo uint32
	// off is where the record's encoding starts in the buffer.
	off uint32
}

// sortEntryBytes is the size of a sortEntry, charged to the sort budget
// for every buffered record.
const sortEntryBytes = 12

func newSortEntry(key []byte, off int) sortEntry {
	var p [8]byte
	copy(p[:7], key)
	p[7] = byte(min(len(key), 8))
	return sortEntry{
		prefixHi: binary.BigEndian.Uint32(p[:4]),
		prefixLo: binary.BigEndian.Uint32(p[4:]),
		off:      uint32(off),
	}
}

func (e sortEntry) prefix() uint64 {
	return uint64(e.prefixHi)<<32 | uint64(e.prefixLo)
}

// record decodes the entry's record from the buffer it was built over.
func (e sortEntry) record(buf []byte) mof.Record {
	rec, _, _ := mof.DecodeRecord(buf[e.off:]) // encoded by this writer
	return rec
}

// compareKeys orders two entries over buf as bytes.Compare orders their
// keys. Only keys of eight bytes and more that agree on their first seven
// are read from the buffer. A sort of such keys spends its time here, so
// the common encoding, all four lengths under 128 and one byte each, is
// read without the varint decoder.
func compareKeys(buf []byte, a, b sortEntry) int {
	pa, pb := a.prefix(), b.prefix()
	switch {
	case pa < pb:
		return -1
	case pa > pb:
		return 1
	case byte(pa) < 8:
		return 0
	}
	if ra, rb := buf[a.off:], buf[b.off:]; ra[0]|ra[1]|rb[0]|rb[1] < 0x80 {
		return bytes.Compare(ra[2+7:2+int(ra[0])], rb[2+7:2+int(rb[0])])
	}
	return bytes.Compare(a.record(buf).Key[7:], b.record(buf).Key[7:])
}

// sortEntries puts entries over buf in key order with equal keys in emit
// order. Emit order is buffer order, so comparing offsets after keys
// makes the order total and lets the unstable sort, which is about twice
// as fast as the stable one, give the stable result. The comparison
// settles what the prefixes settle itself and calls compareKeys, which is
// too large to inline, only for long keys that tie: most comparisons of a
// sort are decided by the prefixes.
func sortEntries(buf []byte, entries []sortEntry) {
	slices.SortFunc(entries, func(a, b sortEntry) int {
		pa, pb := a.prefix(), b.prefix()
		switch {
		case pa < pb:
			return -1
		case pa > pb:
			return 1
		case byte(pa) == 8:
			if c := compareKeys(buf, a, b); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.off, b.off)
	})
}

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
	// b holds the arena and everything else that is sized by the data.
	b *mapBuffers
	// counts is the number of buffered records per partition.
	counts   []int
	buffered int // records in the arena
	runs     []MOFPaths
}

func newSortWriter(cfg writerConfig) *sortWriter {
	if cfg.tc == nil {
		cfg.tc = &Counters{}
	}
	b := cfg.bufs
	if b == nil {
		b = &mapBuffers{}
	}
	// Room for the input's bytes again plus a two-byte header and a
	// partition byte per record, for records of 16 bytes and up; denser
	// streams grow the buffers.
	arena, meta := cfg.inputBytes+cfg.inputBytes/8, cfg.inputBytes/16
	if cfg.sortMemory > 0 {
		arena, meta = min(arena, cfg.sortMemory), min(meta, cfg.sortMemory/16)
	}
	if int64(cap(b.arena)) < arena {
		b.arena = make([]byte, 0, arena)
	}
	if int64(cap(b.meta)) < meta {
		b.meta = make([]byte, 0, meta)
	}
	b.arena, b.meta = b.arena[:0], b.meta[:0]
	return &sortWriter{cfg: cfg, b: b, counts: make([]int, cfg.partitions)}
}

// Add copies one intermediate record for the given reduce partition into
// the arena, spilling a sorted run when the buffer exceeds its budget.
func (w *sortWriter) Add(partition int, key, value []byte) error {
	if partition < 0 || partition >= len(w.counts) {
		return fmt.Errorf("%w: %d of %d", mof.ErrBadPartition, partition, len(w.counts))
	}
	b := w.b
	if uint64(len(b.arena)) > math.MaxUint32 {
		// The record would start past what a sortEntry can address.
		if err := w.spill(); err != nil {
			return err
		}
	}
	b.arena = mof.AppendRecord(b.arena, mof.Record{Key: key, Value: value})
	b.meta = binary.AppendUvarint(b.meta, uint64(partition))
	w.counts[partition]++
	w.buffered++
	if w.cfg.sortMemory > 0 && int64(len(b.arena)+len(b.meta)+w.buffered*sortEntryBytes) > w.cfg.sortMemory {
		return w.spill()
	}
	return nil
}

// sorted returns the buffered records as entries over the arena, grouped
// by partition, each group in key order with equal keys in emit order,
// which is what the reduce side sees as value order.
func (w *sortWriter) sorted() [][]sortEntry {
	b := w.b
	if cap(b.entries) < w.buffered {
		b.entries = make([]sortEntry, w.buffered)
	}
	all := b.entries[:w.buffered]
	parts := make([][]sortEntry, len(w.counts))
	next := 0
	for p, n := range w.counts {
		parts[p] = all[next : next : next+n]
		next += n
	}
	off, meta := 0, b.meta
	for range all {
		p, m := binary.Uvarint(meta)
		meta = meta[m:]
		rec, n, _ := mof.DecodeRecord(b.arena[off:]) // encoded by Add
		parts[p] = append(parts[p], newSortEntry(rec.Key, off))
		off += n
	}
	for _, part := range parts {
		sortEntries(b.arena, part)
	}
	return parts
}

// combine runs the combiner over every group of equal keys in one sorted
// partition and returns its (usually much smaller) output in key order,
// as entries over b.combined. The output is copied once, into that
// buffer, and sorted only if the combiner emitted it out of key order.
func (w *sortWriter) combine(part []sortEntry) ([]sortEntry, error) {
	b := w.b
	b.combined, b.combinedEntries = b.combined[:0], b.combinedEntries[:0]
	inOrder := true
	var emitErr error
	emit := func(k, v []byte) {
		if uint64(len(b.combined)) > math.MaxUint32 {
			emitErr = fmt.Errorf("mapred: combiner output for one partition exceeds the %d bytes a sort entry can address", uint32(math.MaxUint32))
			return
		}
		e := newSortEntry(k, len(b.combined))
		b.combined = mof.AppendRecord(b.combined, mof.Record{Key: k, Value: v})
		if n := len(b.combinedEntries); n > 0 && compareKeys(b.combined, b.combinedEntries[n-1], e) > 0 {
			inOrder = false
		}
		b.combinedEntries = append(b.combinedEntries, e)
	}
	for i := 0; i < len(part); {
		j := i + 1
		for j < len(part) && compareKeys(b.arena, part[i], part[j]) == 0 {
			j++
		}
		// One allocation of the group's size when the slot has seen none
		// as large; append would allocate five times that on the way.
		b.values = slices.Grow(b.values[:0], j-i)
		for _, e := range part[i:j] {
			b.values = append(b.values, e.record(b.arena).Value)
		}
		if err := w.cfg.combine(part[i].record(b.arena).Key, b.values, emit); err != nil {
			return nil, err
		}
		if emitErr != nil {
			return nil, emitErr
		}
		i = j
	}
	w.cfg.tc.CombineInputs += int64(len(part))
	w.cfg.tc.CombineOutputs += int64(len(b.combinedEntries))
	if !inOrder { // combiner output order is the emitter's choice
		sortEntries(b.combined, b.combinedEntries)
	}
	return b.combinedEntries, nil
}

// writeRun sorts the buffer and writes it as one partitioned MOF pair,
// running the combiner per partition when set. On error nothing is left
// at paths.
func (w *sortWriter) writeRun(paths MOFPaths) (err error) {
	parts := w.sorted()
	mw := &w.b.mw
	if err := mw.Reset(paths.Data, paths.Index, len(parts), writerOptions(w.cfg.compress)...); err != nil {
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
	buf := w.b.arena
	if w.cfg.combine != nil {
		var err error
		if part, err = w.combine(part); err != nil {
			return err
		}
		buf = w.b.combined
	}
	for _, e := range part {
		rec := e.record(buf)
		if err := mw.Append(rec.Key, rec.Value); err != nil {
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
	w.cfg.tc.MapSpills++
	w.cfg.tc.MapSpilledBytes += int64(len(w.b.arena))
	writerSpills.Inc()
	w.runs = append(w.runs, paths)
	w.b.arena = w.b.arena[:0]
	w.b.meta = w.b.meta[:0]
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
		if err := mergeRuns(&w.b.mw, w.runs, len(w.counts), final, w.cfg.compress); err != nil {
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
// MOF, written through w. Run files are left in place; on error nothing is
// left at final.
//
//jbsvet:ignore closeflow w is the task's reusable writer, idle until Reset here; the caller's deferred Abort covers every exit
func mergeRuns(w *mof.Writer, runs []MOFPaths, partitions int, final MOFPaths, compress bool) (err error) {
	indexes := make([]*mof.Index, len(runs))
	for i, r := range runs {
		ix, err := mof.ReadIndex(r.Index)
		if err != nil {
			return err
		}
		indexes[i] = ix
	}
	if err := w.Reset(final.Data, final.Index, partitions, writerOptions(compress)...); err != nil {
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
	// Until merge.Merge takes the sources over (it closes them whatever it
	// returns) an early exit has to.
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
	merging := sources
	sources = nil
	return merge.Merge(merging, func(r mof.Record) error {
		return w.Append(r.Key, r.Value)
	})
}

func closeSources(sources []merge.Source) {
	for _, s := range sources {
		_ = s.Close() // read-side sources; close errors carry no data
	}
}
