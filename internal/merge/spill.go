package merge

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/mof"
)

// Stats records the disk traffic a merger generated. JBS's headline merge
// advantage is SpilledBytes == 0.
type Stats struct {
	// Segments is the number of sorted segments added.
	Segments int
	// SegmentBytes is their total encoded size.
	SegmentBytes int64
	// Spills counts spill events to local disk.
	Spills int
	// SpilledBytes is the shuffle data written back to disk.
	SpilledBytes int64
	// MergePasses counts intermediate disk-to-disk merge passes.
	MergePasses int
}

// Merger accumulates shuffle segments and produces one globally sorted
// iterator. Segments arrive key-sorted (the map-side sort writer emits
// them that way); the merge checks each record's key against its
// predecessor as it decodes it, and an out-of-order segment fails the
// merge — a spill, Finish or Next — with an error wrapping
// mof.ErrCorruptRecord.
type Merger interface {
	// AddSegment ingests one raw segment (mof encoding). The merger keeps
	// data and reads it in place: it is borrowed until the iterator Finish
	// returns is closed (or, with no Finish, until the merger is dropped),
	// and whoever lent it — mapred.Fetcher — takes it back only then.
	AddSegment(data []byte) error
	// Finish returns the merged iterator; no AddSegment may follow.
	Finish() (*Iterator, error)
	// Stats reports disk traffic.
	Stats() Stats
}

// SpillMerger is the stock Hadoop reduce-side merger: fetched segments
// accumulate in a bounded memory budget; overflow is sorted-run spilled to
// local disk, and runs are merged in multiple passes when their number
// exceeds the merge fan-in (Section III-C: "When faced with large data
// sets, both MOFCopier and merging threads spill data to local disks").
type SpillMerger struct {
	dir      string
	memLimit int64
	fanIn    int

	inMem    [][]byte // raw segments currently in memory
	memBytes int64
	runs     []string // spill run files on disk
	stats    Stats
	finished bool
}

// NewSpillMerger creates a spill merger writing runs under dir. memLimit is
// the shuffle memory budget in bytes; fanIn bounds how many runs one merge
// pass combines.
func NewSpillMerger(dir string, memLimit int64, fanIn int) (*SpillMerger, error) {
	if memLimit <= 0 {
		return nil, fmt.Errorf("merge: memory limit %d must be positive", memLimit)
	}
	if fanIn < 2 {
		return nil, fmt.Errorf("merge: fan-in %d must be at least 2", fanIn)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("merge: create spill dir: %w", err)
	}
	return &SpillMerger{dir: dir, memLimit: memLimit, fanIn: fanIn}, nil
}

// AddSegment ingests one raw segment, spilling if the memory budget is
// exceeded.
func (m *SpillMerger) AddSegment(data []byte) error {
	if m.finished {
		return fmt.Errorf("merge: AddSegment after Finish")
	}
	m.stats.Segments++
	m.stats.SegmentBytes += int64(len(data))
	m.inMem = append(m.inMem, data)
	m.memBytes += int64(len(data))
	if m.memBytes > m.memLimit {
		return m.spill()
	}
	return nil
}

// spill merges the in-memory segments into one sorted run file on disk.
func (m *SpillMerger) spill() error {
	if len(m.inMem) == 0 {
		return nil
	}
	path := filepath.Join(m.dir, fmt.Sprintf("spill-%d.run", m.stats.Spills))
	n, err := m.writeRun(path, rawSources(m.inMem))
	if err != nil {
		return err
	}
	m.stats.Spills++
	m.stats.SpilledBytes += n
	m.runs = append(m.runs, path)
	m.inMem = nil
	m.memBytes = 0
	return nil
}

func rawSources(segs [][]byte) []Source {
	out := make([]Source, len(segs))
	for i, s := range segs {
		out[i] = NewRawSource(s)
	}
	return out
}

// writeRun merges sources into one run file, returning bytes written.
func (m *SpillMerger) writeRun(path string, sources []Source) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		closeAll(sources)
		return 0, fmt.Errorf("merge: create run: %w", err)
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	var written int64
	var scratch []byte
	err = Merge(sources, func(r mof.Record) error {
		scratch = mof.AppendRecord(scratch[:0], r)
		written += int64(len(scratch))
		_, werr := bw.Write(scratch)
		return werr
	})
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("merge: flush run: %w", err)
	}
	return written, f.Close()
}

// Finish merges disk runs down to the fan-in limit with intermediate
// passes, then returns an iterator over the final merge of all runs plus
// the in-memory remainder.
func (m *SpillMerger) Finish() (*Iterator, error) {
	if m.finished {
		return nil, fmt.Errorf("merge: Finish called twice")
	}
	m.finished = true

	// Multi-pass reduction: while too many runs, merge the oldest fanIn
	// runs into a new one (disk-to-disk traffic the paper's JBS avoids).
	pass := 0
	for len(m.runs)+boolToInt(len(m.inMem) > 0) > m.fanIn {
		take := m.fanIn
		if take > len(m.runs) {
			take = len(m.runs)
		}
		sources, err := m.openRuns(m.runs[:take])
		if err != nil {
			return nil, err
		}
		path := filepath.Join(m.dir, fmt.Sprintf("merge-pass-%d.run", pass))
		n, err := m.writeRun(path, sources)
		closeAll(sources)
		if err != nil {
			return nil, err
		}
		m.stats.MergePasses++
		m.stats.SpilledBytes += n
		m.runs = append([]string{path}, m.runs[take:]...)
		pass++
	}

	sources, err := m.openRuns(m.runs)
	if err != nil {
		return nil, err
	}
	sources = append(sources, rawSources(m.inMem)...)
	return NewIterator(sources)
}

func (m *SpillMerger) openRuns(paths []string) ([]Source, error) {
	var out []Source
	for _, p := range paths {
		src, err := openRunSource(p)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

func closeAll(sources []Source) {
	for _, s := range sources {
		s.Close()
	}
}

// Stats returns the disk traffic counters.
func (m *SpillMerger) Stats() Stats { return m.stats }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runSource streams a spill run file. Records are decoded into two
// alternating buffers instead of per-record allocations: a returned record
// stays valid until the second following Next, which covers the merge
// Iterator's head-plus-lookahead access pattern.
type runSource struct {
	f       *os.File
	r       *bufio.Reader
	scratch [2][]byte
	flip    int
}

func openRunSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("merge: open run: %w", err)
	}
	return &runSource{f: f, r: bufio.NewReaderSize(f, 128<<10)}, nil
}

func (s *runSource) Next() (mof.Record, error) {
	klen, err := binary.ReadUvarint(s.r)
	if err == io.EOF {
		return mof.Record{}, io.EOF
	}
	if err != nil {
		return mof.Record{}, fmt.Errorf("merge: run corrupt: %w", err)
	}
	vlen, err := binary.ReadUvarint(s.r)
	if err != nil {
		return mof.Record{}, fmt.Errorf("merge: run corrupt: %w", err)
	}
	need := int(klen) + int(vlen)
	if need < 0 {
		return mof.Record{}, fmt.Errorf("merge: run corrupt: record of %d bytes", need)
	}
	buf := s.scratch[s.flip]
	if cap(buf) < need {
		buf = make([]byte, need)
		s.scratch[s.flip] = buf
	}
	buf = buf[:need]
	s.flip ^= 1
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return mof.Record{}, fmt.Errorf("merge: run corrupt: %w", err)
	}
	return mof.Record{Key: buf[:klen:klen], Value: buf[klen:]}, nil
}

func (s *runSource) Close() error { return s.f.Close() }

// NetLevitatedMerger is JBS's merger: fetched segments stay in memory
// (fetched headers first, data streamed just in time in the real system)
// and are merged directly to the reduce function — zero disk spills.
type NetLevitatedMerger struct {
	segments [][]byte
	stats    Stats
	finished bool
}

// NewNetLevitatedMerger creates an in-memory merger.
func NewNetLevitatedMerger() *NetLevitatedMerger {
	return &NetLevitatedMerger{}
}

// AddSegment ingests one raw segment.
func (m *NetLevitatedMerger) AddSegment(data []byte) error {
	if m.finished {
		return fmt.Errorf("merge: AddSegment after Finish")
	}
	m.segments = append(m.segments, data)
	m.stats.Segments++
	m.stats.SegmentBytes += int64(len(data))
	return nil
}

// Finish returns the merged iterator over all segments.
func (m *NetLevitatedMerger) Finish() (*Iterator, error) {
	if m.finished {
		return nil, fmt.Errorf("merge: Finish called twice")
	}
	m.finished = true
	return NewIterator(rawSources(m.segments))
}

// Stats reports zero spills by construction.
func (m *NetLevitatedMerger) Stats() Stats { return m.stats }

// Interface checks.
var (
	_ Merger = (*SpillMerger)(nil)
	_ Merger = (*NetLevitatedMerger)(nil)
)
