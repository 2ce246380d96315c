// Package mof implements the Map Output File format of Hadoop's shuffle
// (Section II-A): each MapTask stores its intermediate data as one MOF on
// local disk, divided into one segment per ReduceTask, accompanied by an
// index file giving each segment's location. Fetch requests name a (MOF,
// reduce partition) pair; the server locates the segment via the index and
// ships its raw bytes.
package mof

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/bufpool"
)

// Errors returned by the package.
var (
	ErrBadMagic      = errors.New("mof: bad index magic")
	ErrBadPartition  = errors.New("mof: partition out of range")
	ErrOutOfOrder    = errors.New("mof: segments must be written in partition order")
	ErrChecksum      = errors.New("mof: segment checksum mismatch")
	ErrCorruptRecord = errors.New("mof: corrupt record encoding")
	ErrNoSegment     = errors.New("mof: no segment open")
)

// indexMagic begins every index file.
const indexMagic = "MOFI"

// Record is one key/value pair.
type Record struct {
	Key   []byte
	Value []byte
}

// Size returns the encoded size of the record.
func (r Record) Size() int {
	return uvarintLen(uint64(len(r.Key))) + uvarintLen(uint64(len(r.Value))) + len(r.Key) + len(r.Value)
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// AppendRecord encodes r onto dst and returns the extended slice. The
// encoding is uvarint key length, uvarint value length, key bytes, value
// bytes.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Key...)
	dst = append(dst, r.Value...)
	return dst
}

// DecodeRecord decodes one record from data, returning the record and the
// number of bytes consumed.
func DecodeRecord(data []byte) (Record, int, error) {
	klen, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		return Record{}, 0, ErrCorruptRecord
	}
	vlen, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		return Record{}, 0, ErrCorruptRecord
	}
	start := n1 + n2
	// Bound each length by what is left before adding them: two lengths
	// near 2^62 would overflow a sum checked afterwards.
	rest := uint64(len(data) - start)
	if klen > rest || vlen > rest-klen {
		return Record{}, 0, ErrCorruptRecord
	}
	end := start + int(klen) + int(vlen)
	return Record{
		Key:   data[start : start+int(klen)],
		Value: data[start+int(klen) : end],
	}, end, nil
}

// ParseRecords decodes all records in a raw segment.
func ParseRecords(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		r, n, err := DecodeRecord(data)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		data = data[n:]
	}
	return out, nil
}

// IndexEntry locates one reduce partition's segment within a MOF.
type IndexEntry struct {
	// Offset is the segment's byte offset in the data file.
	Offset int64
	// Length is the segment's byte length as stored (compressed length
	// when the MOF is compressed).
	Length int64
	// RawLength is the segment's uncompressed byte length; it equals
	// Length for uncompressed MOFs.
	RawLength int64
	// Records is the number of key/value pairs in the segment.
	Records int64
	// Checksum is the CRC-32 (IEEE) of the stored segment bytes.
	Checksum uint32
}

// Compressed reports whether the stored segment is flate-compressed.
func (e IndexEntry) Compressed() bool { return e.RawLength != e.Length }

// Index is the parsed contents of a MOF index file.
type Index struct {
	Entries []IndexEntry
}

// Partitions returns the number of reduce partitions.
func (ix *Index) Partitions() int { return len(ix.Entries) }

// Entry returns the entry for a partition.
func (ix *Index) Entry(partition int) (IndexEntry, error) {
	if partition < 0 || partition >= len(ix.Entries) {
		return IndexEntry{}, fmt.Errorf("%w: %d of %d", ErrBadPartition, partition, len(ix.Entries))
	}
	return ix.Entries[partition], nil
}

// TotalBytes returns the summed length of all segments.
func (ix *Index) TotalBytes() int64 {
	var n int64
	for _, e := range ix.Entries {
		n += e.Length
	}
	return n
}

// Writer writes one MOF: segments appended in increasing partition order,
// then Close writes the index file. This mirrors a MapTask's final spill
// merge, which emits partitions sequentially. With compression enabled
// (Hadoop's mapred.compress.map.output) each segment is flate-compressed,
// shrinking both local disk traffic and shuffle volume.
type Writer struct {
	dataPath, indexPath string
	f                   *os.File
	// buf holds the stored bytes not yet written to the data file. Records
	// are encoded straight into it, and the open segment's checksum is
	// folded over buf[summed:] in long runs, at every flush and at the
	// segment's end, not once per record.
	buf     []byte
	summed  int
	flushed int64 // bytes written to the data file so far

	entries    []IndexEntry
	partitions int
	current    int // partition being written, -1 if none
	crc        uint32
	records    int64
	segStart   int64

	compress bool
	segBuf   []byte // buffered records of the open segment when compressing
}

// writerBufferSize is how many stored bytes a Writer gathers per write to
// its data file.
const writerBufferSize = 256 << 10

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithCompression enables per-segment flate compression.
func WithCompression() WriterOption {
	return func(w *Writer) { w.compress = true }
}

// NewWriter creates the MOF data file and prepares the index.
func NewWriter(dataPath, indexPath string, partitions int, opts ...WriterOption) (*Writer, error) {
	w := &Writer{}
	if err := w.Reset(dataPath, indexPath, partitions, opts...); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset points the Writer at a new MOF, as NewWriter would, keeping the
// buffers it has already allocated. The zero Writer may be Reset; one that
// has written a MOF must have been closed or aborted first.
func (w *Writer) Reset(dataPath, indexPath string, partitions int, opts ...WriterOption) error {
	if partitions <= 0 {
		return fmt.Errorf("mof: partitions %d must be positive", partitions)
	}
	f, err := os.Create(dataPath)
	if err != nil {
		return fmt.Errorf("mof: create data file: %w", err)
	}
	buf := w.buf
	if buf == nil {
		buf = make([]byte, 0, writerBufferSize)
	}
	*w = Writer{
		dataPath:   dataPath,
		indexPath:  indexPath,
		f:          f,
		buf:        buf[:0],
		entries:    w.entries[:0],
		partitions: partitions,
		current:    -1,
		segBuf:     w.segBuf[:0],
	}
	for _, opt := range opts {
		opt(w)
	}
	return nil
}

// pos is the data-file offset the next stored byte will land at.
func (w *Writer) pos() int64 { return w.flushed + int64(len(w.buf)) }

// sum folds the stored bytes buffered since the last fold into the open
// segment's checksum.
func (w *Writer) sum() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[w.summed:])
	w.summed = len(w.buf)
}

// flush writes the buffered bytes to the data file.
func (w *Writer) flush() error {
	w.sum()
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("mof: write data: %w", err)
	}
	w.flushed += int64(len(w.buf))
	w.buf, w.summed = w.buf[:0], 0
	return nil
}

// write stores p through the buffer; bytes that would not fit an empty
// buffer go straight to the data file.
func (w *Writer) write(p []byte) error {
	if len(p) > cap(w.buf)-len(w.buf) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if len(p) > cap(w.buf) {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
		if _, err := w.f.Write(p); err != nil {
			return fmt.Errorf("mof: write data: %w", err)
		}
		w.flushed += int64(len(p))
		return nil
	}
	w.buf = append(w.buf, p...)
	return nil
}

// BeginSegment starts the segment for the given partition. Partitions must
// be begun in strictly increasing order; skipped partitions get empty
// segments.
func (w *Writer) BeginSegment(partition int) error {
	if partition < 0 || partition >= w.partitions {
		return fmt.Errorf("%w: %d of %d", ErrBadPartition, partition, w.partitions)
	}
	if partition < len(w.entries) || (w.current >= 0 && partition <= w.current) {
		return fmt.Errorf("%w: partition %d after %d", ErrOutOfOrder, partition, w.current)
	}
	if err := w.finishSegment(); err != nil {
		return err
	}
	// Emit empty entries for skipped partitions.
	for len(w.entries) < partition {
		w.entries = append(w.entries, IndexEntry{Offset: w.pos(), Checksum: crc32.ChecksumIEEE(nil)})
	}
	w.current = partition
	w.segStart = w.pos()
	w.crc = 0
	w.records = 0
	return nil
}

// Append writes one record to the open segment. The key and value are
// copied before it returns.
func (w *Writer) Append(key, value []byte) error {
	if w.current < 0 {
		return ErrNoSegment
	}
	w.records++
	if w.compress {
		w.segBuf = AppendRecord(w.segBuf, Record{Key: key, Value: value})
		return nil
	}
	const maxHeader = 2 * binary.MaxVarintLen64
	if n := maxHeader + len(key) + len(value); n > cap(w.buf)-len(w.buf) {
		if n > cap(w.buf) {
			// Larger than the whole buffer: store it piecewise.
			var hdr [maxHeader]byte
			h := binary.AppendUvarint(hdr[:0], uint64(len(key)))
			h = binary.AppendUvarint(h, uint64(len(value)))
			for _, p := range [][]byte{h, key, value} {
				if err := w.write(p); err != nil {
					return err
				}
			}
			return nil
		}
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.buf = AppendRecord(w.buf, Record{Key: key, Value: value})
	return nil
}

func (w *Writer) finishSegment() error {
	if w.current < 0 {
		return nil
	}
	rawLength := w.pos() - w.segStart
	if w.compress {
		stored, err := CompressSegment(w.segBuf)
		if err != nil {
			return err
		}
		if len(stored) == len(w.segBuf) {
			// The index marks a segment compressed by Length != RawLength
			// alone, so a stream that happens to be as long as its input
			// would be read back as raw records. One pad byte keeps the
			// mark; inflate stops at the final block and never sees it.
			stored = append(stored, 0)
		}
		if err := w.write(stored); err != nil {
			return err
		}
		rawLength = int64(len(w.segBuf))
		w.segBuf = w.segBuf[:0]
	}
	w.sum()
	w.entries = append(w.entries, IndexEntry{
		Offset:    w.segStart,
		Length:    w.pos() - w.segStart,
		RawLength: rawLength,
		Records:   w.records,
		Checksum:  w.crc,
	})
	w.current = -1
	return nil
}

// Close finishes the last segment, pads the index to the partition count,
// flushes the data file, and writes the index file.
func (w *Writer) Close() error {
	if err := w.finishSegment(); err != nil {
		_ = w.f.Close() // already failing; report the segment error
		return err
	}
	for len(w.entries) < w.partitions {
		w.entries = append(w.entries, IndexEntry{Offset: w.pos(), Checksum: crc32.ChecksumIEEE(nil)})
	}
	if err := w.flush(); err != nil {
		_ = w.f.Close() // already failing; report the flush error
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("mof: close data: %w", err)
	}
	return writeIndex(w.indexPath, &Index{Entries: w.entries})
}

// Abort abandons the MOF: it closes the data file and removes whatever
// was written of the data and index files. It is the exit for a producer
// that cannot finish its MOF, and is safe after a failed Close.
func (w *Writer) Abort() {
	_ = w.f.Close() // a failed Close may have closed it already
	_ = os.Remove(w.dataPath)
	_ = os.Remove(w.indexPath) // absent unless Close reached the index
}

func writeIndex(path string, ix *Index) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mof: create index: %w", err)
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(indexMagic)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(len(ix.Entries)))
	bw.Write(buf[:4])
	for _, e := range ix.Entries {
		binary.BigEndian.PutUint64(buf[:], uint64(e.Offset))
		bw.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(e.Length))
		bw.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(e.RawLength))
		bw.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(e.Records))
		bw.Write(buf[:])
		binary.BigEndian.PutUint32(buf[:4], e.Checksum)
		bw.Write(buf[:4])
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // already failing; report the flush error
		return fmt.Errorf("mof: write index: %w", err)
	}
	return f.Close()
}

// ReadIndex parses a MOF index file.
func ReadIndex(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mof: read index: %w", err)
	}
	if len(data) < len(indexMagic)+4 || string(data[:4]) != indexMagic {
		return nil, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(data[4:8])
	const entrySize = 8 + 8 + 8 + 8 + 4
	if len(data) != 8+int(n)*entrySize {
		return nil, fmt.Errorf("mof: index truncated: %d bytes for %d entries", len(data), n)
	}
	ix := &Index{Entries: make([]IndexEntry, n)}
	off := 8
	for i := range ix.Entries {
		ix.Entries[i] = IndexEntry{
			Offset:    int64(binary.BigEndian.Uint64(data[off:])),
			Length:    int64(binary.BigEndian.Uint64(data[off+8:])),
			RawLength: int64(binary.BigEndian.Uint64(data[off+16:])),
			Records:   int64(binary.BigEndian.Uint64(data[off+24:])),
			Checksum:  binary.BigEndian.Uint32(data[off+32:]),
		}
		off += entrySize
	}
	return ix, nil
}

// CompressSegment flate-compresses an encoded segment.
func CompressSegment(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("mof: compressor: %w", err)
	}
	if _, err := fw.Write(raw); err != nil {
		_ = fw.Close() // already failing; report the write error
		return nil, fmt.Errorf("mof: compress: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("mof: compress close: %w", err)
	}
	return buf.Bytes(), nil
}

// DecompressSegment inflates a compressed segment back to its encoded
// record stream.
func DecompressSegment(stored []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(stored))
	defer fr.Close()
	raw, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("mof: decompress: %w", err)
	}
	return raw, nil
}

// DecodeSegmentBytes returns the encoded (uncompressed) record stream for
// stored segment bytes, inflating when the entry marks compression.
func DecodeSegmentBytes(stored []byte, e IndexEntry) ([]byte, error) {
	if !e.Compressed() {
		return stored, nil
	}
	raw, err := DecompressSegment(stored)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) != e.RawLength {
		return nil, fmt.Errorf("%w: inflated to %d bytes, want %d", ErrChecksum, len(raw), e.RawLength)
	}
	return raw, nil
}

// ReadSegmentBytes reads one raw segment from the data file and verifies
// its checksum. This is the unit the shuffle moves over the network.
func ReadSegmentBytes(dataPath string, e IndexEntry) ([]byte, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, fmt.Errorf("mof: open data: %w", err)
	}
	defer f.Close()
	buf := make([]byte, e.Length)
	if _, err := f.ReadAt(buf, e.Offset); err != nil && !(err == io.EOF && e.Length == 0) {
		return nil, fmt.Errorf("mof: read segment: %w", err)
	}
	if crc32.ChecksumIEEE(buf) != e.Checksum {
		return nil, ErrChecksum
	}
	return buf, nil
}

// ReadSegmentLease reads one raw segment into a pooled buffer through a
// cached file handle and verifies its checksum. This is the allocation-free
// variant of ReadSegmentBytes: the descriptor comes from fc instead of a
// fresh os.Open, and the bytes land in a lease the caller must Release
// exactly once (ownership typically moves to the DataCache).
func ReadSegmentLease(fc *FileCache, pool *bufpool.Pool, dataPath string, e IndexEntry) (*bufpool.Lease, error) {
	start := time.Now()
	h, err := fc.Acquire(dataPath)
	if err != nil {
		return nil, err
	}
	l := pool.Get(int(e.Length))
	_, err = h.File().ReadAt(l.Bytes(), e.Offset)
	relErr := h.Release()
	if err != nil && !(err == io.EOF && e.Length == 0) {
		l.Release()
		return nil, fmt.Errorf("mof: read segment: %w", err)
	}
	if relErr != nil {
		l.Release()
		return nil, fmt.Errorf("mof: close evicted data file: %w", relErr)
	}
	if crc32.ChecksumIEEE(l.Bytes()) != e.Checksum {
		l.Release()
		return nil, ErrChecksum
	}
	segReadNS.Observe(time.Since(start).Nanoseconds())
	segReadBytes.Add(e.Length)
	return l, nil
}

// VerifySegment checks raw segment bytes against an index entry.
func VerifySegment(data []byte, e IndexEntry) error {
	if int64(len(data)) != e.Length {
		return fmt.Errorf("%w: length %d != %d", ErrChecksum, len(data), e.Length)
	}
	if crc32.ChecksumIEEE(data) != e.Checksum {
		return ErrChecksum
	}
	return nil
}

// SegmentReader streams the records of one segment from disk, inflating
// compressed segments transparently.
type SegmentReader struct {
	f       *os.File
	r       *bufio.Reader
	inflate io.ReadCloser // non-nil for compressed segments
	rem     int64
	scratch [2][]byte // alternating record storage; see Next
	flip    int
}

// OpenSegment opens a streaming reader over one segment.
func OpenSegment(dataPath string, e IndexEntry) (*SegmentReader, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, fmt.Errorf("mof: open data: %w", err)
	}
	if _, err := f.Seek(e.Offset, io.SeekStart); err != nil {
		_ = f.Close() // already failing; report the seek error
		return nil, fmt.Errorf("mof: seek: %w", err)
	}
	sr := &SegmentReader{f: f}
	limited := io.LimitReader(f, e.Length)
	if e.Compressed() {
		sr.inflate = flate.NewReader(limited)
		sr.r = bufio.NewReaderSize(sr.inflate, 64<<10)
		sr.rem = e.RawLength
	} else {
		sr.r = bufio.NewReaderSize(limited, 64<<10)
		sr.rem = e.Length
	}
	return sr, nil
}

// Next returns the next record, or io.EOF after the last. The returned
// record's key and value alias an internal buffer that is overwritten by
// the second following Next call; merge sources hold at most the current
// and one lookahead record, so they fit this contract — any consumer
// keeping records longer must copy.
func (sr *SegmentReader) Next() (Record, error) {
	if sr.rem <= 0 {
		return Record{}, io.EOF
	}
	klen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	vlen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	if klen > uint64(sr.rem) || vlen > uint64(sr.rem)-klen {
		return Record{}, fmt.Errorf("%w: record of %d+%d bytes exceeds segment", ErrCorruptRecord, klen, vlen)
	}
	need := int(klen + vlen)
	buf := sr.scratch[sr.flip]
	if cap(buf) < need {
		buf = make([]byte, need)
		sr.scratch[sr.flip] = buf
	}
	buf = buf[:need]
	sr.flip ^= 1
	if _, err := io.ReadFull(sr.r, buf); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	rec := Record{Key: buf[:klen:klen], Value: buf[klen:]}
	sr.rem -= int64(rec.Size())
	return rec, nil
}

// Close releases the underlying file (and decompressor, if any). The
// file-close error wins; a decompressor error is reported only when the
// file closes cleanly.
func (sr *SegmentReader) Close() error {
	var inflateErr error
	if sr.inflate != nil {
		inflateErr = sr.inflate.Close()
	}
	if err := sr.f.Close(); err != nil {
		return err
	}
	return inflateErr
}
