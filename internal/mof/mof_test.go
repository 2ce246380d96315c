package mof

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// writeTestMOF writes a MOF with the given records per partition and
// returns the data and index paths.
func writeTestMOF(t *testing.T, parts [][]Record) (string, string) {
	t.Helper()
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "mof.data")
	indexPath := filepath.Join(dir, "mof.index")
	w, err := NewWriter(dataPath, indexPath, len(parts))
	if err != nil {
		t.Fatal(err)
	}
	for p, recs := range parts {
		if len(recs) == 0 {
			continue
		}
		if err := w.BeginSegment(p); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dataPath, indexPath
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestRecordEncodeDecode(t *testing.T) {
	r := Record{Key: []byte("key"), Value: []byte("value-bytes")}
	enc := AppendRecord(nil, r)
	if len(enc) != r.Size() {
		t.Fatalf("encoded %d bytes, Size() says %d", len(enc), r.Size())
	}
	dec, n, err := DecodeRecord(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(dec.Key, r.Key) || !bytes.Equal(dec.Value, r.Value) {
		t.Fatalf("decoded %q/%q", dec.Key, dec.Value)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                // empty
		{0xff},            // truncated varint
		{0x05, 0x01, 'a'}, // key shorter than declared
		{0x01, 0x05, 'a'}, // value shorter than declared
		// two lengths of 2^62 whose sum overflows int
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 'a'},
	}
	for i, data := range cases {
		if _, _, err := DecodeRecord(data); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("case %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	parts := [][]Record{
		{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}},
		{{Key: []byte("c"), Value: []byte("3")}},
		{}, // empty partition
		{{Key: []byte("d"), Value: []byte("4")}, {Key: []byte("e"), Value: []byte("5")}, {Key: []byte("f"), Value: []byte("6")}},
	}
	dataPath, indexPath := writeTestMOF(t, parts)

	ix, err := ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", ix.Partitions())
	}
	for p, want := range parts {
		e, err := ix.Entry(p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Records != int64(len(want)) {
			t.Fatalf("partition %d records = %d, want %d", p, e.Records, len(want))
		}
		raw, err := ReadSegmentBytes(dataPath, e)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		got, err := ParseRecords(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("partition %d: got %v want %v", p, got, want)
		}
	}
}

func TestWriterSkippedTrailingPartitions(t *testing.T) {
	parts := [][]Record{
		{{Key: []byte("x"), Value: []byte("y")}},
		{},
		{},
	}
	_, indexPath := writeTestMOF(t, parts)
	ix, err := ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Partitions() != 3 {
		t.Fatalf("partitions = %d, want 3", ix.Partitions())
	}
	for p := 1; p < 3; p++ {
		e, _ := ix.Entry(p)
		if e.Length != 0 || e.Records != 0 {
			t.Fatalf("partition %d not empty: %+v", p, e)
		}
	}
}

func TestWriterOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "d"), filepath.Join(dir, "i"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(1); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(0); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if err := w.BeginSegment(1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("repeat err = %v, want ErrOutOfOrder", err)
	}
	w.Close()
}

func TestWriterBadPartition(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "d"), filepath.Join(dir, "i"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(2); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
	if err := w.BeginSegment(-1); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
	w.Close()
}

func TestAppendWithoutSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "d"), filepath.Join(dir, "i"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("k"), []byte("v")); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("err = %v, want ErrNoSegment", err)
	}
	w.Close()
}

func TestNewWriterRejectsZeroPartitions(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(filepath.Join(dir, "d"), filepath.Join(dir, "i"), 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	parts := [][]Record{{{Key: []byte("key"), Value: []byte("val")}}}
	dataPath, indexPath := writeTestMOF(t, parts)
	// Flip a byte in the data file.
	data, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	if _, err := ReadSegmentBytes(dataPath, e); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestVerifySegment(t *testing.T) {
	parts := [][]Record{{{Key: []byte("key"), Value: []byte("val")}}}
	dataPath, indexPath := writeTestMOF(t, parts)
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	raw, err := ReadSegmentBytes(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(raw, e); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(raw[:len(raw)-1], e); !errors.Is(err, ErrChecksum) {
		t.Fatalf("short segment: %v, want ErrChecksum", err)
	}
	bad := append([]byte{}, raw...)
	bad[0] ^= 1
	if err := VerifySegment(bad, e); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped segment: %v, want ErrChecksum", err)
	}
}

func TestReadIndexBadMagic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.index")
	os.WriteFile(p, []byte("NOPE00000000"), 0o644)
	if _, err := ReadIndex(p); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadIndexTruncated(t *testing.T) {
	parts := [][]Record{{{Key: []byte("k"), Value: []byte("v")}}}
	_, indexPath := writeTestMOF(t, parts)
	data, _ := os.ReadFile(indexPath)
	os.WriteFile(indexPath, data[:len(data)-2], 0o644)
	if _, err := ReadIndex(indexPath); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestIndexEntryOutOfRange(t *testing.T) {
	ix := &Index{Entries: make([]IndexEntry, 2)}
	if _, err := ix.Entry(2); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
	if _, err := ix.Entry(-1); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
}

func TestIndexTotalBytes(t *testing.T) {
	parts := [][]Record{
		{{Key: []byte("aa"), Value: []byte("bb")}},
		{{Key: []byte("cc"), Value: []byte("dd")}, {Key: []byte("ee"), Value: []byte("ff")}},
	}
	dataPath, indexPath := writeTestMOF(t, parts)
	ix, _ := ReadIndex(indexPath)
	fi, _ := os.Stat(dataPath)
	if ix.TotalBytes() != fi.Size() {
		t.Fatalf("TotalBytes = %d, file = %d", ix.TotalBytes(), fi.Size())
	}
}

func TestSegmentReaderStreams(t *testing.T) {
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{
			Key:   []byte(fmt.Sprintf("key-%03d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, i%17),
		})
	}
	dataPath, indexPath := writeTestMOF(t, [][]Record{recs})
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	sr, err := OpenSegment(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var got []Record
	for {
		r, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Records alias the reader's alternating buffers; copy to keep them.
		got = append(got, Record{
			Key:   append([]byte(nil), r.Key...),
			Value: append([]byte(nil), r.Value...),
		})
	}
	if !recordsEqual(got, recs) {
		t.Fatalf("streamed %d records, want %d", len(got), len(recs))
	}
}

func TestSegmentReaderEmptySegment(t *testing.T) {
	dataPath, indexPath := writeTestMOF(t, [][]Record{{}, {{Key: []byte("k"), Value: []byte("v")}}})
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	sr, err := OpenSegment(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestSegmentReaderRejectsOverflowingLengths: two record lengths whose
// int sum wraps to a small positive number are corrupt, not a slice
// bound to panic on.
func TestSegmentReaderRejectsOverflowingLengths(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<63+5)
	data = binary.AppendUvarint(data, 1<<63)
	data = append(data, "12345"...)
	path := filepath.Join(t.TempDir(), "seg.data")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n := int64(len(data))
	sr, err := OpenSegment(path, IndexEntry{Length: n, RawLength: n})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Next(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestIndexCacheHitsAndEviction(t *testing.T) {
	loads := map[string]int{}
	c := NewIndexCache(2)
	c.SetLoader(func(path string) (*Index, error) {
		loads[path]++
		return &Index{Entries: []IndexEntry{{}}}, nil
	})
	for _, p := range []string{"a", "b", "a", "a", "c", "b"} {
		if _, err := c.Get(p); err != nil {
			t.Fatal(err)
		}
	}
	// a,b loaded; two a hits; c loaded evicting b (LRU after 'a' touches);
	// b reloaded.
	if loads["a"] != 1 || loads["b"] != 2 || loads["c"] != 1 {
		t.Fatalf("loads = %v", loads)
	}
	hits, misses, ev := c.Stats()
	if hits != 2 || misses != 4 || ev != 2 {
		t.Fatalf("stats = %d/%d/%d, want 2/4/2", hits, misses, ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestIndexCacheLoadError(t *testing.T) {
	c := NewIndexCache(2)
	wantErr := errors.New("boom")
	c.SetLoader(func(string) (*Index, error) { return nil, wantErr })
	if _, err := c.Get("x"); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed load was cached")
	}
}

func TestIndexCacheRealFiles(t *testing.T) {
	parts := [][]Record{{{Key: []byte("k"), Value: []byte("v")}}}
	_, indexPath := writeTestMOF(t, parts)
	c := NewIndexCache(4)
	ix1, err := c.Get(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := c.Get(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Fatal("cache returned different instances")
	}
}

// Property: any slice of records survives encode/parse round trip.
func TestParseRecordsProperty(t *testing.T) {
	f := func(keys, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		var recs []Record
		var enc []byte
		for i := 0; i < n; i++ {
			r := Record{Key: keys[i], Value: vals[i]}
			recs = append(recs, r)
			enc = AppendRecord(enc, r)
		}
		got, err := ParseRecords(enc)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a MOF written with sorted partitions reads back identically
// through the full file round trip.
func TestMOFFileRoundTripProperty(t *testing.T) {
	f := func(seed int64, nParts uint8) bool {
		parts := int(nParts%5) + 1
		var all [][]Record
		for p := 0; p < parts; p++ {
			var recs []Record
			for i := 0; i < int(seed%7+1); i++ {
				recs = append(recs, Record{
					Key:   []byte(fmt.Sprintf("p%d-k%d-%d", p, i, seed)),
					Value: []byte(fmt.Sprintf("v%d", i)),
				})
			}
			sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].Key, recs[j].Key) < 0 })
			all = append(all, recs)
		}
		dataPath, indexPath := writeTestMOF(t, all)
		ix, err := ReadIndex(indexPath)
		if err != nil {
			return false
		}
		for p, want := range all {
			e, err := ix.Entry(p)
			if err != nil {
				return false
			}
			raw, err := ReadSegmentBytes(dataPath, e)
			if err != nil {
				return false
			}
			got, err := ParseRecords(raw)
			if err != nil || !recordsEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "c.data")
	indexPath := filepath.Join(dir, "c.index")
	w, err := NewWriter(dataPath, indexPath, 2, WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	// Highly repetitive records compress well.
	var want [][]Record
	for p := 0; p < 2; p++ {
		var recs []Record
		for i := 0; i < 200; i++ {
			recs = append(recs, Record{
				Key:   []byte(fmt.Sprintf("key-%d-%03d", p, i)),
				Value: bytes.Repeat([]byte("abc"), 20),
			})
		}
		want = append(want, recs)
		if err := w.BeginSegment(p); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ix, err := ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	for p, recs := range want {
		e, _ := ix.Entry(p)
		if !e.Compressed() {
			t.Fatalf("partition %d not marked compressed: %+v", p, e)
		}
		if e.Length >= e.RawLength {
			t.Fatalf("partition %d did not shrink: stored=%d raw=%d", p, e.Length, e.RawLength)
		}
		stored, err := ReadSegmentBytes(dataPath, e)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := DecodeSegmentBytes(stored, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRecords(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(got, recs) {
			t.Fatalf("partition %d mismatch after decompression", p)
		}
	}
}

func TestCompressedSegmentReaderStreams(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "c.data")
	indexPath := filepath.Join(dir, "c.index")
	w, _ := NewWriter(dataPath, indexPath, 1, WithCompression())
	w.BeginSegment(0)
	for i := 0; i < 50; i++ {
		w.Append([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("v"), 100))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	sr, err := OpenSegment(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	n := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Value) != 100 {
			t.Fatalf("record %d value len %d", n, len(rec.Value))
		}
		n++
	}
	if n != 50 {
		t.Fatalf("streamed %d records, want 50", n)
	}
}

func TestDecompressSegmentCorrupt(t *testing.T) {
	if _, err := DecompressSegment([]byte{0xde, 0xad, 0xbe, 0xef}); err == nil {
		t.Fatal("corrupt flate stream accepted")
	}
}

func TestDecodeSegmentBytesRawLengthMismatch(t *testing.T) {
	stored, err := CompressSegment([]byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	e := IndexEntry{Length: int64(len(stored)), RawLength: 999}
	if _, err := DecodeSegmentBytes(stored, e); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestUncompressedEntryNotCompressed(t *testing.T) {
	parts := [][]Record{{{Key: []byte("k"), Value: []byte("v")}}}
	dataPath, indexPath := writeTestMOF(t, parts)
	ix, _ := ReadIndex(indexPath)
	e, _ := ix.Entry(0)
	if e.Compressed() {
		t.Fatal("uncompressed segment marked compressed")
	}
	stored, _ := ReadSegmentBytes(dataPath, e)
	raw, err := DecodeSegmentBytes(stored, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, stored) {
		t.Fatal("passthrough decode changed bytes")
	}
}

// Property: compress/decompress round-trips arbitrary segment bytes.
func TestCompressionRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		stored, err := CompressSegment(data)
		if err != nil {
			return false
		}
		raw, err := DecompressSegment(stored)
		if err != nil {
			return false
		}
		return bytes.Equal(raw, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedSegmentAsLongAsRaw pins the one case the index cannot
// mark by lengths alone: a flate stream exactly as long as its input must
// still read back as compressed.
func TestCompressedSegmentAsLongAsRaw(t *testing.T) {
	recs := []Record{{
		Key:   []byte("key-00000063"),
		Value: []byte("67;\b78;b81;\xc4128;136;177;390;398;452;470;478;507;"),
	}}
	raw := AppendRecord(nil, recs[0])
	if stored, err := CompressSegment(raw); err != nil || len(stored) != len(raw) {
		t.Fatalf("fixture error: %d bytes compress to %d (err %v), want equal lengths", len(raw), len(stored), err)
	}
	dir := t.TempDir()
	dataPath, indexPath := filepath.Join(dir, "c.data"), filepath.Join(dir, "c.index")
	w, err := NewWriter(dataPath, indexPath, 1, WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := ix.Entry(0)
	if !e.Compressed() {
		t.Fatalf("compressed segment not marked compressed: %+v", e)
	}
	sr, err := OpenSegment(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for i, want := range recs {
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual([]Record{got}, []Record{want}) {
			t.Fatalf("record %d differs after the round trip", i)
		}
	}
	stored, err := ReadSegmentBytes(dataPath, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegmentBytes(stored, e); err != nil {
		t.Fatal(err)
	}
}

func TestWriterAbortRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "a.data"), filepath.Join(dir, "a.index"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("abort left %d files", len(ents))
	}
	if err := w.Append([]byte("k"), bytes.Repeat([]byte("v"), 1<<20)); err == nil {
		t.Fatal("append after abort reached the closed file without error")
	}
}

// TestWriterBufferBoundaries writes records that fill the writer's buffer
// exactly, overflow it, and exceed it outright (stored piecewise), across
// three segments: every segment must read back record for record and match
// the checksum the writer folded over its buffer in runs, and the data file
// must be the plain concatenation of the encoded records.
func TestWriterBufferBoundaries(t *testing.T) {
	big := func(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }
	parts := [][]Record{
		{
			{Key: []byte("a"), Value: big(writerBufferSize-100, 'x')},
			{Key: []byte("b"), Value: big(200, 'y')}, // does not fit what is left: flush first
			{Key: []byte("c"), Value: big(3*writerBufferSize, 'z')},
			{Key: big(writerBufferSize+1, 'k'), Value: nil},
			{Key: []byte("d"), Value: []byte("tail")},
		},
		nil,
		{{Key: []byte("e"), Value: big(writerBufferSize-2*binary.MaxVarintLen64-1, 'w')}, {Key: nil, Value: nil}},
		{{Key: []byte("f"), Value: []byte("last")}},
	}
	dataPath, indexPath := writeTestMOF(t, parts)
	ix, err := ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for p, recs := range parts {
		e, err := ix.Entry(p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Offset != int64(len(want)) {
			t.Fatalf("partition %d starts at %d, want %d", p, e.Offset, len(want))
		}
		for _, r := range recs {
			want = AppendRecord(want, r)
		}
		raw, err := ReadSegmentBytes(dataPath, e) // verifies the checksum
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		got, err := ParseRecords(raw)
		if err != nil || !recordsEqual(got, recs) || e.Records != int64(len(recs)) {
			t.Fatalf("partition %d read back %d records (index says %d, err %v), want %d", p, len(got), e.Records, err, len(recs))
		}
	}
	data, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("data file holds %d bytes, want the %d bytes of the encoded records", len(data), len(want))
	}
}

// TestWriterReset writes two different MOFs through one Writer, the
// second compressed, and a third after an Abort: each must equal what a
// new Writer produces, and the Writer must keep its buffer.
func TestWriterReset(t *testing.T) {
	dir := t.TempDir()
	first := [][]Record{{{Key: []byte("k1"), Value: []byte("v1")}}, {{Key: []byte("k2"), Value: bytes.Repeat([]byte("v"), 1000)}}}
	second := [][]Record{nil, {{Key: []byte("only"), Value: bytes.Repeat([]byte("compressible "), 200)}}, nil}
	write := func(w *Writer, parts [][]Record) {
		t.Helper()
		for p, recs := range parts {
			if len(recs) == 0 {
				continue
			}
			if err := w.BeginSegment(p); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := w.Append(r.Key, r.Value); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	same := func(name string, parts [][]Record, opts ...WriterOption) {
		t.Helper()
		fresh, err := NewWriter(filepath.Join(dir, "fresh.data"), filepath.Join(dir, "fresh.index"), len(parts), opts...)
		if err != nil {
			t.Fatal(err)
		}
		write(fresh, parts)
		for _, ext := range []string{".data", ".index"} {
			got, err1 := os.ReadFile(filepath.Join(dir, name+ext))
			want, err2 := os.ReadFile(filepath.Join(dir, "fresh"+ext))
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s%s differs from a new writer's file (%v, %v)", name, ext, err1, err2)
			}
		}
	}

	var w Writer
	if err := w.Reset(filepath.Join(dir, "one.data"), filepath.Join(dir, "one.index"), len(first)); err != nil {
		t.Fatal(err)
	}
	write(&w, first)
	same("one", first)
	buf := &w.buf[:1][0]

	if err := w.Reset(filepath.Join(dir, "two.data"), filepath.Join(dir, "two.index"), len(second), WithCompression()); err != nil {
		t.Fatal(err)
	}
	write(&w, second)
	same("two", second, WithCompression())

	// An aborted MOF leaves nothing behind in the writer either, and the
	// compression of the MOF before does not carry over.
	if err := w.Reset(filepath.Join(dir, "gone.data"), filepath.Join(dir, "gone.index"), 2); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("half"), []byte("written")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if err := w.Reset(filepath.Join(dir, "three.data"), filepath.Join(dir, "three.index"), len(first)); err != nil {
		t.Fatal(err)
	}
	write(&w, first)
	same("three", first)
	if &w.buf[:1][0] != buf {
		t.Fatal("Reset allocated a new buffer")
	}
	if err := w.Reset(filepath.Join(dir, "bad.data"), filepath.Join(dir, "bad.index"), 0); err == nil {
		t.Fatal("Reset accepted zero partitions")
	}
}
