package mapred

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/mof"
)

// testRecord is one emitted record with its partition resolved.
type testRecord struct {
	mof.Record
	part int
}

// testRecords generates a seeded, deliberately unsorted stream of
// recordBytes-sized records. Every key repeats about eight times with a
// distinct value per emit, so equal-key emit order is visible downstream,
// and when there is more than one partition the last one receives
// nothing.
func testRecords(n, partitions, recordBytes int) []testRecord {
	rng := rand.New(rand.NewSource(7))
	used := max(partitions-1, 1)
	recs := make([]testRecord, n)
	for i := range recs {
		key := []byte(fmt.Sprintf("key-%08d", rng.Intn(n/8+1)))
		val := make([]byte, max(recordBytes-len(key), 1))
		rng.Read(val)
		copy(val, fmt.Sprintf("%d;", i))
		recs[i] = testRecord{mof.Record{Key: key, Value: val}, HashPartitioner(key, used)}
	}
	// Empty records occupy no arena bytes, so they share their offset
	// with the record emitted next: the one case where offsets do not
	// tell emit order.
	for i := n / 2; i+2 < n && i < n/2+9; i += 3 {
		recs[i] = testRecord{part: 0}
		recs[i+1] = testRecord{part: 0}
		recs[i+2] = testRecord{mof.Record{Value: []byte(fmt.Sprintf("%d;", i))}, 0}
	}
	return recs
}

// concatValues is an associative, order-sensitive combiner: combining a
// key's values in several sorted runs and then again over the merged runs
// gives the one-pass result only if every stage kept emit order.
func concatValues(key []byte, values [][]byte, emit Emit) error {
	emit(key, bytes.Join(values, nil))
	return nil
}

// combineAll is the reference combine: one pass over a sorted partition.
func combineAll(t *testing.T, recs []mof.Record) []mof.Record {
	t.Helper()
	var out []mof.Record
	for i := 0; i < len(recs); {
		var values [][]byte
		j := i
		for ; j < len(recs) && bytes.Equal(recs[j].Key, recs[i].Key); j++ {
			values = append(values, recs[j].Value)
		}
		err := concatValues(recs[i].Key, values, func(k, v []byte) {
			out = append(out, mof.Record{Key: k, Value: v})
		})
		if err != nil {
			t.Fatal(err)
		}
		i = j
	}
	return out
}

// readPartition reads one MOF partition back — index, stored bytes,
// checksum verify, decompress — and requires it to be in key order
// already: no producer may emit a segment that needs a reduce-side resort.
func readPartition(t *testing.T, paths MOFPaths, partition int) []mof.Record {
	t.Helper()
	ix, err := mof.ReadIndex(paths.Index)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Entry(partition)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := mof.ReadSegmentBytes(paths.Data, e)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mof.DecodeSegmentBytes(stored, e)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mof.ParseRecords(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
			t.Fatalf("partition %d: segment not in key order at record %d", partition, i)
		}
	}
	if int64(len(recs)) != e.Records {
		t.Fatalf("partition %d: index says %d records, segment holds %d", partition, e.Records, len(recs))
	}
	return recs
}

// TestSortWriterMatchesReference checks the writer's MOF, read back per
// partition, against a naive reference: bucket by partition, stable sort
// by key, optionally combine.
func TestSortWriterMatchesReference(t *testing.T) {
	const n = 320
	for _, partitions := range []int{1, 4, 256} {
		for _, recordBytes := range []int{16, 100, 4096} {
			recs := testRecords(n, partitions, recordBytes)
			want := make([][]mof.Record, partitions)
			for _, r := range recs {
				want[r.part] = append(want[r.part], r.Record)
			}
			for _, part := range want {
				sort.SliceStable(part, func(i, j int) bool {
					return bytes.Compare(part[i].Key, part[j].Key) < 0
				})
			}
			if last := partitions - 1; last > 0 && len(want[last]) != 0 {
				t.Fatalf("fixture error: partition %d should be empty", last)
			}
			for _, combine := range []bool{false, true} {
				for _, compress := range []bool{false, true} {
					for _, spill := range []bool{false, true} {
						name := fmt.Sprintf("p%d/rec%d/combine=%v/compress=%v/spill=%v", partitions, recordBytes, combine, compress, spill)
						t.Run(name, func(t *testing.T) {
							checkAgainstReference(t, recs, want, combine, compress, spill)
						})
					}
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, recs []testRecord, want [][]mof.Record, combine, compress, spill bool) {
	dir := t.TempDir()
	tc := &Counters{}
	cfg := writerConfig{
		partitions: len(want),
		inputBytes: int64(len(recs) * 64), // too small for the large records: the buffers must grow
		dir:        dir,
		taskID:     "t0-a0",
		compress:   compress,
		tc:         tc,
	}
	if combine {
		cfg.combine = concatValues
	}
	if spill {
		cfg.sortMemory = int64(len(recs)*(recs[0].Size()+sortEntryBytes)) / 3
	}
	w := newSortWriter(cfg)
	for _, r := range recs {
		if err := w.Add(r.part, r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	final := MOFPaths{Data: filepath.Join(dir, "final.data"), Index: filepath.Join(dir, "final.index")}
	if err := w.Seal(final); err != nil {
		t.Fatal(err)
	}
	if spills := tc.MapSpills; spill != (spills > 1) {
		t.Fatalf("spill=%v but the writer spilled %d runs", spill, spills)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("seal left %d files in the scratch dir, want the MOF pair alone", len(ents))
	}
	for p := range want {
		got, ref := readPartition(t, final, p), want[p]
		if combine {
			// With spills the combiner ran per run, so a key may appear
			// once per run; combining again is what the reducer does.
			if !spill && len(got) != len(combineAll(t, ref)) {
				t.Fatalf("partition %d: %d records after an unspilled combine, want one per key", p, len(got))
			}
			got, ref = combineAll(t, got), combineAll(t, ref)
		}
		if len(got) != len(ref) {
			t.Fatalf("partition %d: %d records, want %d", p, len(got), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(got[i].Key, ref[i].Key) || !bytes.Equal(got[i].Value, ref[i].Value) {
				t.Fatalf("partition %d record %d: got %q=%.12q, want %q=%.12q",
					p, i, got[i].Key, got[i].Value, ref[i].Key, ref[i].Value)
			}
		}
	}
}

// TestMOFBytesArePinned seals a fixed record stream and compares the MOF,
// data file and index, with hashes taken from the writer before its arena
// held encoded records and its entries a key prefix: a change to the
// writer's internals must not move one stored byte. A run-merged MOF is the
// same bytes as an unspilled one.
func TestMOFBytesArePinned(t *testing.T) {
	recs := testRecords(320, 4, 100)
	const plain = "7fb942e7800737e6df3f0bc6efc08633c44944b005379c4f92ffe0e4845035e5"
	for _, tc := range []struct {
		name       string
		combine    ReduceFunc
		sortMemory int64
		want       string
	}{
		{"plain", nil, 0, plain},
		{"spilled", nil, 12 << 10, plain},
		{"combined", concatValues, 0, "c6b737961ff5c79b0f6698a0e1dcb1a807dc645280d3108c4ddd353ee2842cdb"},
	} {
		dir := t.TempDir()
		w := newSortWriter(writerConfig{
			partitions: 4, inputBytes: 320 * 100, sortMemory: tc.sortMemory, dir: dir, taskID: "t0-a0", combine: tc.combine,
		})
		for _, r := range recs {
			if err := w.Add(r.part, r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		}
		if spilled := len(w.runs) > 0; spilled != (tc.sortMemory > 0) {
			t.Fatalf("%s: fixture error: spilled=%v", tc.name, spilled)
		}
		final := MOFPaths{Data: filepath.Join(dir, "final.data"), Index: filepath.Join(dir, "final.index")}
		if err := w.Seal(final); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range []string{final.Data, final.Index} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: MOF hashes to %s, want %s", tc.name, got, tc.want)
		}
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestWriterFailureLeavesNothing fails the writer at each stage that has
// a MOF open — a run spill, the unspilled final write, the final run
// merge — and requires no open file and, after Abort, no scratch file.
func TestWriterFailureLeavesNothing(t *testing.T) {
	recs := testRecords(200, 4, 32)
	failing := func(key []byte, values [][]byte, emit Emit) error {
		emit(key, values[0])
		if string(key) >= "key-00000012" {
			return errors.New("combiner failed")
		}
		return nil
	}
	cases := []struct {
		name       string
		sortMemory int64
		combine    ReduceFunc
		corruptRun bool
	}{
		{"combiner-in-spill", 2048, failing, false},
		{"combiner-in-final-write", 0, failing, false},
		{"corrupt-run-in-merge", 2048, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			before := openFDs(t)
			w := newSortWriter(writerConfig{
				partitions: 4, sortMemory: tc.sortMemory, dir: dir, taskID: "t0-a0", combine: tc.combine,
			})
			var err error
			for _, r := range recs {
				if err = w.Add(r.part, r.Key, r.Value); err != nil {
					break
				}
			}
			if tc.corruptRun {
				if len(w.runs) == 0 {
					t.Fatal("fixture error: no run spilled")
				}
				if terr := os.Truncate(w.runs[0].Data, 10); terr != nil {
					t.Fatal(terr)
				}
			}
			if err == nil {
				err = w.Seal(MOFPaths{Data: filepath.Join(dir, "final.data"), Index: filepath.Join(dir, "final.index")})
			}
			if err == nil {
				t.Fatal("the writer succeeded; the case should fail it")
			}
			if after := openFDs(t); after > before {
				t.Fatalf("failed writer holds %d open files", after-before)
			}
			w.Abort()
			ents, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if len(ents) != 0 {
				t.Fatalf("failed writer left %d scratch files (first: %s)", len(ents), ents[0].Name())
			}
		})
	}
}

// TestWriterAbortCleansScratch aborts the writer mid-flight (after forcing
// spills) and requires an empty scratch directory.
func TestWriterAbortCleansScratch(t *testing.T) {
	dir := t.TempDir()
	w := newSortWriter(writerConfig{partitions: 4, sortMemory: 512, dir: dir, taskID: "t0-a0"})
	for _, r := range testRecords(200, 4, 32) {
		if err := w.Add(r.part, r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.runs) == 0 {
		t.Fatal("fixture error: no run spilled")
	}
	w.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("abort left %d scratch files (first: %s)", len(ents), ents[0].Name())
	}
}

// TestSortMemoryBoundsSmallRecords feeds WordCount-shaped records whose
// keys and values alone fit the budget: the per-record bookkeeping is
// several times the payload, and it must count.
func TestSortMemoryBoundsSmallRecords(t *testing.T) {
	const n, budget = 10_000, 64 << 10
	tc := &Counters{}
	w := newSortWriter(writerConfig{partitions: 4, sortMemory: budget, dir: t.TempDir(), taskID: "t0-a0", tc: tc})
	payload := 0
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("w%04d", i%5000))
		if err := w.Add(HashPartitioner(key, 4), key, []byte("1")); err != nil {
			t.Fatal(err)
		}
		payload += len(key) + 1
	}
	if payload >= budget {
		t.Fatalf("fixture error: %d payload bytes alone exceed the %d budget", payload, budget)
	}
	if want := int64(n * (6 + sortEntryBytes) / budget); tc.MapSpills < want {
		t.Fatalf("%d records of 6+%d bytes under a %d-byte budget spilled %d runs, want at least %d",
			n, sortEntryBytes, budget, tc.MapSpills, want)
	}
	w.Abort()
}

func TestSortEntryBytes(t *testing.T) {
	if got := unsafe.Sizeof(sortEntry{}); got != sortEntryBytes {
		t.Fatalf("sortEntry is %d bytes, sortEntryBytes says %d", got, sortEntryBytes)
	}
}

func TestAddRejectsBadPartition(t *testing.T) {
	w := newSortWriter(writerConfig{partitions: 2, dir: t.TempDir(), taskID: "t"})
	for _, p := range []int{-1, 2} {
		if err := w.Add(p, []byte("k"), []byte("v")); !errors.Is(err, mof.ErrBadPartition) {
			t.Fatalf("partition %d: got %v, want ErrBadPartition", p, err)
		}
	}
}

// firstValue is the seal benchmark's combiner: cheap and reduction-heavy,
// so the combine cells measure the writer's combining machinery rather
// than a user function.
func firstValue(key []byte, values [][]byte, emit Emit) error {
	emit(key, values[0])
	return nil
}

// BenchmarkMapWriterSeal is the probe behind DESIGN.md's writer verdict:
// full Add+Seal of 8 MiB into a servable MOF on the four corner cells of
// the (partition count x record size) grid, with and without a combiner.
func BenchmarkMapWriterSeal(b *testing.B) {
	const total = 8 << 20
	for _, partitions := range []int{4, 256} {
		for _, recordBytes := range []int{64, 4096} {
			recs := testRecords(total/recordBytes, partitions, recordBytes)
			for _, combine := range []bool{false, true} {
				b.Run(fmt.Sprintf("p%d/rec%d/combine=%v", partitions, recordBytes, combine), func(b *testing.B) {
					cfg := writerConfig{partitions: partitions, inputBytes: total, taskID: "m-0"}
					if combine {
						cfg.combine = firstValue
					}
					cfg.dir = b.TempDir()
					final := MOFPaths{Data: filepath.Join(cfg.dir, "final.data"), Index: filepath.Join(cfg.dir, "final.index")}
					b.SetBytes(total)
					for i := 0; i < b.N; i++ {
						w := newSortWriter(cfg)
						for _, r := range recs {
							if err := w.Add(r.part, r.Key, r.Value); err != nil {
								b.Fatal(err)
							}
						}
						if err := w.Seal(final); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
