package merge

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mof"
)

func rec(k, v string) mof.Record {
	return mof.Record{Key: []byte(k), Value: []byte(v)}
}

func encodeSegment(recs []mof.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = mof.AppendRecord(out, r)
	}
	return out
}

func drain(t *testing.T, it *Iterator) []mof.Record {
	t.Helper()
	var out []mof.Record
	for {
		r, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		// Records from disk-backed sources alias reused buffers; copy to
		// keep them past the next call.
		out = append(out, mof.Record{
			Key:   append([]byte(nil), r.Key...),
			Value: append([]byte(nil), r.Value...),
		})
	}
}

func sortedCheck(t *testing.T, recs []mof.Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
			t.Fatalf("output not sorted at %d: %q > %q", i, recs[i-1].Key, recs[i].Key)
		}
	}
}

func TestIteratorMergesSorted(t *testing.T) {
	s1 := NewSliceSource([]mof.Record{rec("a", "1"), rec("c", "3"), rec("e", "5")})
	s2 := NewSliceSource([]mof.Record{rec("b", "2"), rec("d", "4")})
	it, err := NewIterator([]Source{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := []string{"a", "b", "c", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i].Key) != w {
			t.Fatalf("position %d: %q, want %q", i, got[i].Key, w)
		}
	}
}

func TestIteratorEmptySources(t *testing.T) {
	it, err := NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 0 {
		t.Fatalf("got %d records from no sources", len(got))
	}

	it2, err := NewIterator([]Source{NewSliceSource(nil), NewSliceSource(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it2); len(got) != 0 {
		t.Fatalf("got %d records from empty sources", len(got))
	}
}

func TestIteratorNextAfterEOF(t *testing.T) {
	it, _ := NewIterator([]Source{NewSliceSource([]mof.Record{rec("a", "1")})})
	drain(t, it)
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestIteratorStableForEqualKeys(t *testing.T) {
	// Equal keys must come out in source order (stability matters for
	// deterministic reduce input).
	s1 := NewSliceSource([]mof.Record{rec("k", "from-s1")})
	s2 := NewSliceSource([]mof.Record{rec("k", "from-s2")})
	it, _ := NewIterator([]Source{s1, s2})
	got := drain(t, it)
	if string(got[0].Value) != "from-s1" || string(got[1].Value) != "from-s2" {
		t.Fatalf("equal-key order broken: %q, %q", got[0].Value, got[1].Value)
	}
}

func TestRawSource(t *testing.T) {
	seg := encodeSegment([]mof.Record{rec("x", "1"), rec("y", "2")})
	src := NewRawSource(seg)
	r1, err := src.Next()
	if err != nil || string(r1.Key) != "x" {
		t.Fatalf("first: %v %q", err, r1.Key)
	}
	r2, err := src.Next()
	if err != nil || string(r2.Key) != "y" {
		t.Fatalf("second: %v %q", err, r2.Key)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestRawSourceCorrupt(t *testing.T) {
	src := NewRawSource([]byte{0xff})
	if _, err := src.Next(); err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

func TestMergeCallback(t *testing.T) {
	s1 := NewSliceSource([]mof.Record{rec("a", "1")})
	s2 := NewSliceSource([]mof.Record{rec("b", "2")})
	var keys []string
	err := Merge([]Source{s1, s2}, func(r mof.Record) error {
		keys = append(keys, string(r.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestMergeCallbackError(t *testing.T) {
	s := NewSliceSource([]mof.Record{rec("a", "1")})
	wantErr := fmt.Errorf("emit failed")
	if err := Merge([]Source{s}, func(mof.Record) error { return wantErr }); err != wantErr {
		t.Fatalf("err = %v, want emit failure", err)
	}
}

func TestGroupByKey(t *testing.T) {
	s := NewSliceSource([]mof.Record{
		rec("a", "1"), rec("a", "2"), rec("b", "3"), rec("c", "4"), rec("c", "5"),
	})
	it, _ := NewIterator([]Source{s})
	groups := map[string][]string{}
	var order []string
	err := GroupByKey(it, func(key []byte, values [][]byte) error {
		k := string(key)
		order = append(order, k)
		for _, v := range values {
			groups[k] = append(groups[k], string(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("group order = %v", order)
	}
	if len(groups["a"]) != 2 || len(groups["b"]) != 1 || len(groups["c"]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestGroupByKeyEmpty(t *testing.T) {
	it, _ := NewIterator(nil)
	called := false
	if err := GroupByKey(it, func([]byte, [][]byte) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty input")
	}
}

// TestGroupByKeyKeepsTheEmptyKey: "" is a key like any other. Its group
// used to vanish — a cloned empty key is a nil slice, which was also the
// mark for "no group yet" — taking every value under it out of the reduce.
func TestGroupByKeyKeepsTheEmptyKey(t *testing.T) {
	for _, recs := range [][]mof.Record{
		{rec("", "1"), rec("", "2"), rec("a", "3")},
		{rec("", "1")},
	} {
		it, _ := NewIterator([]Source{NewSliceSource(recs)})
		var got []string
		err := GroupByKey(it, func(key []byte, values [][]byte) error {
			for _, v := range values {
				got = append(got, fmt.Sprintf("%q=%s", key, v))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range recs {
			want = append(want, fmt.Sprintf("%q=%s", r.Key, r.Value))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("groups = %v, want %v", got, want)
		}
	}
}

// closeCounter is a Source that counts its Closes and can fail its first
// Next.
type closeCounter struct {
	Source
	fail   error
	closes int
}

func (c *closeCounter) Next() (mof.Record, error) {
	if c.fail != nil {
		return mof.Record{}, c.fail
	}
	return c.Source.Next()
}

func (c *closeCounter) Close() error { c.closes++; return c.Source.Close() }

// TestFailedPrimeClosesEverySource: an iterator that cannot be built has
// no Close to call, so NewIterator must not keep what it was handed — run
// files then, pooled leases now. In the style of mapred's
// TestWriterFailureLeavesNothing: no open file may outlive the failure.
func TestFailedPrimeClosesEverySource(t *testing.T) {
	srcs := make([]*closeCounter, 3)
	sources := make([]Source, len(srcs))
	for i := range srcs {
		srcs[i] = &closeCounter{Source: NewSliceSource([]mof.Record{rec("k", "v")})}
		sources[i] = srcs[i]
	}
	srcs[1].fail = mof.ErrCorruptRecord
	if _, err := NewIterator(sources); !errors.Is(err, mof.ErrCorruptRecord) {
		t.Fatalf("NewIterator = %v, want the priming error", err)
	}
	for i, s := range srcs {
		if s.closes != 1 {
			t.Errorf("source %d closed %d times after a failed prime, want 1", i, s.closes)
		}
	}

	// The same through SpillMerger.Finish, whose sources are open files.
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	before := len(ents)
	dir := t.TempDir()
	m, err := NewSpillMerger(dir, 1<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := makeSortedSegments(rand.New(rand.NewSource(9)), 6, 40)
	for _, seg := range segs {
		if err := m.AddSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.runs) < 2 {
		t.Fatalf("fixture error: %d runs spilled, want several", len(m.runs))
	}
	if err := os.WriteFile(m.runs[len(m.runs)-1], []byte{0xff, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(); err == nil {
		t.Fatal("Finish over a corrupt run succeeded")
	}
	if ents, _ = os.ReadDir("/proc/self/fd"); len(ents) > before {
		t.Fatalf("failed Finish left %d run files open", len(ents)-before)
	}
}

// sortRecs sorts records by key, keeping equal keys in input order.
func sortRecs(recs []mof.Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		return bytes.Compare(recs[i].Key, recs[j].Key) < 0
	})
}

func makeSortedSegments(rng *rand.Rand, nSegs, perSeg int) ([][]byte, []string) {
	var segs [][]byte
	var allKeys []string
	for s := 0; s < nSegs; s++ {
		var recs []mof.Record
		for i := 0; i < perSeg; i++ {
			k := fmt.Sprintf("key-%06d", rng.Intn(100000))
			allKeys = append(allKeys, k)
			recs = append(recs, rec(k, fmt.Sprintf("s%d-%d", s, i)))
		}
		sortRecs(recs)
		segs = append(segs, encodeSegment(recs))
	}
	sort.Strings(allKeys)
	return segs, allKeys
}

func runMerger(t *testing.T, m Merger, segs [][]byte) []mof.Record {
	t.Helper()
	for _, s := range segs {
		if err := m.AddSegment(s); err != nil {
			t.Fatal(err)
		}
	}
	it, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	return drain(t, it)
}

func TestSpillMergerNoSpillWhenFits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs, keys := makeSortedSegments(rng, 4, 50)
	m, err := NewSpillMerger(t.TempDir(), 1<<30, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := runMerger(t, m, segs)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	sortedCheck(t, got)
	if st := m.Stats(); st.Spills != 0 || st.SpilledBytes != 0 {
		t.Fatalf("unexpected spills: %+v", st)
	}
}

func TestSpillMergerSpillsUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	segs, keys := makeSortedSegments(rng, 10, 100)
	m, err := NewSpillMerger(t.TempDir(), 4<<10, 4) // tiny budget forces spills
	if err != nil {
		t.Fatal(err)
	}
	got := runMerger(t, m, segs)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	sortedCheck(t, got)
	for i, k := range keys {
		if string(got[i].Key) != k {
			t.Fatalf("key %d = %q, want %q", i, got[i].Key, k)
		}
	}
	st := m.Stats()
	if st.Spills == 0 || st.SpilledBytes == 0 {
		t.Fatalf("expected spills under pressure: %+v", st)
	}
}

func TestSpillMergerMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs, keys := makeSortedSegments(rng, 30, 40)
	m, err := NewSpillMerger(t.TempDir(), 1<<10, 3) // many runs, small fan-in
	if err != nil {
		t.Fatal(err)
	}
	got := runMerger(t, m, segs)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	sortedCheck(t, got)
	if st := m.Stats(); st.MergePasses == 0 {
		t.Fatalf("expected intermediate merge passes: %+v", st)
	}
}

func TestSpillMergerRejectsUseAfterFinish(t *testing.T) {
	m, _ := NewSpillMerger(t.TempDir(), 1<<20, 4)
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSegment([]byte{}); err == nil {
		t.Fatal("AddSegment after Finish accepted")
	}
	if _, err := m.Finish(); err == nil {
		t.Fatal("second Finish accepted")
	}
}

func TestSpillMergerValidatesConfig(t *testing.T) {
	if _, err := NewSpillMerger(t.TempDir(), 0, 4); err == nil {
		t.Fatal("zero memory accepted")
	}
	if _, err := NewSpillMerger(t.TempDir(), 1024, 1); err == nil {
		t.Fatal("fan-in 1 accepted")
	}
}

func TestNetLevitatedMergerZeroSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	segs, keys := makeSortedSegments(rng, 10, 100)
	m := NewNetLevitatedMerger()
	got := runMerger(t, m, segs)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	sortedCheck(t, got)
	st := m.Stats()
	if st.Spills != 0 || st.SpilledBytes != 0 || st.MergePasses != 0 {
		t.Fatalf("network-levitated merge touched disk: %+v", st)
	}
	if st.Segments != 10 {
		t.Fatalf("segments = %d, want 10", st.Segments)
	}
}

func TestNetLevitatedMergerUseAfterFinish(t *testing.T) {
	m := NewNetLevitatedMerger()
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSegment(nil); err == nil {
		t.Fatal("AddSegment after Finish accepted")
	}
	if _, err := m.Finish(); err == nil {
		t.Fatal("second Finish accepted")
	}
}

// Property: both mergers produce identical output for identical input —
// the same sorted multiset of records.
func TestMergersEquivalentProperty(t *testing.T) {
	f := func(seed int64, nSegs, perSeg uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		segs, _ := makeSortedSegments(rng, int(nSegs%8)+1, int(perSeg%30)+1)

		spill, err := NewSpillMerger(t.TempDir(), 2<<10, 3)
		if err != nil {
			return false
		}
		levitated := NewNetLevitatedMerger()

		var a, b []mof.Record
		for _, m := range []Merger{spill, levitated} {
			for _, s := range segs {
				if err := m.AddSegment(s); err != nil {
					return false
				}
			}
			it, err := m.Finish()
			if err != nil {
				return false
			}
			var out []mof.Record
			for {
				r, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return false
				}
				// Copy: disk-backed records alias reused buffers.
				out = append(out, mof.Record{
					Key:   append([]byte(nil), r.Key...),
					Value: append([]byte(nil), r.Value...),
				})
			}
			it.Close()
			if m == Merger(spill) {
				a = out
			} else {
				b = out
			}
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i].Key, b[i].Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNetLevitatedMerge merges 512 sorted segments of 20 records —
// one segment per MapTask at the paper's 128GB scale — through the flat
// network-levitated merge, key-order check included.
func BenchmarkNetLevitatedMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	segs, _ := makeSortedSegments(rng, 512, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewNetLevitatedMerger()
		for _, s := range segs {
			if err := m.AddSegment(s); err != nil {
				b.Fatal(err)
			}
		}
		it, err := m.Finish()
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		it.Close()
	}
}
