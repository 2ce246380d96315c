package merge

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/mof"
)

// mergeAll feeds segs to m and drains the merged stream, returning a copy
// of every record and the first error from AddSegment, Finish or Next.
func mergeAll(m Merger, segs [][]byte) ([]mof.Record, error) {
	for _, s := range segs {
		if err := m.AddSegment(s); err != nil {
			return nil, err
		}
	}
	it, err := m.Finish()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []mof.Record
	for {
		r, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		// Copy: disk-backed records alias reused buffers.
		out = append(out, mof.Record{
			Key:   append([]byte(nil), r.Key...),
			Value: append([]byte(nil), r.Value...),
		})
	}
}

// mergers builds each Merger configuration the reduce side runs: the
// network-levitated merge, and the spill merger with a budget that holds
// everything and with one that spills every segment.
func mergers(t testing.TB) map[string]func() Merger {
	mk := func(budget int64) func() Merger {
		return func() Merger {
			m, err := NewSpillMerger(t.TempDir(), budget, 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	return map[string]func() Merger{
		"netlev":        func() Merger { return NewNetLevitatedMerger() },
		"spill":         mk(1 << 20),
		"spill-spilled": mk(8),
	}
}

func TestNormalizeSegmentSortedPassesThrough(t *testing.T) {
	data := encodeSegment([]mof.Record{rec("a", "1"), rec("a", "2"), rec("c", "3")})
	got, resorted, err := NormalizeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if resorted {
		t.Fatal("sorted segment reported as resorted")
	}
	if &got[0] != &data[0] {
		t.Fatal("sorted segment was copied")
	}
}

func TestNormalizeSegmentCorrupt(t *testing.T) {
	for name, data := range map[string][]byte{
		"truncated":    {0xff},
		"out of order": encodeSegment([]mof.Record{rec("b", "1"), rec("a", "2")}),
	} {
		if _, _, err := NormalizeSegment(data); !errors.Is(err, mof.ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want one wrapping mof.ErrCorruptRecord", name, err)
		}
	}
}

// TestRawSourceChecksKeyOrder: equal and empty keys pass, a key lower
// than its predecessor is a corrupt record.
func TestRawSourceChecksKeyOrder(t *testing.T) {
	src := NewRawSource(encodeSegment([]mof.Record{
		rec("", "1"), rec("", "2"), rec("k", "3"), rec("k", "4"), rec("j", "5"),
	}))
	defer src.Close()
	for i := 0; i < 4; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := src.Next(); !errors.Is(err, mof.ErrCorruptRecord) {
		t.Fatalf("key going backwards: err = %v, want one wrapping mof.ErrCorruptRecord", err)
	}
}

// TestMergersRejectOutOfOrderSegments: a fetched segment whose keys go
// backwards fails the merge, with and without a spill, instead of being
// sorted on ingest.
func TestMergersRejectOutOfOrderSegments(t *testing.T) {
	// The sorted segment alone overruns the spilling budget of 8 bytes.
	sorted := encodeSegment([]mof.Record{rec("a", "1"), rec("c", "3"), rec("e", "5")})
	unsorted := encodeSegment([]mof.Record{rec("d", "4"), rec("b", "2")})
	for name, mk := range mergers(t) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			out, err := mergeAll(m, [][]byte{sorted, unsorted})
			if !errors.Is(err, mof.ErrCorruptRecord) {
				t.Fatalf("merged %d records, err = %v; want an error wrapping mof.ErrCorruptRecord", len(out), err)
			}
			if spilled := m.Stats().Spills > 0; spilled != (name == "spill-spilled") {
				t.Fatalf("spills = %d: fixture does not exercise the %s path", m.Stats().Spills, name)
			}
		})
	}
}

// TestMergersKeepEqualKeysInSegmentOrder: records with equal keys leave
// every merger in the order their segments were added, through spills
// and a multi-pass merge.
func TestMergersKeepEqualKeysInSegmentOrder(t *testing.T) {
	segs := [][]byte{
		encodeSegment([]mof.Record{rec("a", "0.0"), rec("k", "0.1"), rec("k", "0.2")}),
		encodeSegment([]mof.Record{rec("k", "1.0"), rec("z", "1.1")}),
		encodeSegment([]mof.Record{rec("k", "2.0")}),
	}
	for name, mk := range mergers(t) {
		t.Run(name, func(t *testing.T) {
			out, err := mergeAll(mk(), segs)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range out {
				got = append(got, string(r.Key)+"="+string(r.Value))
			}
			want := "[a=0.0 k=0.1 k=0.2 k=1.0 k=2.0 z=1.1]"
			if fmt.Sprint(got) != want {
				t.Fatalf("merged %v, want %s", got, want)
			}
		})
	}
}

// splitSegments cuts fuzz input into at most eight segments: each starts
// with a length byte, and the eighth, or one whose length overruns the
// input, takes the rest.
func splitSegments(data []byte) [][]byte {
	var segs [][]byte
	for len(data) > 0 && len(segs) < 8 {
		n := int(data[0])
		data = data[1:]
		if n > len(data) || len(segs) == 7 {
			n = len(data)
		}
		segs = append(segs, data[:n])
		data = data[n:]
	}
	return segs
}

// joinSegments is splitSegments' inverse for segments under 256 bytes.
func joinSegments(segs ...[]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(append(out, byte(len(s))), s...)
	}
	return out
}

// FuzzMergeOrder feeds arbitrary segments to the network-levitated merger
// and to a spill merger that spills every segment. A segment that does
// not decode, or whose keys go backwards, must fail the merge with an
// error wrapping mof.ErrCorruptRecord; otherwise the merge must yield
// every record, keys non-decreasing and equal keys in segment order.
func FuzzMergeOrder(f *testing.F) {
	sorted := encodeSegment([]mof.Record{rec("a", "1"), rec("b", "2"), rec("b", "3"), rec("c", "")})
	unsorted := encodeSegment([]mof.Record{rec("b", "1"), rec("a", "2")})
	f.Add(joinSegments(sorted, sorted))
	f.Add(joinSegments(sorted, unsorted))
	f.Add(joinSegments(sorted, sorted[:len(sorted)-1]))
	f.Fuzz(func(t *testing.T, data []byte) {
		segs := splitSegments(data)
		// The reference: every segment decoded on its own, then a stable
		// sort of their concatenation in segment order.
		var want []mof.Record
		valid := true
		for _, s := range segs {
			var prev []byte
			for len(s) > 0 && valid {
				r, n, err := mof.DecodeRecord(s)
				valid = err == nil && bytes.Compare(prev, r.Key) <= 0
				want = append(want, r)
				prev, s = r.Key, s[n:]
			}
		}
		sortRecs(want)
		for _, name := range []string{"netlev", "spill-spilled"} {
			got, err := mergeAll(mergers(t)[name](), segs)
			switch {
			case !valid:
				if !errors.Is(err, mof.ErrCorruptRecord) {
					t.Fatalf("%s: corrupt input merged (%d records, err = %v)", name, len(got), err)
				}
			case err != nil:
				t.Fatalf("%s: valid input failed: %v", name, err)
			case len(got) != len(want):
				t.Fatalf("%s: merged %d records, segments hold %d", name, len(got), len(want))
			default:
				for i := range want {
					if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
						t.Fatalf("%s: record %d = %q/%q, want %q/%q", name, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
					}
				}
			}
		}
	})
}
