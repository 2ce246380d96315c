// Package merge implements the reduce-side merging machinery: a k-way heap
// merge over sorted record sources, the stock Hadoop disk-spill multi-pass
// merger, and the network-levitated merger JBS's NetMerger uses (Section
// III-C; the algorithm is from the authors' SC'11 paper), which keeps
// fetched segments in memory and never spills shuffle data to disk.
package merge

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"

	"repro/internal/mof"
)

// ErrSourceExhausted is returned by iterators used past their end.
var ErrSourceExhausted = errors.New("merge: iterator exhausted")

// Source yields records in non-decreasing key order.
type Source interface {
	// Next returns the next record, or io.EOF after the last.
	Next() (mof.Record, error)
	// Close releases the source.
	Close() error
}

// sliceSource serves records from memory.
type sliceSource struct {
	recs []mof.Record
	pos  int
}

// NewSliceSource wraps an in-memory sorted record slice as a Source.
func NewSliceSource(recs []mof.Record) Source {
	return &sliceSource{recs: recs}
}

func (s *sliceSource) Next() (mof.Record, error) {
	if s.pos >= len(s.recs) {
		return mof.Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceSource) Close() error { return nil }

// rawSource decodes records from an encoded segment in memory and checks
// their key order as it goes. prev aliases the segment, so the check is
// one compare per record and no copy.
type rawSource struct {
	data []byte
	prev []byte
}

// NewRawSource wraps raw encoded segment bytes as a Source. A record whose
// key is lower than its predecessor's is an error wrapping
// mof.ErrCorruptRecord; equal keys and empty keys are legal.
func NewRawSource(data []byte) Source {
	return &rawSource{data: data}
}

func (s *rawSource) Next() (mof.Record, error) {
	if len(s.data) == 0 {
		return mof.Record{}, io.EOF
	}
	r, n, err := mof.DecodeRecord(s.data)
	if err != nil {
		return mof.Record{}, err
	}
	if bytes.Compare(s.prev, r.Key) > 0 {
		return mof.Record{}, fmt.Errorf("%w: key out of order", mof.ErrCorruptRecord)
	}
	s.prev = r.Key
	s.data = s.data[n:]
	return r, nil
}

func (s *rawSource) Close() error { return nil }

// NormalizeSegment checks that one raw segment decodes and is in key
// order, and returns it unchanged; the bool is always false. The mergers
// make the same check as they merge, so nothing in the shuffle service
// calls this: it stays for the benchmark module's merge rung and goes
// when that rung stops calling it (ROADMAP.md item 3(b)).
func NormalizeSegment(data []byte) ([]byte, bool, error) {
	src := NewRawSource(data)
	defer src.Close()
	for {
		if _, err := src.Next(); err == io.EOF {
			return data, false, nil
		} else if err != nil {
			return nil, false, err
		}
	}
}

// heapItem is one source's head record.
type heapItem struct {
	rec mof.Record
	src int // index for stable ordering among equal keys
}

type recordHeap []heapItem

func (h recordHeap) Len() int { return len(h) }

func (h recordHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].rec.Key, h[j].rec.Key); c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src
}

func (h recordHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *recordHeap) Push(x any) { *h = append(*h, x.(heapItem)) }

func (h *recordHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Iterator merges multiple sorted sources into one sorted stream.
type Iterator struct {
	sources []Source
	h       recordHeap
	done    bool
}

// NewIterator builds a merging iterator over the sources. Sources must each
// be sorted by key. The iterator owns the sources from here on: Close
// closes them, and so does a NewIterator that fails.
func NewIterator(sources []Source) (*Iterator, error) {
	it := &Iterator{sources: sources}
	for i, s := range sources {
		rec, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			it.Close() // read-side sources: the priming error is the one to report
			return nil, fmt.Errorf("merge: priming source %d: %w", i, err)
		}
		it.h = append(it.h, heapItem{rec: rec, src: i})
	}
	heap.Init(&it.h)
	return it, nil
}

// Next returns the next record in global key order, or io.EOF at the end.
func (it *Iterator) Next() (mof.Record, error) {
	if it.done || len(it.h) == 0 {
		it.done = true
		return mof.Record{}, io.EOF
	}
	top := it.h[0]
	rec, err := it.sources[top.src].Next()
	switch {
	case err == io.EOF:
		heap.Pop(&it.h)
	case err != nil:
		return mof.Record{}, fmt.Errorf("merge: advancing source %d: %w", top.src, err)
	default:
		it.h[0] = heapItem{rec: rec, src: top.src}
		heap.Fix(&it.h, 0)
	}
	return top.rec, nil
}

// Close closes every source.
func (it *Iterator) Close() error {
	var first error
	for _, s := range it.sources {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Merge merges the sources and calls emit for every record in order.
func Merge(sources []Source, emit func(mof.Record) error) error {
	it, err := NewIterator(sources)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
}

// GroupByKey drains a sorted iterator, invoking fn once per distinct key
// with all its values — the contract the reduce function sees.
func GroupByKey(it *Iterator, fn func(key []byte, values [][]byte) error) error {
	var curKey []byte
	var curVals [][]byte
	inGroup := false // not curKey != nil: the clone of an empty key is nil
	flush := func() error {
		if !inGroup {
			return nil
		}
		return fn(curKey, curVals)
	}
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		if !inGroup || !bytes.Equal(rec.Key, curKey) {
			if err := flush(); err != nil {
				return err
			}
			inGroup = true
			curKey = append([]byte(nil), rec.Key...)
			curVals = curVals[:0]
		}
		curVals = append(curVals, append([]byte(nil), rec.Value...))
	}
}
