// Package workload provides the input generators and benchmark job
// definitions of the paper's evaluation (Section V): Terasort (the
// data-intensive headline workload whose intermediate data equals its
// input) plus the Tarazu suite — SelfJoin, InvertedIndex, SequenceCount,
// AdjacencyList (shuffle-heavy) and WordCount, Grep (shuffle-light thanks
// to combiners).
//
// The paper's wikipedia and database inputs are proprietary-scale corpora;
// the generators below synthesize equivalents with the property that
// actually matters to JBS — the ratio of intermediate (shuffled) data to
// input data. All records are fixed-width and block-aligned so DFS splits
// never chop a record.
package workload

import (
	"bufio"
	"fmt"
	"math/rand"

	"repro/internal/dfs"
)

// LineWidth is the fixed byte width of every generated text line,
// terminator included. DFS block sizes must be a multiple of it.
const LineWidth = 64

// TeraKeyLen and TeraRecordLen define the Terasort record layout: 100-byte
// records led by a 10-byte key, as in the original benchmark.
const (
	TeraKeyLen    = 10
	TeraRecordLen = 100
)

// checkAlignment verifies that DFS blocks hold whole records.
func checkAlignment(fs *dfs.Cluster, recordLen int64) error {
	if fs.BlockSize()%recordLen != 0 {
		return fmt.Errorf("workload: block size %d not a multiple of record length %d",
			fs.BlockSize(), recordLen)
	}
	return nil
}

// padLine writes content into a LineWidth-byte line, space padded,
// newline terminated.
func padLine(content string) ([]byte, error) {
	if len(content) > LineWidth-1 {
		return nil, fmt.Errorf("workload: line %q exceeds %d bytes", content, LineWidth-1)
	}
	line := make([]byte, LineWidth)
	copy(line, content)
	for i := len(content); i < LineWidth-1; i++ {
		line[i] = ' '
	}
	line[LineWidth-1] = '\n'
	return line, nil
}

// writeLines streams generated fixed-width lines into a new DFS file.
func writeLines(fs *dfs.Cluster, path, node string, n int, gen func(i int) (string, error)) error {
	if err := checkAlignment(fs, LineWidth); err != nil {
		return err
	}
	w, err := fs.Create(path, node)
	if err != nil {
		return err
	}
	defer w.Abort() // an error exit leaves no blocks; a no-op after Close
	bw := bufio.NewWriterSize(w, 256<<10)
	for i := 0; i < n; i++ {
		content, err := gen(i)
		if err != nil {
			return err
		}
		line, err := padLine(content)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return w.Close()
}

// Teragen writes n Terasort records: a 10-byte random lowercase key and a
// 90-byte deterministic payload (no newlines — records are located by
// fixed width, as in the original benchmark).
func Teragen(fs *dfs.Cluster, path, node string, n int, seed int64) error {
	if err := checkAlignment(fs, TeraRecordLen); err != nil {
		return err
	}
	w, err := fs.Create(path, node)
	if err != nil {
		return err
	}
	defer w.Abort() // an error exit leaves no blocks; a no-op after Close
	bw := bufio.NewWriterSize(w, 256<<10)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]byte, TeraRecordLen)
	for i := 0; i < n; i++ {
		for k := 0; k < TeraKeyLen; k++ {
			rec[k] = byte('a' + rng.Intn(26))
		}
		payload := fmt.Sprintf("%022d", i)
		copy(rec[TeraKeyLen:], payload)
		for k := TeraKeyLen + len(payload); k < TeraRecordLen; k++ {
			rec[k] = byte('A' + (i+k)%26)
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return w.Close()
}

// TextCorpus writes n document lines: a document id followed by Zipfian
// words from a bounded vocabulary — the wikipedia-like input for
// WordCount, Grep, InvertedIndex, and SequenceCount.
func TextCorpus(fs *dfs.Cluster, path, node string, n, vocab int, seed int64) error {
	if vocab < 2 {
		return fmt.Errorf("workload: vocabulary %d too small", vocab)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(vocab-1))
	return writeLines(fs, path, node, n, func(i int) (string, error) {
		words := fmt.Sprintf("d%06d", i)
		for w := 0; w < 6; w++ {
			words += fmt.Sprintf(" w%05d", zipf.Uint64())
		}
		return words, nil
	})
}

// EdgeList writes n directed edges over the given vertex count — the graph
// input for AdjacencyList.
func EdgeList(fs *dfs.Cluster, path, node string, n, vertices int, seed int64) error {
	if vertices < 2 {
		return fmt.Errorf("workload: vertex count %d too small", vertices)
	}
	rng := rand.New(rand.NewSource(seed))
	return writeLines(fs, path, node, n, func(i int) (string, error) {
		src := rng.Intn(vertices)
		dst := rng.Intn(vertices - 1)
		if dst >= src {
			dst++
		}
		return fmt.Sprintf("v%06d\tv%06d", src, dst), nil
	})
}

// Table writes n database-like rows "id,a,b,c" with repeating attribute
// combinations — the input for SelfJoin, whose map keys are attribute
// prefixes shared by many rows.
func Table(fs *dfs.Cluster, path, node string, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	return writeLines(fs, path, node, n, func(i int) (string, error) {
		a := rng.Intn(40)
		b := rng.Intn(40)
		c := rng.Intn(1000)
		return fmt.Sprintf("a%03d,b%03d,c%06d", a, b, c), nil
	})
}
