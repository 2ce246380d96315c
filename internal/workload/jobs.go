package workload

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/dfs"
	"repro/internal/mapred"
)

// Benchmark bundles a generator with its job definition.
type Benchmark struct {
	// Name as used in the paper's figures.
	Name string
	// ShuffleHeavy marks the first Tarazu category (each MapTask generates
	// a lot of intermediate data); WordCount and Grep are the second.
	ShuffleHeavy bool
	// Generate synthesizes about `lines` input records at `path`.
	Generate func(fs *dfs.Cluster, path, node string, lines int, seed int64) error
	// Job builds the runnable job.
	Job func(input, output string, reducers int) *mapred.Job
}

// one is the count a word-counting map emits per occurrence.
var one = []byte("1")

// nextField returns the first whitespace-separated field of s, as
// bytes.Fields splits it, and what follows the field; the field is empty
// when s holds no more. It lets a map function walk a line's words in
// place: Emit copies what it is given.
func nextField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}

// sumCounts is the shared count-summing reducer/combiner.
func sumCounts(key []byte, values [][]byte, emit mapred.Emit) error {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return fmt.Errorf("workload: bad count %q for key %q: %w", v, key, err)
		}
		sum += n
	}
	emit(key, []byte(strconv.Itoa(sum)))
	return nil
}

// Terasort returns the headline benchmark: identity map and reduce over
// fixed-width records, with a range partitioner so concatenated reducer
// outputs are globally sorted. Its intermediate data size equals its input
// size — the property the paper exploits (Section V).
func Terasort() Benchmark {
	return Benchmark{
		Name:         "Terasort",
		ShuffleHeavy: true,
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			return Teragen(fs, path, node, lines, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "terasort",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				InputFormat: mapred.FixedWidthInput(TeraKeyLen, TeraRecordLen),
				Map: func(k, v []byte, emit mapred.Emit) error {
					emit(k, v)
					return nil
				},
				// Identity reduce: merged order is the sorted order.
				Partitioner: TeraPartitioner,
			}
		},
	}
}

// TeraPartitioner range-partitions lowercase Terasort keys so reducer i
// holds a contiguous key range.
func TeraPartitioner(key []byte, numReduce int) int {
	if len(key) == 0 {
		return 0
	}
	c := key[0]
	if c < 'a' {
		return 0
	}
	if c > 'z' {
		return numReduce - 1
	}
	return int(c-'a') * numReduce / 26
}

// WordCount counts words; the combiner collapses duplicates per MapTask,
// which is why the paper sees little intermediate data.
func WordCount() Benchmark {
	return Benchmark{
		Name: "WordCount",
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			// A small vocabulary: the combiner collapses nearly all
			// duplicates per MapTask, so little data shuffles.
			return TextCorpus(fs, path, node, lines, 20, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "wordcount",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					for w, rest := nextField(value); len(w) > 0; w, rest = nextField(rest) {
						emit(w, one)
					}
					return nil
				},
				Combine: sumCounts,
				Reduce:  sumCounts,
			}
		},
	}
}

// GrepPattern is the substring Grep searches for.
const GrepPattern = "w00001"

// Grep counts lines matching a pattern; matches are rare and combined, so
// almost nothing shuffles.
func Grep() Benchmark {
	return Benchmark{
		Name: "Grep",
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			return TextCorpus(fs, path, node, lines, 20, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "grep",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					if bytes.Contains(value, []byte(GrepPattern)) {
						emit([]byte(GrepPattern), []byte("1"))
					}
					return nil
				},
				Combine: sumCounts,
				Reduce:  sumCounts,
			}
		},
	}
}

// SelfJoin joins a table with itself on its attribute prefix: rows sharing
// "a,b" attributes pair up. Every row is reshuffled keyed by its prefix —
// heavy intermediate data.
func SelfJoin() Benchmark {
	return Benchmark{
		Name:         "SelfJoin",
		ShuffleHeavy: true,
		Generate:     Table,
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "selfjoin",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					fields := strings.Split(strings.TrimSpace(string(value)), ",")
					if len(fields) < 2 {
						return nil
					}
					prefix := strings.Join(fields[:len(fields)-1], ",")
					emit([]byte(prefix), []byte(fields[len(fields)-1]))
					return nil
				},
				Reduce: func(key []byte, values [][]byte, emit mapred.Emit) error {
					// Shuffle delivery order is implementation-defined, so
					// sort the join side for deterministic output.
					vals := make([]string, len(values))
					for i, v := range values {
						vals[i] = string(v)
					}
					sort.Strings(vals)
					// Emit the joined pairs (capped quadratic blowup: the
					// join width is what matters, not unbounded output).
					const maxPairs = 64
					emitted := 0
					for i := 0; i < len(vals) && emitted < maxPairs; i++ {
						for j := i + 1; j < len(vals) && emitted < maxPairs; j++ {
							emit(key, []byte(vals[i]+"+"+vals[j]))
							emitted++
						}
					}
					return nil
				},
			}
		},
	}
}

// InvertedIndex builds word -> document-id postings; every word occurrence
// shuffles with its document id, and combining cannot collapse distinct
// ids — heavy intermediate data.
func InvertedIndex() Benchmark {
	return Benchmark{
		Name:         "InvertedIndex",
		ShuffleHeavy: true,
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			return TextCorpus(fs, path, node, lines, 2000, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "invertedindex",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					doc, rest := nextField(value)
					for w, rest := nextField(rest); len(w) > 0; w, rest = nextField(rest) {
						emit(w, doc)
					}
					return nil
				},
				Reduce: func(key []byte, values [][]byte, emit mapred.Emit) error {
					seen := make(map[string]bool, len(values))
					for _, v := range values {
						seen[string(v)] = true
					}
					docs := make([]string, 0, len(seen))
					for d := range seen {
						docs = append(docs, d)
					}
					sort.Strings(docs)
					const maxPosting = 100
					if len(docs) > maxPosting {
						docs = docs[:maxPosting]
					}
					emit(key, []byte(strings.Join(docs, ",")))
					return nil
				},
			}
		},
	}
}

// SequenceCount counts word trigrams; nearly every trigram is distinct, so
// the combiner barely helps — heavy intermediate data.
func SequenceCount() Benchmark {
	return Benchmark{
		Name:         "SequenceCount",
		ShuffleHeavy: true,
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			return TextCorpus(fs, path, node, lines, 2000, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "sequencecount",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					_, rest := nextField(value) // skip the doc id
					a, rest := nextField(rest)
					b, rest := nextField(rest)
					var tri []byte
					for c, rest := nextField(rest); len(c) > 0; c, rest = nextField(rest) {
						tri = append(append(tri[:0], a...), ' ')
						tri = append(append(tri, b...), ' ')
						tri = append(tri, c...)
						emit(tri, one)
						a, b = b, c
					}
					return nil
				},
				Combine: sumCounts,
				Reduce:  sumCounts,
			}
		},
	}
}

// AdjacencyList folds an edge list into per-vertex sorted neighbor lists;
// every edge reshuffles — heavy intermediate data.
func AdjacencyList() Benchmark {
	return Benchmark{
		Name:         "AdjacencyList",
		ShuffleHeavy: true,
		Generate: func(fs *dfs.Cluster, path, node string, lines int, seed int64) error {
			return EdgeList(fs, path, node, lines, lines/4+2, seed)
		},
		Job: func(input, output string, reducers int) *mapred.Job {
			return &mapred.Job{
				Name:        "adjacencylist",
				Input:       input,
				Output:      output,
				NumReducers: reducers,
				Map: func(_, value []byte, emit mapred.Emit) error {
					parts := strings.Split(strings.TrimSpace(string(value)), "\t")
					if len(parts) != 2 {
						return nil
					}
					emit([]byte(parts[0]), []byte(strings.TrimSpace(parts[1])))
					return nil
				},
				Reduce: func(key []byte, values [][]byte, emit mapred.Emit) error {
					seen := make(map[string]bool, len(values))
					for _, v := range values {
						seen[string(v)] = true
					}
					neighbors := make([]string, 0, len(seen))
					for n := range seen {
						neighbors = append(neighbors, n)
					}
					sort.Strings(neighbors)
					const maxDegree = 100
					if len(neighbors) > maxDegree {
						neighbors = neighbors[:maxDegree]
					}
					emit(key, []byte(strings.Join(neighbors, ",")))
					return nil
				},
			}
		},
	}
}

// TarazuSuite returns the six Tarazu benchmarks in the paper's Fig. 12
// order.
func TarazuSuite() []Benchmark {
	return []Benchmark{
		SelfJoin(), InvertedIndex(), SequenceCount(), AdjacencyList(),
		WordCount(), Grep(),
	}
}

// All returns every benchmark: Terasort plus the Tarazu suite.
func All() []Benchmark {
	return append([]Benchmark{Terasort()}, TarazuSuite()...)
}

// ByName looks a benchmark up case-insensitively.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
