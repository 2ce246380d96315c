package workload

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/shuffle"
)

func newFS(t *testing.T, blockSize int64) *dfs.Cluster {
	t.Helper()
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 1},
		[]string{"n0", "n1"}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func newEngine(t *testing.T, fs *dfs.Cluster) *mapred.Cluster {
	t.Helper()
	prov, err := shuffle.NewJBSProvider(shuffle.JBSConfig{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	return newEngineOn(t, fs, prov)
}

func newEngineOn(t *testing.T, fs *dfs.Cluster, prov mapred.ShuffleProvider) *mapred.Cluster {
	t.Helper()
	c, err := mapred.NewCluster(mapred.Config{Nodes: []string{"n0", "n1"}, WorkDir: t.TempDir()}, fs, prov)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPadLine(t *testing.T) {
	line, err := padLine("hello")
	if err != nil {
		t.Fatal(err)
	}
	if len(line) != LineWidth || line[LineWidth-1] != '\n' {
		t.Fatalf("line = %q", line)
	}
	if string(line[:5]) != "hello" || line[5] != ' ' {
		t.Fatalf("padding wrong: %q", line)
	}
	if _, err := padLine(strings.Repeat("x", LineWidth)); err == nil {
		t.Fatal("oversized line accepted")
	}
}

func TestGeneratorsAlignToBlocks(t *testing.T) {
	fs := newFS(t, 8*LineWidth)
	if err := TextCorpus(fs, "/text", "n0", 20, 100, 1); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("/text")
	if fi.Size != 20*LineWidth {
		t.Fatalf("size = %d, want %d", fi.Size, 20*LineWidth)
	}
	// Every block boundary is a line boundary; verify by reading each
	// split independently and counting lines.
	splits, _ := fs.Splits("/text")
	total := 0
	for _, sp := range splits {
		r, err := fs.OpenRange("/text", "n0", sp.Offset, sp.Length)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r)
		if len(data)%LineWidth != 0 {
			t.Fatalf("split not line aligned: %d bytes", len(data))
		}
		total += len(data) / LineWidth
	}
	if total != 20 {
		t.Fatalf("lines across splits = %d, want 20", total)
	}
}

func TestGeneratorsRejectMisalignedBlocks(t *testing.T) {
	fs := newFS(t, LineWidth+1)
	if err := TextCorpus(fs, "/text", "n0", 5, 100, 1); err == nil {
		t.Fatal("misaligned block size accepted")
	}
	fsT := newFS(t, TeraRecordLen+1)
	if err := Teragen(fsT, "/tera", "n0", 5, 1); err == nil {
		t.Fatal("misaligned terasort block accepted")
	}
}

func TestTeragenRecordLayout(t *testing.T) {
	fs := newFS(t, 10*TeraRecordLen)
	if err := Teragen(fs, "/tera", "n0", 10, 42); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/tera", "n0")
	data, _ := io.ReadAll(r)
	if len(data) != 10*TeraRecordLen {
		t.Fatalf("size = %d", len(data))
	}
	for i := 0; i < 10; i++ {
		rec := data[i*TeraRecordLen : (i+1)*TeraRecordLen]
		for k := 0; k < TeraKeyLen; k++ {
			if rec[k] < 'a' || rec[k] > 'z' {
				t.Fatalf("record %d key byte %d = %q", i, k, rec[k])
			}
		}
		for k := TeraKeyLen; k < TeraRecordLen; k++ {
			if rec[k] == '\n' {
				t.Fatalf("record %d contains a newline at %d", i, k)
			}
		}
	}
}

func TestTeragenDeterministic(t *testing.T) {
	fs1, fs2 := newFS(t, 10*TeraRecordLen), newFS(t, 10*TeraRecordLen)
	Teragen(fs1, "/t", "n0", 10, 7)
	Teragen(fs2, "/t", "n0", 10, 7)
	r1, _ := fs1.Open("/t", "n0")
	r2, _ := fs2.Open("/t", "n0")
	d1, _ := io.ReadAll(r1)
	d2, _ := io.ReadAll(r2)
	if string(d1) != string(d2) {
		t.Fatal("same seed produced different data")
	}
	fs3 := newFS(t, 10*TeraRecordLen)
	Teragen(fs3, "/t", "n0", 10, 8)
	r3, _ := fs3.Open("/t", "n0")
	d3, _ := io.ReadAll(r3)
	if string(d1) == string(d3) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestTeraPartitionerRangeAndOrder(t *testing.T) {
	for r := 1; r <= 26; r++ {
		prev := 0
		for c := byte('a'); c <= 'z'; c++ {
			p := TeraPartitioner([]byte{c, 'x'}, r)
			if p < 0 || p >= r {
				t.Fatalf("partition %d out of range for %d reducers", p, r)
			}
			if p < prev {
				t.Fatalf("partitioner not monotone at %q with %d reducers", c, r)
			}
			prev = p
		}
	}
	if TeraPartitioner(nil, 5) != 0 {
		t.Fatal("empty key should land in partition 0")
	}
	if TeraPartitioner([]byte{'~'}, 5) != 4 {
		t.Fatal("out-of-range high byte should land in last partition")
	}
	if TeraPartitioner([]byte{'!'}, 5) != 0 {
		t.Fatal("out-of-range low byte should land in partition 0")
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("terasort")
	if err != nil || b.Name != "Terasort" {
		t.Fatalf("ByName(terasort) = %v, %v", b.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark found")
	}
}

func TestSuiteContents(t *testing.T) {
	suite := TarazuSuite()
	want := []string{"SelfJoin", "InvertedIndex", "SequenceCount", "AdjacencyList", "WordCount", "Grep"}
	if len(suite) != len(want) {
		t.Fatalf("suite size = %d", len(suite))
	}
	for i, b := range suite {
		if b.Name != want[i] {
			t.Fatalf("suite[%d] = %s, want %s (paper Fig. 12 order)", i, b.Name, want[i])
		}
	}
	heavy := map[string]bool{"SelfJoin": true, "InvertedIndex": true, "SequenceCount": true, "AdjacencyList": true}
	for _, b := range suite {
		if b.ShuffleHeavy != heavy[b.Name] {
			t.Fatalf("%s shuffle-heavy = %v", b.Name, b.ShuffleHeavy)
		}
	}
	if len(All()) != 7 {
		t.Fatalf("All() = %d benchmarks, want 7", len(All()))
	}
}

// TestEveryBenchmarkRuns executes each benchmark end-to-end at small scale
// on the JBS engine and sanity-checks its output.
func TestEveryBenchmarkRuns(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			blockSize := int64(8 * LineWidth)
			if b.Name == "Terasort" {
				blockSize = 8 * TeraRecordLen
			}
			fs := newFS(t, blockSize)
			c := newEngine(t, fs)
			if err := b.Generate(fs, "/in", "n0", 64, 123); err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(b.Job("/in", "/out", 2))
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.MapTasks == 0 {
				t.Fatal("no map tasks ran")
			}
			if res.Counters.OutputRecords == 0 && b.Name != "Grep" {
				t.Fatalf("%s produced no output", b.Name)
			}
			if b.Name == "Terasort" {
				var sb strings.Builder
				for _, p := range res.OutputFiles {
					r, _ := fs.Open(p, "")
					data, _ := io.ReadAll(r)
					sb.Write(data)
				}
				lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
				if len(lines) != 64 {
					t.Fatalf("terasort records = %d, want 64", len(lines))
				}
				for i := 1; i < len(lines); i++ {
					if lines[i-1][:TeraKeyLen] > lines[i][:TeraKeyLen] {
						t.Fatalf("terasort output unsorted at %d", i)
					}
				}
			}
		})
	}
}

// TestShuffleVolumeClasses verifies the property the paper's Fig. 12
// explanation rests on: the shuffle-heavy benchmarks move much more
// intermediate data relative to input than WordCount and Grep.
func TestShuffleVolumeClasses(t *testing.T) {
	ratios := map[string]float64{}
	for _, b := range All() {
		blockSize := int64(32 * LineWidth)
		if b.Name == "Terasort" {
			blockSize = 32 * TeraRecordLen
		}
		fs := newFS(t, blockSize)
		c := newEngine(t, fs)
		if err := b.Generate(fs, "/in", "n0", 256, 99); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(b.Job("/in", "/out", 2))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fi, _ := fs.Stat("/in")
		ratios[b.Name] = float64(res.Counters.ShuffledBytes) / float64(fi.Size)
	}
	t.Logf("shuffle/input ratios: %v", ratios)
	for _, heavy := range []string{"Terasort", "SelfJoin", "InvertedIndex", "SequenceCount", "AdjacencyList"} {
		for _, light := range []string{"WordCount", "Grep"} {
			if ratios[heavy] <= ratios[light] {
				t.Errorf("%s ratio %.3f not above %s ratio %.3f",
					heavy, ratios[heavy], light, ratios[light])
			}
		}
	}
	if ratios["Grep"] > 0.05 {
		t.Errorf("Grep ratio %.3f should be near zero", ratios["Grep"])
	}
	// Terasort shuffles roughly its input size (minus padding/encoding).
	if ratios["Terasort"] < 0.5 {
		t.Errorf("Terasort ratio %.3f should be near 1", ratios["Terasort"])
	}
}

func TestEdgeListNoSelfLoops(t *testing.T) {
	fs := newFS(t, 8*LineWidth)
	if err := EdgeList(fs, "/e", "n0", 50, 10, 3); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/e", "n0")
	data, _ := io.ReadAll(r)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		parts := strings.Split(strings.TrimSpace(line), "\t")
		if len(parts) != 2 {
			t.Fatalf("bad edge line %q", line)
		}
		if parts[0] == strings.TrimSpace(parts[1]) {
			t.Fatalf("self loop %q", line)
		}
	}
}

func TestVocabularyValidation(t *testing.T) {
	fs := newFS(t, 8*LineWidth)
	if err := TextCorpus(fs, "/t", "n0", 5, 1, 1); err == nil {
		t.Fatal("vocab=1 accepted")
	}
	if err := EdgeList(fs, "/e", "n0", 5, 1, 1); err == nil {
		t.Fatal("vertices=1 accepted")
	}
}

func TestGrepFindsPattern(t *testing.T) {
	fs := newFS(t, 8*LineWidth)
	c := newEngine(t, fs)
	// Hand-build input with known matches.
	w, _ := fs.Create("/in", "n0")
	for i := 0; i < 8; i++ {
		content := fmt.Sprintf("d%06d nothing here", i)
		if i%4 == 0 {
			content = fmt.Sprintf("d%06d has %s inside", i, GrepPattern)
		}
		line, _ := padLine(content)
		w.Write(line)
	}
	w.Close()
	res, err := c.Run(Grep().Job("/in", "/out", 1))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open(res.OutputFiles[0], "")
	out, _ := io.ReadAll(r)
	want := GrepPattern + "\t2\n"
	if string(out) != want {
		t.Fatalf("grep output = %q, want %q", out, want)
	}
}

// poisonReader holds RecordReader's borrowed-slice contract against the
// map functions: it hands out copies of the wrapped reader's records and
// overwrites the previous copy before it returns the next, as a reader
// that reuses one buffer may.
type poisonReader struct {
	inner      mapred.RecordReader
	key, value []byte
}

func (p *poisonReader) Next() ([]byte, []byte, error) {
	for i := range p.key {
		p.key[i] = 0xAA
	}
	for i := range p.value {
		p.value[i] = 0xAA
	}
	k, v, err := p.inner.Next()
	if err != nil {
		return nil, nil, err
	}
	p.key, p.value = append(p.key[:0], k...), append(p.value[:0], v...)
	return p.key, p.value, nil
}

func poisoned(format mapred.InputFormat) mapred.InputFormat {
	if format == nil {
		format = mapred.LineInput
	}
	return func(r io.Reader) mapred.RecordReader { return &poisonReader{inner: format(r)} }
}

// TestNoMapFunctionKeepsABorrowedRecord runs every job of the package,
// TeraValidate included, twice over one input: as it is, and under a
// reader that destroys each record when the next is read. A map function
// that kept a key or value past its call, or an engine path that held an
// emitted slice without copying it, changes the second output. The
// programs under examples/ run these same jobs; the one map function they
// add (faulttolerance wraps WordCount's to inject faults) is the last
// case.
func TestNoMapFunctionKeepsABorrowedRecord(t *testing.T) {
	for _, tc := range jobCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, tc.block)
			c := newEngine(t, fs)
			if err := tc.generate(fs); err != nil {
				t.Fatal(err)
			}
			plain, poison := runForOutput(t, fs, c, tc.job("/out-plain")), runForOutput(t, fs, c, poisonedInput(tc.job("/out-poison")))
			if plain == "" && tc.name != "Grep" {
				t.Fatal("the job wrote nothing")
			}
			if plain != poison {
				t.Fatalf("output changes when records are overwritten after the next read:\n%.300q\nvs\n%.300q", plain, poison)
			}
		})
	}
}

// TestNoReducerReadsASegmentItGaveBack runs the same jobs over JBS — whose
// fetched segments sit in pooled leases lent until the reduce attempt ends,
// and which this package's TestMain has overwrite every lease the moment
// it is released — and over the HTTP baseline, whose segments are plain
// heap slices. A merge, reduce or output path that read a segment after
// Fetcher.Release would make the two differ (or fail to decode).
func TestNoReducerReadsASegmentItGaveBack(t *testing.T) {
	for _, tc := range jobCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, tc.block)
			if err := tc.generate(fs); err != nil {
				t.Fatal(err)
			}
			before := bufpool.Default().Outstanding()
			t.Cleanup(func() { // registered first: runs once both engines are closed
				if after := bufpool.Default().Outstanding(); after != before {
					t.Errorf("%d leases outstanding after the engines closed, %d before the jobs", after, before)
				}
			})
			leased := runForOutput(t, fs, newEngine(t, fs), tc.job("/out-jbs"))
			copied := runForOutput(t, fs, newEngineOn(t, fs, shuffle.NewHTTPProvider(shuffle.HTTPConfig{})), tc.job("/out-http"))
			if leased != copied {
				t.Fatalf("output over lent segments differs from output over copied ones:\n%.300q\nvs\n%.300q", leased, copied)
			}
		})
	}
}

// jobCase is one job of the package at a size a test can run.
type jobCase struct {
	name     string
	generate func(fs *dfs.Cluster) error
	job      func(output string) *mapred.Job
	block    int64
}

// jobCases lists every job of the package, TeraValidate included, plus the
// one shape the programs under examples/ add to them.
func jobCases() []jobCase {
	var cases []jobCase
	for _, b := range All() {
		b := b
		block := int64(16 * LineWidth)
		if b.Name == "Terasort" {
			block = 16 * TeraRecordLen
		}
		cases = append(cases, jobCase{
			name:     b.Name,
			generate: func(fs *dfs.Cluster) error { return b.Generate(fs, "/in", "n0", 200, 5) },
			job:      func(output string) *mapred.Job { return b.Job("/in", output, 3) },
			block:    block,
		})
	}
	cases = append(cases, jobCase{
		name: "TeraValidate",
		generate: func(fs *dfs.Cluster) error {
			w, err := fs.Create("/in", "n0")
			if err != nil {
				return err
			}
			for _, k := range []string{"b", "a", "c", "c", "a"} { // two pairs out of order
				fmt.Fprintf(w, "%s\tpayload\n", k)
			}
			return w.Close()
		},
		job:   func(output string) *mapred.Job { return TeraValidate("/in", output, 1) },
		block: 1 << 10,
	}, jobCase{
		name:     "WordCount-wrapped",
		generate: func(fs *dfs.Cluster) error { return TextCorpus(fs, "/in", "n0", 200, 25, 3) },
		job: func(output string) *mapred.Job {
			job := WordCount().Job("/in", output, 2)
			inner := job.Map
			job.Map = func(k, v []byte, emit mapred.Emit) error { return inner(k, v, emit) }
			return job
		},
		block: 16 * LineWidth,
	})
	return cases
}

// poisonedInput makes job read its input through poisonReader.
func poisonedInput(job *mapred.Job) *mapred.Job {
	job.InputFormat = poisoned(job.InputFormat)
	return job
}

// runForOutput runs job on c and returns its output files, concatenated.
func runForOutput(t *testing.T, fs *dfs.Cluster, c *mapred.Cluster, job *mapred.Job) string {
	t.Helper()
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, p := range res.OutputFiles {
		r, err := fs.Open(p, "")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(data)
	}
	return sb.String()
}

// TestWordSplittingMatchesStringsFields checks the in-place field walk of
// the word-counting map functions against strings.Fields, on ASCII and
// Unicode white space.
func TestWordSplittingMatchesStringsFields(t *testing.T) {
	nbsp, emSpace, nextLine := string(rune(0xA0)), string(rune(0x2003)), string(rune(0x85))
	for _, line := range []string{
		"", " ", "one", "  lead and  trail \t", "tabs\tand\nnewlines\r\n", "d000001 w00003 w00001      ",
		"unicode" + nbsp + "space" + emSpace + "here", emSpace + "x" + nextLine + "y",
	} {
		var got []string
		for w, rest := nextField([]byte(line)); len(w) > 0; w, rest = nextField(rest) {
			got = append(got, string(w))
		}
		if want := strings.Fields(line); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("fields of %q = %q, want %q", line, got, want)
		}
	}
}

// TestWriteLinesFailureLeavesNoBlocks: a generator that fails after more
// than one block has reached the datanodes leaves nothing behind — no
// block replica and no reserved name — so the path can be written again.
func TestWriteLinesFailureLeavesNoBlocks(t *testing.T) {
	root := t.TempDir()
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: 8 * LineWidth, Replication: 1}, []string{"n0", "n1"}, root)
	if err != nil {
		t.Fatal(err)
	}
	// Past the writer's 256 KiB buffer, so whole blocks are flushed first.
	const failAt = 5000
	errGen := errors.New("generator failed")
	err = writeLines(fs, "/text", "n0", failAt+10, func(i int) (string, error) {
		if i == failAt {
			return "", errGen
		}
		return fmt.Sprintf("line %d", i), nil
	})
	if !errors.Is(err, errGen) {
		t.Fatalf("writeLines = %v, want the generator's error", err)
	}
	blocks, err := filepath.Glob(filepath.Join(root, "*", "blk_*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 0 {
		t.Errorf("%d block replicas left behind by the failed write", len(blocks))
	}
	if err := TextCorpus(fs, "/text", "n0", 5, 100, 1); err != nil {
		t.Errorf("path not writable again after the failed write: %v", err)
	}
}
