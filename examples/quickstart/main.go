// Command quickstart runs a WordCount job on the in-process MapReduce engine with
// JVM-Bypass Shuffling over TCP — real input files, a real DFS, real
// shuffle traffic — in under a second.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

func main() {
	root, err := os.MkdirTemp("", "jbs-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// 1. A three-node DFS with small blocks so several MapTasks spawn.
	nodes := []string{"node00", "node01", "node02"}
	fs, err := dfs.NewCluster(dfs.Config{
		BlockSize:   16 * workload.LineWidth,
		Replication: 1,
	}, nodes, root+"/dfs")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Generate a synthetic text corpus (block-aligned lines).
	if err := workload.TextCorpus(fs, "/input", "node00", 200, 30, 1); err != nil {
		log.Fatal(err)
	}

	// 3. A compute cluster wired to the JBS shuffle plugin.
	provider, err := shuffle.NewJBSProvider(shuffle.JBSConfig{Transport: "tcp"})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := mapred.NewCluster(mapred.Config{
		Nodes:   nodes,
		WorkDir: root + "/work",
	}, fs, provider)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// 4. Run WordCount (with its combiner) across 3 reducers.
	job := workload.WordCount().Job("/input", "/out", 3)
	res, err := engine.Run(job)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("job %q finished with shuffle %q\n", res.Job, res.Shuffle)
	fmt.Printf("  %d map tasks, %d reduce tasks\n", res.Counters.MapTasks, res.Counters.ReduceTasks)
	fmt.Printf("  combiner shrank %d records to %d\n", res.Counters.CombineInputs, res.Counters.CombineOutputs)
	fmt.Printf("  shuffled %d bytes in %d segments, %d spill events (JBS never spills)\n",
		res.Counters.ShuffledBytes, res.Counters.ShuffledSegments, res.Counters.SpillEvents)

	// 5. Read back the most frequent words.
	type wc struct {
		word  string
		count int
	}
	var counts []wc
	for _, p := range res.OutputFiles {
		r, err := fs.Open(p, "")
		if err != nil {
			log.Fatal(err)
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			parts := strings.SplitN(line, "\t", 2)
			if len(parts) != 2 {
				continue
			}
			var n int
			fmt.Sscanf(parts[1], "%d", &n)
			counts = append(counts, wc{parts[0], n})
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].count > counts[j].count })
	fmt.Println("  top words:")
	for i := 0; i < 5 && i < len(counts); i++ {
		fmt.Printf("    %-10s %d\n", counts[i].word, counts[i].count)
	}
}
