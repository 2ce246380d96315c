// Command jbsrun executes one MapReduce benchmark on the real engine —
// real input files, a real DFS, real shuffle traffic over real sockets —
// under a chosen shuffle provider. All nodes run inside this one process;
// for the multi-process deployment of the same engine (standalone
// supplier/merger daemons coordinated by a discovery registry) see
// jbsregistryd, jbssupplierd, jbsmergerd, and docs/DEPLOYMENT.md.
//
// Usage:
//
//	jbsrun -benchmark WordCount -shuffle hadoop-http -lines 5000
//	jbsrun -trace 10 -debug localhost:6060   # observability: see docs/OBSERVABILITY.md
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/debug"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

func main() {
	benchmark := flag.String("benchmark", "Terasort", "benchmark name (Terasort, WordCount, Grep, SelfJoin, InvertedIndex, SequenceCount, AdjacencyList)")
	shuffleName := flag.String("shuffle", "jbs-tcp", "shuffle provider: hadoop-http, jbs-tcp")
	lines := flag.Int("lines", 2000, "input records to generate")
	nodes := flag.Int("nodes", 3, "in-process node count")
	reducers := flag.Int("reducers", 4, "ReduceTask count")
	seed := flag.Int64("seed", 42, "input generator seed")
	showOutput := flag.Int("show", 5, "output lines to print")
	compress := flag.Bool("compress", false, "compress map outputs (mapred.compress.map.output)")
	sortMem := flag.Int64("sortmem", 0, "map-side sort buffer bytes; 0 = unbounded (io.sort.mb)")
	retries := flag.Int("retries", 0, "JBS fetch retries on connection failure")
	debugAddr := flag.String("debug", "", "serve /debug/jbs endpoints on this address and stay up after the run (e.g. localhost:6060)")
	traceN := flag.Int("trace", 0, "record per-segment fetch traces and print the N slowest")
	flag.Parse()

	if _, err := workload.ByName(*benchmark); err != nil {
		fmt.Fprintln(os.Stderr, "jbsrun:", err)
		os.Exit(2)
	}
	provider, err := newProvider(*shuffleName, *retries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsrun:", err)
		os.Exit(2)
	}

	var debugLis net.Listener
	if *debugAddr != "" {
		debugLis, err = debug.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jbsrun:", err)
			os.Exit(1)
		}
		fmt.Printf("debug: serving http://%s/debug/jbs\n", debugLis.Addr())
	}
	if *traceN > 0 {
		metrics.DefaultTracer().Enable()
	}

	res, err := bench.RunFunctional(bench.FunctionalConfig{
		Benchmark:   *benchmark,
		Lines:       *lines,
		Nodes:       *nodes,
		Reducers:    *reducers,
		Seed:        *seed,
		CompressMOF: *compress,
		SortMemory:  *sortMem,
	}, provider)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsrun:", err)
		os.Exit(1)
	}

	c := res.Counters
	fmt.Printf("%s on %s: %s\n", *benchmark, res.Provider, res.Elapsed.Round(1e6))
	fmt.Printf("  map tasks        %d (%d local, %d remote)\n", c.MapTasks, c.LocalMapTasks, c.RemoteMapTasks)
	fmt.Printf("  map records      %d in, %d out\n", c.MapInputRecords, c.MapOutputRecords)
	if c.CombineInputs > 0 {
		fmt.Printf("  combine          %d -> %d records\n", c.CombineInputs, c.CombineOutputs)
	}
	fmt.Printf("  shuffle          %d segments, %d bytes\n", c.ShuffledSegments, c.ShuffledBytes)
	fmt.Printf("  spills           %d events, %d bytes\n", c.SpillEvents, c.SpilledBytes)
	fmt.Printf("  reduce           %d tasks, %d groups, %d output records\n", c.ReduceTasks, c.ReduceGroups, c.OutputRecords)
	if !res.Phases.Zero() {
		fmt.Printf("  phase breakdown (shuffle data path):\n%s", res.Phases.Format("    "))
	}
	if *traceN > 0 {
		slowest := metrics.DefaultTracer().Slowest(*traceN)
		fmt.Printf("  slowest %d fetch traces:\n", len(slowest))
		for _, tr := range slowest {
			fmt.Printf("    %s\n", tr)
		}
	}
	if *showOutput > 0 {
		outLines := strings.Split(strings.TrimSpace(res.Output), "\n")
		n := *showOutput
		if n > len(outLines) {
			n = len(outLines)
		}
		fmt.Printf("  first %d output lines:\n", n)
		for _, l := range outLines[:n] {
			fmt.Printf("    %s\n", l)
		}
	}
	if debugLis != nil {
		fmt.Printf("debug: run complete; still serving http://%s/debug/jbs (Ctrl-C to exit)\n", debugLis.Addr())
		select {}
	}
}

// newProvider builds the shuffle provider -shuffle names.
func newProvider(name string, retries int) (mapred.ShuffleProvider, error) {
	switch name {
	case "hadoop-http":
		return shuffle.NewHTTPProvider(shuffle.HTTPConfig{ShuffleMemory: 4 << 10}), nil
	case "jbs-tcp":
		return shuffle.NewJBSProvider(shuffle.JBSConfig{FetchRetries: retries})
	}
	return nil, fmt.Errorf("unknown shuffle %q (want hadoop-http or jbs-tcp)", name)
}
