// Command jbsbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	jbsbench -list                 # show available experiments
//	jbsbench fig7a fig11           # run selected experiments
//	jbsbench all                   # run every table and figure
//	jbsbench functional            # run the real-engine comparison
//	jbsbench overload              # run the multi-tenant flow-control scenario
//	jbsbench hedge                 # hedged fetching tail-latency comparison
//	jbsbench multiproc             # real daemon processes, SIGKILL + restart mid-job
//	jbsbench elastic               # autoscaled supplier fleet under seeded overload
//	jbsbench -dir d mof-fixture    # write a deterministic MOF grid for the daemons
//	jbsbench -csv out/ all         # also write per-experiment CSV files
//	jbsbench -metrics functional   # also dump the metrics registry after the runs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/metrics"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	short := flag.Bool("short", false, "multiproc: small smoke configuration (CI)")
	lines := flag.Int("lines", 2000, "input records for the functional run")
	fixtureDir := flag.String("dir", "", "mof-fixture: directory to write the MOF grid into")
	fixtureTasks := flag.Int("fixture-tasks", 4, "mof-fixture: map-task count")
	fixtureParts := flag.Int("fixture-parts", 4, "mof-fixture: partitions per map task")
	segBytes := flag.Int("seg-bytes", 64<<10, "mof-fixture: payload bytes per segment")
	seed := flag.Uint64("seed", 42, "mof-fixture: deterministic content seed")
	csvDir := flag.String("csv", "", "also write each experiment's rows as CSV into this directory")
	dumpMetrics := flag.Bool("metrics", false, "dump the full metrics registry (Prometheus text format) after all runs")
	flag.Parse()

	emit := func(rep *bench.Report) {
		fmt.Println(rep)
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "jbsbench:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, rep.ID+".csv")
		if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "jbsbench:", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-10s %s\n", "functional", "real-engine comparison on real sockets and files")
		fmt.Printf("%-10s %s\n", "overload", "multi-tenant overload: flow control vs unmanaged pipeline")
		fmt.Printf("%-10s %s\n", "hedge", "hedged fetching: tail latency and duplicate-byte cost, on vs off")
		fmt.Printf("%-10s %s\n", "multiproc", "multi-process shuffle: real daemons, SIGKILL + restart mid-job")
		fmt.Printf("%-10s %s\n", "elastic", "elastic fleet: autoscaler scales suppliers 1 -> 3 -> 1 under seeded overload")
		fmt.Printf("%-10s %s\n", "mof-fixture", "write a deterministic MOF grid for the standalone daemons (-dir)")
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: jbsbench [-list] <experiment-id ...|all|functional>")
		os.Exit(2)
	}
	for _, arg := range args {
		switch arg {
		case "all":
			for _, e := range bench.All() {
				emit(e.Run())
			}
		case "functional":
			cfg := bench.DefaultFunctionalConfig()
			cfg.Lines = *lines
			rep, err := bench.Functional(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(rep)
		case "overload":
			rep, err := bench.Overload(bench.DefaultOverloadConfig())
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(rep)
		case "hedge":
			rep, err := bench.HedgeTail(bench.DefaultHedgeTailConfig())
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(rep)
		case "multiproc":
			cfg := bench.DefaultMultiprocConfig()
			if *short {
				cfg = bench.ShortMultiprocConfig()
			}
			cfg.Log = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
			rep, err := bench.Multiproc(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(rep)
		case "elastic":
			cfg := bench.DefaultElasticConfig()
			if *short {
				cfg = bench.ShortElasticConfig()
			}
			cfg.Log = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
			rep, err := bench.Elastic(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(rep)
		case "mof-fixture":
			if *fixtureDir == "" {
				fmt.Fprintln(os.Stderr, "jbsbench: mof-fixture needs -dir")
				os.Exit(2)
			}
			if err := os.MkdirAll(*fixtureDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			if err := daemon.WriteFixture(*fixtureDir, *fixtureTasks, *fixtureParts, *segBytes, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			fmt.Printf("jbsbench: wrote %dx%d MOF grid (%d B segments, seed %d) to %s\n",
				*fixtureTasks, *fixtureParts, *segBytes, *seed, *fixtureDir)
		default:
			e, err := bench.ByID(arg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jbsbench:", err)
				os.Exit(1)
			}
			emit(e.Run())
		}
	}
	if *dumpMetrics {
		fmt.Println("== metrics registry ==")
		if err := metrics.Default().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "jbsbench:", err)
			os.Exit(1)
		}
	}
}
