// Package repro ties the benchmark harness to `go test -bench`: one
// benchmark per table and figure of the paper's evaluation (printing the
// regenerated rows once), plus functional benchmarks that run the real
// engine on real sockets and files.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// printOnce prints each experiment's regenerated table a single time per
// test-binary run, however many benchmark iterations happen.
var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run()
	}
	if _, done := printOnce.LoadOrStore(id, true); !done {
		fmt.Println(rep)
	}
}

func BenchmarkTableI(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkFig2a(b *testing.B)    { runExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)    { runExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B)    { runExperiment(b, "fig2c") }
func BenchmarkFig7a(b *testing.B)    { runExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)    { runExperiment(b, "fig7b") }
func BenchmarkFig8(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9a(b *testing.B)    { runExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)    { runExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)    { runExperiment(b, "fig9c") }
func BenchmarkFig9d(b *testing.B)    { runExperiment(b, "fig9d") }
func BenchmarkFig10a(b *testing.B)   { runExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B)   { runExperiment(b, "fig10b") }
func BenchmarkFig10c(b *testing.B)   { runExperiment(b, "fig10c") }
func BenchmarkFig11(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12a(b *testing.B)   { runExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B)   { runExperiment(b, "fig12b") }
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkSimulator256GB measures the simulator itself at the largest
// evaluation point (useful when tuning the DES kernel).
func BenchmarkSimulator256GB(b *testing.B) {
	spec := cluster.DefaultSpec(cluster.TerasortWorkload(), 256<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := cluster.Simulate(spec, cluster.HadoopOnIPoIB)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.ExecutionTime, "sim-sec")
		}
	}
}

// functionalBench runs one real-engine job per iteration under the named
// provider.
func functionalBench(b *testing.B, providerName string) {
	b.Helper()
	cfg := bench.DefaultFunctionalConfig()
	cfg.Lines = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		providers, err := bench.FunctionalProviders()
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.RunFunctional(cfg, providers[providerName])
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.ShuffledBytes == 0 {
			b.Fatal("no shuffle traffic")
		}
	}
}

// BenchmarkFunctionalShuffleHTTP runs real Terasort with the stock Hadoop
// HTTP shuffle (real HTTP servlets, spill merger).
func BenchmarkFunctionalShuffleHTTP(b *testing.B) {
	functionalBench(b, "hadoop-http")
}

// BenchmarkFunctionalShuffleJBSTCP runs real Terasort with JBS over real
// TCP sockets (MOFSupplier + NetMerger + network-levitated merge).
func BenchmarkFunctionalShuffleJBSTCP(b *testing.B) { functionalBench(b, "jbs-tcp") }
