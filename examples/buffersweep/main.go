// Command buffersweep runs the Fig. 11 experiment at both scales: it
// sweeps the JBS transport buffer size on the real engine (real sockets
// moving real segments) and on the simulated 22-node testbed.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/shuffle"
	"repro/internal/transport"
)

func main() {
	fmt.Println("Real engine: Terasort, 2000 records, JBS over TCP")
	fmt.Printf("%-12s %s\n", "buffer", "wall time")
	for _, kb := range []int{2, 8, 32, 128} {
		prov, err := shuffle.NewJBSProvider(shuffle.JBSConfig{
			Transport: "tcp",
			Net: transport.Config{
				BufferSize:     kb << 10,
				MaxConnections: transport.DefaultMaxConnections,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := bench.DefaultFunctionalConfig()
		res, err := bench.RunFunctional(cfg, prov)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d KB    %s\n", kb, res.Elapsed.Round(time.Millisecond))
	}

	fmt.Println("\nSimulated testbed: 128GB Terasort on 22 nodes (paper Fig. 11)")
	fmt.Printf("%-12s %-14s %-14s %s\n", "buffer", "JBS on IPoIB", "JBS on RDMA", "JBS on RoCE")
	for _, kb := range []int{8, 16, 32, 64, 128, 256, 512} {
		spec := cluster.DefaultSpec(cluster.TerasortWorkload(), 128<<30)
		spec.BufferSize = kb << 10
		row := fmt.Sprintf("%6d KB  ", kb)
		for _, tc := range []cluster.TestCase{cluster.JBSOnIPoIB, cluster.JBSOnRDMA, cluster.JBSOnRoCE} {
			r, err := cluster.Simulate(spec, tc)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("  %8.1f s  ", r.ExecutionTime)
		}
		fmt.Println(row)
	}
	fmt.Println("\nThe paper selects 128KB as the default: large enough to amortize")
	fmt.Println("per-request overheads, small enough to keep the buffer pool deep.")
}
