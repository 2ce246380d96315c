// Command jbsregistryd runs the JBS discovery/ownership registry: the
// process suppliers register with, heartbeat against, and mergers query
// for the shard→supplier ownership map. All state is in memory; on
// restart suppliers re-register within one heartbeat interval. See
// docs/DEPLOYMENT.md for the topology and the drain/handoff protocol.
//
// Usage:
//
//	jbsregistryd -addr :7400 -lease-ttl 3s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/debug"
	"repro/internal/registry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "registry listen address")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "supplier lease TTL; a supplier missing heartbeats this long is expired")
	sweep := flag.Duration("sweep", 0, "expired-lease sweep interval; 0 = lease-ttl/4")
	replicas := flag.Int("replicas", 1, "suppliers per shard (1 primary + N-1 backups); above 1 enables hedged fetching against replicas")
	debugAddr := flag.String("debug", "", "serve /debug/jbs endpoints on this address (e.g. localhost:6060)")
	quiet := flag.Bool("quiet", false, "suppress per-event membership logging")
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	s, err := registry.NewServer(registry.ServerConfig{
		Addr:          *addr,
		LeaseTTL:      *leaseTTL,
		SweepInterval: *sweep,
		Replicas:      *replicas,
		Log:           logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsregistryd:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		lis, err := debug.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jbsregistryd:", err)
			os.Exit(1)
		}
		defer lis.Close()
		fmt.Printf("jbsregistryd: debug at http://%s/debug/jbs\n", lis.Addr())
	}
	fmt.Printf("jbsregistryd: serving %d shards at %s (lease TTL %v)\n", s.RegistryState().Shards, s.Addr(), *leaseTTL)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("jbsregistryd: %v, shutting down\n", sig)
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "jbsregistryd:", err)
		os.Exit(1)
	}
}
