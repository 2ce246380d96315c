// Command jbssupplierd runs one standalone MOF supplier: it serves the
// MOFs in -mof-dir over the JBS fetch protocol, registers with the
// registry under a stable identity, and heartbeats to keep its lease.
// On SIGTERM or SIGINT it exits gracefully — shard ownership is handed
// to a peer, new fetches are shed (the merger reroutes them), in-flight
// fetches complete, and only then does the process exit 0 — so rolling
// a supplier loses no data. See docs/DEPLOYMENT.md.
//
// Usage:
//
//	jbssupplierd -registry 127.0.0.1:7400 -addr :7501 -id sup-1 -mof-dir /data/mofs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/debug"
	"repro/internal/flow"
)

func main() {
	registryAddr := flag.String("registry", "127.0.0.1:7400", "registry address to register with")
	addr := flag.String("addr", "127.0.0.1:0", "fetch listen address (:0 for ephemeral)")
	id := flag.String("id", "", "stable registry identity; reuse it across restarts (default sup-<addr>)")
	mofDir := flag.String("mof-dir", "", "directory of MOFs to serve (<task>.data/<task>.index)")
	admitBytes := flag.Int64("admit-bytes", 0, "enable flow control with this admission-ledger budget; 0 = flow off")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "registry heartbeat interval (keep well under the registry's lease TTL)")
	debugAddr := flag.String("debug", "", "serve /debug/jbs endpoints on this address (e.g. localhost:6061)")
	quiet := flag.Bool("quiet", false, "suppress lifecycle logging")
	flag.Parse()

	if *mofDir == "" {
		fmt.Fprintln(os.Stderr, "jbssupplierd: -mof-dir is required")
		os.Exit(2)
	}
	// Zero is flow off; any other value goes to flow.Config, which
	// refuses a negative budget by name.
	var fc *flow.Config
	if *admitBytes != 0 {
		fc = &flow.Config{AdmitBytes: *admitBytes}
	}
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	// Catch signals before startup: a SIGTERM racing the registry
	// handshake must still produce a graceful drain, not a default kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	// The debug listener starts before the daemon so its bound address
	// can ride the registration: the autoscaler's collector discovers
	// suppliers through the registry and polls each one's advertised
	// /debug/jbs/flow endpoint for scaling signals.
	advertiseDebug := ""
	if *debugAddr != "" {
		lis, err := debug.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jbssupplierd:", err)
			os.Exit(1)
		}
		defer lis.Close()
		advertiseDebug = lis.Addr().String()
		fmt.Printf("jbssupplierd: debug at http://%s/debug/jbs\n", advertiseDebug)
	}
	d, err := daemon.StartSupplier(daemon.SupplierConfig{
		ID:                *id,
		Addr:              *addr,
		RegistryAddr:      *registryAddr,
		MOFDir:            *mofDir,
		Flow:              fc,
		HeartbeatInterval: *heartbeat,
		DebugAddr:         advertiseDebug,
		Log:               logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbssupplierd:", err)
		os.Exit(1)
	}
	fmt.Printf("jbssupplierd: %s serving %s at %s\n", d.ID(), *mofDir, d.Addr())

	sig := <-sigs
	fmt.Printf("jbssupplierd: %v, draining\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), daemon.DrainTimeout)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "jbssupplierd: drain:", err)
		d.Close()
		os.Exit(1)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "jbssupplierd:", err)
		os.Exit(1)
	}
	fmt.Println("jbssupplierd: drained, exiting")
}
