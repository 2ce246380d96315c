// Command jbsautoscalerd runs the elastic fleet controller: it polls
// the registry for supplier membership and each supplier's advertised
// /debug/jbs/flow endpoint for load signals (admission-ledger pressure,
// capacity-shed rate, DRR queue depth), sizes the fleet with a
// target-tracking policy on shed rate, and launches or retires local
// jbssupplierd processes to match. Retirement always goes through the supplier's own
// SIGTERM -> drain -> handoff path, so scaling down loses no fetch.
// On SIGTERM or SIGINT the controller stops its control loop, then
// retires every supplier it launched (gracefully) and exits 0. See
// docs/DEPLOYMENT.md.
//
// Usage:
//
//	jbsautoscalerd -registry 127.0.0.1:7400 -supplier-bin ./jbssupplierd \
//	    -mof-dir /data/mofs -max 4 -target-shed-rate 50
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

	"repro/internal/autoscale"
	"repro/internal/daemon"
	"repro/internal/debug"
	"repro/internal/flow"
	"repro/internal/registry"
)

func main() {
	registryAddr := flag.String("registry", "127.0.0.1:7400", "registry address to watch and register launched suppliers with")
	supplierBin := flag.String("supplier-bin", "", "path to the jbssupplierd binary to launch (required)")
	mofDir := flag.String("mof-dir", "", "MOF directory handed to every launched supplier (required)")
	maxFleet := flag.Int("max", 4, "maximum fleet size the controller will launch up to")
	interval := flag.Duration("interval", 500*time.Millisecond, "collect/decide tick interval")
	admitBytes := flag.Int64("admit-bytes", flow.DefaultAdmitBytes, "admission-ledger budget for launched suppliers; must be positive (the shed signal needs flow control)")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat interval for launched suppliers; 0 = daemon default")
	targetShed := flag.Float64("target-shed-rate", 50, "per-supplier capacity-shed rate (sheds/sec) the fleet is sized to hold")
	quietFor := flag.Duration("quiet-for", 2*time.Second, "how long signals must stay quiet before a scale-down")
	upCooldown := flag.Duration("up-cooldown", time.Second, "minimum gap between scale-ups")
	downCooldown := flag.Duration("down-cooldown", 2*time.Second, "minimum gap between scale-downs")
	launchGrace := flag.Duration("launch-grace", 5*time.Second, "how long a launched supplier may take to register before it is given up on")
	debugAddr := flag.String("debug", "", "serve /debug/jbs endpoints (incl. /debug/jbs/autoscale) on this address")
	quiet := flag.Bool("quiet", false, "suppress scale-event logging")
	flag.Parse()

	if *supplierBin == "" {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd: -supplier-bin is required")
		os.Exit(2)
	}
	if *mofDir == "" {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd: -mof-dir is required")
		os.Exit(2)
	}
	if *admitBytes <= 0 {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd: -admit-bytes must be positive")
		os.Exit(2)
	}
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	// Signals first: a SIGTERM racing startup must still retire whatever
	// was already launched.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	shedPolicy, err := autoscale.NewTargetTracking(autoscale.TargetTrackingConfig{
		TargetShedRate: *targetShed,
		QuietFor:       *quietFor,
		UpCooldown:     *upCooldown,
		DownCooldown:   *downCooldown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd:", err)
		os.Exit(2)
	}

	reg := registry.NewClient(*registryAddr)
	defer reg.Close()
	a, err := autoscale.New(autoscale.Config{
		Collector: &autoscale.FleetCollector{Registry: reg},
		Policy:    shedPolicy,
		Launcher: &autoscale.ExecLauncher{
			Binary:       *supplierBin,
			RegistryAddr: *registryAddr,
			MOFDir:       *mofDir,
			AdmitBytes:   *admitBytes,
			Heartbeat:    *heartbeat,
			Log:          logf,
		},
		Max:         *maxFleet,
		Interval:    *interval,
		LaunchGrace: *launchGrace,
		Log:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		lis, err := debug.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jbsautoscalerd:", err)
			os.Exit(1)
		}
		defer lis.Close()
		fmt.Printf("jbsautoscalerd: debug at http://%s/debug/jbs\n", lis.Addr())
	}
	a.Run()
	fmt.Printf("jbsautoscalerd: steering fleet [%d,%d] via %s\n", a.AutoscaleState().Min, *maxFleet, *registryAddr)

	sig := <-sigs
	fmt.Printf("jbsautoscalerd: %v, retiring managed fleet\n", sig)
	// Stop the control loop before retiring: a tick racing the drain
	// would see the fleet fall below minimum (retired suppliers are
	// already deregistered) and relaunch a supplier nobody ever retires.
	if err := a.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd:", err)
		os.Exit(1)
	}
	// Bound the whole shutdown, not one retirement: a wedged drain must
	// not leave the rest of the fleet running.
	ctx, cancel := context.WithTimeout(context.Background(), daemon.DrainTimeout)
	defer cancel()
	if err := a.RetireAll(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "jbsautoscalerd: retire:", err)
		os.Exit(1)
	}
	fmt.Println("jbsautoscalerd: fleet retired, exiting")
}
