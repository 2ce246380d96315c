// Command jbsmergerd runs one registry-addressed shuffle job: it
// fetches every segment of a tasks×parts MOF grid from whichever
// suppliers own the shards (no addresses are configured — ownership
// comes from the registry), optionally verifying each segment byte-for-
// byte against a local reference directory. Supplier churn mid-job —
// graceful drain or a kill — is absorbed by shed/retry rerouting; the
// job fails loudly on any lost or corrupt segment. See
// docs/DEPLOYMENT.md.
//
// Usage:
//
//	jbsmergerd -registry 127.0.0.1:7400 -tasks 8 -parts 4 -verify /data/mofs
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/daemon"
)

func main() {
	registryAddr := flag.String("registry", "127.0.0.1:7400", "registry address resolving shard ownership")
	tasks := flag.Int("tasks", 4, "map-task count of the fixture grid (m-00000 …)")
	parts := flag.Int("parts", 4, "partitions per map task")
	rounds := flag.Int("rounds", 1, "times to fetch the full grid (multi-round jobs give supplier churn a window)")
	verify := flag.String("verify", "", "MOF directory to verify every fetched segment against, byte for byte")
	retries := flag.Int("retries", 8, "fetch retries on connection failure before the job fails")
	resolverTTL := flag.Duration("resolver-ttl", 0, "ownership-map cache TTL; 0 = 200ms default")
	hedge := flag.Bool("hedge", false, "speculatively re-fetch slow segments from replica suppliers (needs a registry running -replicas > 1)")
	flag.Parse()

	cfg := daemon.MergerJobConfig{
		RegistryAddr: *registryAddr,
		Tasks:        *tasks,
		Parts:        *parts,
		Rounds:       *rounds,
		VerifyDir:    *verify,
		MaxRetries:   *retries,
		ResolverTTL:  *resolverTTL,
		Hedge:        *hedge,
		Progress: func(format string, args ...any) {
			fmt.Printf("jbsmergerd: "+format+"\n", args...)
		},
	}
	st, err := daemon.RunMergerJob(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsmergerd:", err)
		os.Exit(1)
	}
	verified := ""
	if *verify != "" {
		verified = ", all verified"
	}
	hedged := ""
	if *hedge {
		hedged = fmt.Sprintf(", %d hedges (%d wins, %d duplicate bytes)", st.Hedges, st.HedgeWins, st.DupBytes)
	}
	fmt.Printf("jbsmergerd: done: %d segments, %d bytes, %d retries, %d sheds, %d rerouted%s%s\n",
		st.Segments, st.Bytes, st.Retries, st.Sheds, st.Rerouted, hedged, verified)
}
