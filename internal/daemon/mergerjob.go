package daemon

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/mof"
	"repro/internal/registry"
	"repro/internal/transport"
)

// MergerJobConfig configures one registry-addressed shuffle job.
type MergerJobConfig struct {
	// RegistryAddr is the registry resolving shard ownership.
	RegistryAddr string
	// Tasks and Parts describe the fixture grid: map tasks m-00000 …
	// m-<Tasks-1>, partitions 0 … Parts-1, every segment fetched once
	// per round.
	Tasks, Parts int
	// Rounds repeats the full fetch grid; multi-round jobs give
	// mid-job supplier churn a window to land in.
	Rounds int
	// VerifyDir, when set, is the MOF directory to verify every fetched
	// segment against, byte for byte (the in-process reference).
	VerifyDir string
	// MaxRetries and ResolverTTL pass through to the merger.
	MaxRetries  int
	ResolverTTL time.Duration
	// Hedge arms the merger's speculative-fetch controller, disarmed
	// until a node has enough RTT samples for its threshold. Replica
	// sets come from the registry (ResolveReplicas), so it only pays
	// off when the registry runs with a replica count above 1 — with
	// single placement no hedge finds a distinct replica to race.
	Hedge bool
	// Progress, when set, receives one line per round — the hook the
	// multi-process chaos driver keys its kill timing off.
	Progress func(format string, args ...any)
}

// JobStats summarizes a completed merger job.
type JobStats struct {
	Segments  int64 // segments delivered
	Bytes     int64 // payload bytes delivered
	Retries   int64 // merger retry count (connection failures)
	Sheds     int64 // shed responses observed (drain or overload)
	Rerouted  int64 // fetches that followed an ownership handoff
	Errors    int64 // fetches that surfaced an error
	Hedges    int64 // speculative duplicate fetches launched
	HedgeWins int64 // fetches won by the speculative attempt
	DupBytes  int64 // duplicate payload bytes — the hedging cost
}

// RunMergerJob fetches the full task×partition grid for each round,
// resolving every fetch through the registry (specs carry no address),
// optionally verifying payloads against a local MOF reference. It
// returns an error on the first lost or corrupt segment — the job is
// the acceptance check for lossless supplier churn.
func RunMergerJob(cfg MergerJobConfig) (JobStats, error) {
	var st JobStats
	if cfg.RegistryAddr == "" {
		return st, fmt.Errorf("daemon: merger job needs a registry address")
	}
	if cfg.Tasks <= 0 || cfg.Parts <= 0 {
		return st, fmt.Errorf("daemon: merger job needs positive tasks (%d) and parts (%d)", cfg.Tasks, cfg.Parts)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	rc := registry.NewClient(cfg.RegistryAddr)
	defer rc.Close()
	resolver := registry.NewResolver(rc, cfg.ResolverTTL)
	// Replicas is wired whether or not the job hedges: a retry after a
	// failure rotates through the shard's replica set, so a dead
	// primary whose lease has not yet expired costs one attempt, not
	// the retry budget. With single placement the set is the owner
	// alone, and a retry goes where the Resolver would send it.
	mc := core.MergerConfig{
		Transport:  transport.NewTCP(),
		MaxRetries: cfg.MaxRetries,
		Resolver: func(spec core.FetchSpec) (string, error) {
			return resolver.Resolve(spec.MapTask)
		},
		Replicas: func(spec core.FetchSpec) []string {
			set, err := resolver.ResolveReplicas(spec.MapTask)
			if err != nil {
				return nil // no replicas known: retry in place, launch no hedge
			}
			return set
		},
	}
	if cfg.Hedge {
		mc.Hedge = &flow.HedgeConfig{}
	}
	m, err := core.NewNetMerger(mc)
	if err != nil {
		return st, err
	}
	defer m.Close()

	var reference map[core.FetchSpec][]byte
	if cfg.VerifyDir != "" {
		if reference, err = LoadReference(cfg.VerifyDir, cfg.Tasks, cfg.Parts); err != nil {
			return st, err
		}
	}

	specs := make([]core.FetchSpec, 0, cfg.Tasks*cfg.Parts)
	for ti := 0; ti < cfg.Tasks; ti++ {
		for p := 0; p < cfg.Parts; p++ {
			specs = append(specs, core.FetchSpec{MapTask: fmt.Sprintf("m-%05d", ti), Partition: p})
		}
	}
	for round := 0; round < cfg.Rounds; round++ {
		// data is lent until this callback returns (NetMerger.Fetch): it is
		// compared here, never kept.
		err := m.Fetch(specs, func(spec core.FetchSpec, data []byte) error {
			if reference != nil {
				want := reference[core.FetchSpec{MapTask: spec.MapTask, Partition: spec.Partition}]
				if !bytes.Equal(data, want) {
					return fmt.Errorf("daemon: segment %s/%d: got %d bytes, want %d (corrupt)",
						spec.MapTask, spec.Partition, len(data), len(want))
				}
			}
			st.Segments++
			st.Bytes += int64(len(data))
			return nil
		})
		ms := m.Stats()
		st.Retries, st.Sheds, st.Rerouted, st.Errors = ms.Retries, ms.Sheds, ms.Rerouted, ms.Errors
		st.Hedges, st.HedgeWins, st.DupBytes = ms.Hedges, ms.HedgeWins, ms.HedgeDupBytes
		if err != nil {
			return st, fmt.Errorf("daemon: round %d: %w", round, err)
		}
		if cfg.Progress != nil {
			cfg.Progress("round %d ok (%d segments, %d bytes, %d sheds, %d rerouted)",
				round, st.Segments, st.Bytes, st.Sheds, st.Rerouted)
		}
	}
	return st, nil
}

// LoadReference reads every segment of the fixture grid in dir from
// disk, keyed by its address-free fetch spec: the byte-identity
// reference a verifying job compares fetched segments against.
func LoadReference(dir string, tasks, parts int) (map[core.FetchSpec][]byte, error) {
	ref := make(map[core.FetchSpec][]byte, tasks*parts)
	for ti := 0; ti < tasks; ti++ {
		task := fmt.Sprintf("m-%05d", ti)
		dataPath := filepath.Join(dir, task+".data")
		ix, err := mof.ReadIndex(filepath.Join(dir, task+".index"))
		if err != nil {
			return nil, fmt.Errorf("daemon: verify reference: %w", err)
		}
		for p := 0; p < parts; p++ {
			e, err := ix.Entry(p)
			if err != nil {
				return nil, err
			}
			seg, err := mof.ReadSegmentBytes(dataPath, e)
			if err != nil {
				return nil, err
			}
			ref[core.FetchSpec{MapTask: task, Partition: p}] = seg
		}
	}
	return ref, nil
}
