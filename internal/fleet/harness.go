package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/solana"
)

// HarnessConfig shapes an in-process fleet run over a populated
// explorer store — the configuration the chaos acceptance test and
// `make fleet` drive.
type HarnessConfig struct {
	Store *explorer.Store
	Clock solana.Clock

	// Replicas is the fleet size; Partitions the plan size (defaults:
	// replicas, and replicas again for partitions — at least one
	// partition per member keeps everyone busy).
	Replicas   int
	Partitions int

	PageLimit       int
	DetailBatch     int
	CheckpointEvery int
	LeaseTTL        time.Duration
	// PageDelay paces every replica's page loop (see ReplicaConfig).
	PageDelay time.Duration
	// CkptDir holds the partition checkpoints (required).
	CkptDir string

	// DetailLengths is the merged dataset's retain economy beyond
	// length 3 (normally empty: the paper's economy).
	DetailLengths []int

	// FaultRate/ChaosSeed wrap every replica's transport in the
	// deterministic fault injector (replica i draws schedule seed+i).
	FaultRate float64
	ChaosSeed int64
	// ReplicaFaultRate/ReplicaChaosSeed draw the replica-level classes
	// (crash, partition) per replica from seed+i.
	ReplicaFaultRate float64
	ReplicaChaosSeed int64
	// CrashAfterPages kills specific replicas (by index) after that
	// many fetched pages — the deterministic mid-run kill.
	CrashAfterPages map[int]int

	// Reg receives every fleet_* tally (nil = private registry).
	Reg *obs.Registry
}

// HarnessResult is what a fleet run leaves behind.
type HarnessResult struct {
	// Merged is the canonical dataset rebuilt from the partition
	// checkpoints; Stats its merge accounting.
	Merged *collector.Dataset
	Stats  MergeStats
	// State is the final coordinator state (all partitions done).
	State State
	// Ledger aggregates every replica's coverage ledger — the fleet's
	// answer to the single collector's quality feed.
	Ledger quality.LedgerSummary
	// ReplicaErrs holds each replica's terminal status (nil = clean
	// exit; ErrCrashed = injected kill).
	ReplicaErrs []error
}

// Crashed counts replicas that died mid-run.
func (r *HarnessResult) Crashed() int {
	n := 0
	for _, err := range r.ReplicaErrs {
		if errors.Is(err, ErrCrashed) {
			n++
		}
	}
	return n
}

// RunFleet runs a whole fleet in-process: one shared LeaseTable, N
// replica goroutines over (optionally chaos-wrapped) Direct transports,
// then the merge over the completed coordinator state. It fails if the
// fleet could not finish every partition — e.g. when every replica was
// configured to crash.
func RunFleet(cfg HarnessConfig) (*HarnessResult, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = cfg.Replicas
	}
	if cfg.CkptDir == "" {
		return nil, fmt.Errorf("fleet: harness needs a checkpoint directory")
	}
	table := NewLeaseTable(cfg.Store.HighWater, cfg.Reg)

	sentinels := make([]*quality.Sentinel, cfg.Replicas)
	errs := make([]error, cfg.Replicas)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Replicas; i++ {
		var transport collector.Transport = collector.Direct{Store: cfg.Store}
		if cfg.FaultRate > 0 {
			transport = faults.WrapTransport(transport,
				faults.NewInjector(cfg.ChaosSeed+int64(i), cfg.FaultRate))
		}
		var chaos *faults.Injector
		if cfg.ReplicaFaultRate > 0 {
			chaos = faults.NewInjector(cfg.ReplicaChaosSeed+int64(i), cfg.ReplicaFaultRate)
		}
		sentinels[i] = quality.New(quality.Config{}, nil)
		rep := NewReplica(ReplicaConfig{
			ID:              fmt.Sprintf("replica-%d", i),
			Clock:           cfg.Clock,
			Transport:       transport,
			Coord:           table,
			Partitions:      cfg.Partitions,
			PageLimit:       cfg.PageLimit,
			DetailBatch:     cfg.DetailBatch,
			LeaseTTL:        cfg.LeaseTTL,
			CheckpointEvery: cfg.CheckpointEvery,
			CkptDir:         cfg.CkptDir,
			PageDelay:       cfg.PageDelay,
			Chaos:           chaos,
			CrashAfterPages: cfg.CrashAfterPages[i],
			Reg:             cfg.Reg,
			Quality:         sentinels[i],
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rep.Run()
		}(i)
	}
	wg.Wait()

	st, err := table.State()
	if err != nil {
		return nil, fmt.Errorf("fleet: final state: %w", err)
	}
	if !st.Done() {
		return nil, fmt.Errorf("fleet: incomplete after all replicas exited (errors: %v)", errs)
	}
	merged, stats, err := MergeDir(st, cfg.CkptDir, cfg.DetailLengths, cfg.Reg)
	if err != nil {
		return nil, err
	}
	summaries := make([]quality.LedgerSummary, len(sentinels))
	for i, s := range sentinels {
		summaries[i] = s.LedgerSummary()
	}
	return &HarnessResult{
		Merged:      merged,
		Stats:       stats,
		State:       st,
		Ledger:      quality.AggregateLedgers(summaries...),
		ReplicaErrs: errs,
	}, nil
}
