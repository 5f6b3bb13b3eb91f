package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/fleet"
	"jitomev/internal/obs"
	"jitomev/internal/ops"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
)

// fleetOpts gathers the -fleet flag values.
type fleetOpts struct {
	url        string
	id         string
	partitions int
	ckptDir    string
	ttl        time.Duration
	every      int
	page       int
	batch      int
	pageDelay  time.Duration
}

// runFleetReplica runs this process as one fleet member: coordinate
// through -url's /leasez, drain claimed partitions with the hardened
// transport, checkpoint into -ckpt-dir. Exits 0 when the whole fleet's
// plan is complete, 1 on a terminal replica error.
func runFleetReplica(opts fleetOpts, clock solana.Clock, transport collector.Transport, o *ops.Ops) {
	reg := o.Reg
	if opts.ckptDir == "" {
		fmt.Fprintln(os.Stderr, "collect: -fleet requires -ckpt-dir")
		os.Exit(1)
	}
	if err := os.MkdirAll(opts.ckptDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "collect:", err)
		os.Exit(1)
	}
	if opts.id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "replica"
		}
		opts.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	rep := fleet.NewReplica(fleet.ReplicaConfig{
		ID:              opts.id,
		Clock:           clock,
		Transport:       transport,
		Coord:           fleet.NewLeaseClient(opts.url),
		Partitions:      opts.partitions,
		PageLimit:       opts.page,
		DetailBatch:     opts.batch,
		LeaseTTL:        opts.ttl,
		CheckpointEvery: opts.every,
		CkptDir:         opts.ckptDir,
		PageDelay:       opts.pageDelay,
		Reg:             reg,
		Quality:         o.Quality,
	})
	fmt.Printf("fleet replica %q: coordinating via %s/leasez, checkpoints in %s\n",
		opts.id, opts.url, opts.ckptDir)
	if err := rep.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "collect: fleet:", err)
		os.Exit(1)
	}
	fmt.Printf("fleet complete: %.0f pages, %.0f records, %.0f checkpoints, %.0f partitions finished by this replica\n",
		reg.Value("fleet_replica_pages_total", "replica", opts.id),
		reg.Value("fleet_replica_records_total", "replica", opts.id),
		reg.Value("fleet_replica_checkpoints_total", "replica", opts.id),
		reg.Value("fleet_replica_partitions_completed_total", "replica", opts.id))
	fmt.Println()
	o.WriteSummary(os.Stdout)
}

// runMerge combines partition checkpoint snapshots into the canonical
// dataset at -save: explicit positional paths, or — with -ckpt-dir —
// the completed coordinator state fetched from -url names the accepted
// lineage of every partition.
func runMerge(url, save, ckptDir string, paths []string, reg *obs.Registry) {
	if save == "" {
		fmt.Fprintln(os.Stderr, "collect: -merge requires -save for the merged output")
		os.Exit(1)
	}
	var (
		merged *collector.Dataset
		stats  fleet.MergeStats
		err    error
	)
	switch {
	case len(paths) > 0:
		merged, stats, err = fleet.MergeFiles(paths, nil, reg)
	case ckptDir != "":
		var st fleet.State
		st, err = fleet.NewLeaseClient(url).State()
		if err != nil {
			fmt.Fprintln(os.Stderr, "collect: merge: coordinator state:", err)
			os.Exit(1)
		}
		merged, stats, err = fleet.MergeDir(st, ckptDir, nil, reg)
	default:
		err = errors.New("nothing to merge: pass snapshot paths, or -ckpt-dir with a coordinator at -url")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "collect: merge:", err)
		os.Exit(1)
	}
	n, err := snapshot.WriteFileAtomic(save, merged.Save)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collect: merge:", err)
		os.Exit(1)
	}
	fmt.Printf("merged %d inputs: %d records (%d cross-input duplicates dropped), %d details -> %s (%d bytes)\n",
		stats.Inputs, stats.Records, stats.Deduped, stats.Details, save, n)
}
