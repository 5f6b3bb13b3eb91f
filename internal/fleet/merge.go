package fleet

import (
	"fmt"
	"os"
	"sort"

	"jitomev/internal/collector"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
)

// MergeStats summarizes one merge.
type MergeStats struct {
	// Inputs is how many partition datasets went in.
	Inputs int `json:"inputs"`
	// Records is the merged (deduplicated) record count.
	Records uint64 `json:"records"`
	// Deduped counts records dropped as bundle-id duplicates across
	// inputs — resume overlaps, duplicate-fault pages, double-fetched
	// partition boundaries. Zero on a clean single-replica run.
	Deduped uint64 `json:"deduped"`
	// Details is how many transaction details the merged dataset
	// retains.
	Details uint64 `json:"details"`
}

// Merge rebuilds the canonical dataset from partition captures: the
// bundle-id-deduplicated, sequence-sorted union of every input's
// records is re-ingested into a fresh dataset under the paper's retain
// economy (length 3 plus detailLengths), and the retained records'
// details are copied over.
//
// Rebuilding — rather than summing the inputs' aggregates — is what
// makes the merge chaos-proof: any duplication between inputs (crash
// resume overlap, duplicate-fault pages, boundary refetches) drops out
// in the id dedup, and any ingest-order skew drops out in the sequence
// sort. The result is byte-identical (snapshot Save bytes) to a
// single collector ingesting the same backlog in acceptance order, at
// any replica count and under any fault schedule that did not lose
// data outright.
func Merge(parts []*collector.Dataset, detailLengths []int, reg *obs.Registry) (*collector.Dataset, MergeStats, error) {
	stats := MergeStats{Inputs: len(parts)}
	if len(parts) == 0 {
		return nil, stats, fmt.Errorf("fleet: merge of zero inputs")
	}
	genesis := parts[0].Clock.Genesis
	for i, p := range parts {
		if !p.Clock.Genesis.Equal(genesis) {
			return nil, stats, fmt.Errorf("fleet: merge input %d has genesis %s, input 0 has %s — different studies",
				i, p.Clock.Genesis, genesis)
		}
	}

	seen := make(map[jito.BundleID]struct{})
	var all []jito.BundleRecord
	gather := func(recs []jito.BundleRecord) {
		for i := range recs {
			if _, dup := seen[recs[i].ID]; dup {
				stats.Deduped++
				continue
			}
			seen[recs[i].ID] = struct{}{}
			all = append(all, recs[i])
		}
	}
	for _, p := range parts {
		gather(p.Len3)
		gather(p.Long)
	}
	// Acceptance sequence is the chain order a single collector would
	// have ingested in; ids are unique per sequence, so the sort is
	// total and the rebuild deterministic.
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })

	out := collector.NewDataset(parts[0].Clock, 64)
	out.RetainLengths(detailLengths...)
	retained := map[int]bool{3: true}
	for _, n := range detailLengths {
		retained[n] = true
	}
	for i := range all {
		out.Ingest(all[i])
		if !retained[all[i].NumTxs()] {
			continue
		}
		for _, id := range all[i].TxIDs {
			if _, ok := out.Details[id]; ok {
				continue
			}
			for _, p := range parts {
				if d, ok := p.Details[id]; ok {
					out.Details[id] = d
					break
				}
			}
		}
	}
	stats.Records = out.Collected
	stats.Details = uint64(len(out.Details))
	if reg != nil {
		reg.Volatile("fleet_merge_inputs", "fleet_merge_records_total",
			"fleet_merge_dedup_total", "fleet_merge_details_total")
		reg.Help("fleet_merge_dedup_total", "Cross-input duplicate records dropped by the merge.")
		reg.Counter("fleet_merge_inputs").Add(uint64(stats.Inputs))
		reg.Counter("fleet_merge_records_total").Add(stats.Records)
		reg.Counter("fleet_merge_dedup_total").Add(stats.Deduped)
		reg.Counter("fleet_merge_details_total").Add(stats.Details)
	}
	return out, stats, nil
}

// MergeFiles merges partition checkpoint snapshots read from paths.
func MergeFiles(paths []string, detailLengths []int, reg *obs.Registry) (*collector.Dataset, MergeStats, error) {
	parts := make([]*collector.Dataset, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, MergeStats{}, fmt.Errorf("fleet: merge: %w", err)
		}
		ds, lerr := collector.LoadDatasetObs(f, 64, 0, reg)
		f.Close()
		if lerr != nil {
			return nil, MergeStats{}, fmt.Errorf("fleet: merge %s: %w", path, lerr)
		}
		parts = append(parts, ds)
	}
	return Merge(parts, detailLengths, reg)
}

// MergeDir merges a completed fleet's output from its coordinator
// state: every partition must be done, and each contributes the
// checkpoint snapshot named by its recorded (partition, ckpt-epoch)
// pair — the fencing discipline guarantees that file is the accepted
// lineage even when stale holders wrote others.
func MergeDir(st State, dir string, detailLengths []int, reg *obs.Registry) (*collector.Dataset, MergeStats, error) {
	paths := make([]string, 0, len(st.Leases))
	for i := range st.Leases {
		l := &st.Leases[i]
		if !l.Done {
			return nil, MergeStats{}, fmt.Errorf("fleet: merge: partition %d not complete (holder %q, cursor %d)",
				l.Partition.ID, l.Holder, l.Cursor)
		}
		paths = append(paths, CheckpointPath(dir, l.Partition.ID, l.CkptEpoch))
	}
	return MergeFiles(paths, detailLengths, reg)
}
