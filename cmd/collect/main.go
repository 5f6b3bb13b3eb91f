// Command collect scrapes a running explorerd the way the paper's
// collector scraped the Jito Explorer: poll the recent-bundles endpoint on
// a fixed cadence, dedup, track successive-page overlap, then bulk-fetch
// details for length-3 bundles.
//
// Usage:
//
//	collect [-url http://127.0.0.1:8899] [-polls 30] [-every 2s] [-page 500]
//	        [-save data.snap] [-checkpoint 10] [-resume]
//	        [-fault-rate 0.1 -chaos-seed 7]
//
// -every is wall-clock time between polls (the paper used two minutes; a
// live explorerd compresses simulated days, so seconds are appropriate).
// -save persists the dataset on exit; with -checkpoint N it is also
// checkpointed every N polls. Saves are atomic (temp file + rename), so
// an interrupted run never corrupts the previous checkpoint. -resume
// loads an existing -save snapshot before polling, so a restarted
// collection continues where it stopped — including the pending
// detail-fetch queue, which is re-derived from the loaded dataset.
//
// -fault-rate injects the deterministic fault taxonomy client-side
// (between the collector and the wire), for chaos-testing a collection
// run without touching the server.
//
// -fleet turns the process into one member of a distributed collection
// fleet: it claims acceptance-sequence partitions from the explorer's
// /leasez coordinator under a TTL lease (renewed every page, epoch-
// fenced after takeover), drains them backwards with the same hardened
// transport, and checkpoints each partition's snapshot plus cursor so a
// crashed replica's partition is resumed by a survivor from the last
// checkpoint. -merge then rebuilds the canonical dataset from the
// partition snapshots (bundle-id dedup + sequence sort), byte-identical
// to a single-collector run:
//
//	collect -fleet -url http://127.0.0.1:8899 -ckpt-dir ckpt [-replica-id r0]
//	        [-partitions 4] [-lease-ttl 2s] [-ckpt-every 4]
//	collect -merge -save merged.snap -url http://127.0.0.1:8899 -ckpt-dir ckpt
//	collect -merge -save merged.snap part-000.e1.snap part-001.e2.snap ...
//
// -metrics-addr serves the ops surface every long-running binary gets
// from internal/ops (/metrics, /statusz, /tracez, /qualityz, /sloz and
// one /healthz) while the collection runs, so a long scrape can be
// watched and alerted on live; its SLO engine watches poll
// availability, stream detection latency and fleet takeover latency.
// At exit the run summary prints the metrics, data-quality and SLO
// tables. -cpuprofile / -memprofile write runtime profiles of the run,
// in every mode.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/faults"
	"jitomev/internal/ops"
	"jitomev/internal/report"
	"jitomev/internal/slo"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/stream"
)

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8899", "explorer API base URL")
		polls     = flag.Int("polls", 30, "number of polls before finishing")
		every     = flag.Duration("every", 2*time.Second, "wall time between polls")
		page      = flag.Int("page", 500, "recent-bundles page size")
		batch     = flag.Int("batch", 10_000, "detail-fetch batch size")
		backfill  = flag.Int("backfill", 0, "backfill pages on broken overlap")
		save      = flag.String("save", "", "persist the collected dataset to this path")
		ckpt      = flag.Int("checkpoint", 0, "also checkpoint to -save every N polls (0 = only at exit)")
		resume    = flag.Bool("resume", false, "load the -save snapshot before polling, if it exists")
		faultRate = flag.Float64("fault-rate", 0, "per-call fault probability injected client-side (0 = off)")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed for the deterministic fault schedule")
		fleetMode = flag.Bool("fleet", false, "run as one fleet replica: claim lease-fenced partitions from -url's /leasez and drain them")
		replicaID = flag.String("replica-id", "", "fleet holder name (default host-pid)")
		partsN    = flag.Int("partitions", 4, "fleet partition count proposed to the coordinator (first replica wins)")
		ckptDir   = flag.String("ckpt-dir", "", "fleet partition checkpoint directory (required with -fleet)")
		leaseTTL  = flag.Duration("lease-ttl", 2*time.Second, "fleet lease TTL (renewed every page)")
		ckptEvery = flag.Int("ckpt-every", 4, "fleet: checkpoint every N pages")
		pageDelay = flag.Duration("page-delay", 0, "fleet: pace the page loop (stretches smoke runs so kills land mid-partition)")
		mergeMode = flag.Bool("merge", false, "merge partition snapshots into -save: positional paths, or -ckpt-dir plus the coordinator state at -url")
		streamDet = flag.Bool("stream-detect", false, "feed collected bundles through the incremental streaming detector (fetches details after every poll)")
		streamLag = flag.Int("stream-lag", 64, "streaming watermark lag in slots (how much slot reordering a poll page may carry)")
		opsFlags  ops.Flags
		profiles  ops.Profiles
	)
	opsFlags.Register(flag.CommandLine, true)
	profiles.Register(flag.CommandLine)
	flag.Parse()

	defer profiles.Start("collect")()
	o := ops.Start("collect", *chaosSeed, opsFlags, slo.CollectorObjectives)
	defer o.Close()
	reg, q := o.Reg, o.Quality

	clock := solana.Clock{Genesis: time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)}
	var transport collector.Transport = collector.NewHTTP(*url).WithObs(reg)
	var chaos *faults.Injector
	if *faultRate > 0 {
		chaos = faults.NewInjectorObs(*chaosSeed, *faultRate, reg)
		transport = faults.WrapTransport(transport, chaos)
	}

	if *mergeMode {
		runMerge(*url, *save, *ckptDir, flag.Args(), reg)
		return
	}
	if *fleetMode {
		runFleetReplica(fleetOpts{
			url: *url, id: *replicaID, partitions: *partsN, ckptDir: *ckptDir,
			ttl: *leaseTTL, every: *ckptEvery, page: *page, batch: *batch,
			pageDelay: *pageDelay,
		}, clock, transport, o)
		return
	}
	c := collector.NewObs(collector.Config{PageLimit: *page, DetailBatch: *batch, BackfillPages: *backfill},
		clock, transport, reg)
	c.AttachQuality(q)

	if *resume && *save != "" {
		if f, err := os.Open(*save); err == nil {
			// A truncated file or an older-format archive is refused as
			// corrupt instead of being decoded (and then overwritten).
			data, lerr := collector.LoadDatasetObs(f, 4**page, 0, reg)
			f.Close()
			if lerr != nil {
				fmt.Fprintln(os.Stderr, "collect: resume:", lerr)
				os.Exit(1)
			}
			c.Data = data
			// The checkpoint carries no overlap chain; the first poll of
			// the resumed run must not count as a (gap) pair.
			c.ResetOverlapChain()
			// The decode metrics are already on the registry; the resume
			// line is just their terminal rendering.
			fmt.Printf("resumed from %s: %d bundles, %d details, %d detail ids pending (%.0f shards, %.1f MB decoded)\n",
				*save, data.Collected, len(data.Details), c.PendingDetails(),
				reg.Value("snapshot_shards_total", "op", "decode"),
				reg.Value("snapshot_raw_bytes_total", "op", "decode")/(1<<20))
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "collect: resume:", err)
			os.Exit(1)
		}
	}

	// saveTo checkpoints atomically: the snapshot lands in a temp file
	// next to the target and is renamed over it only once fully written
	// and synced, so a crash mid-save never truncates an existing
	// checkpoint — the property a months-long collection depends on.
	saveTo := func(path string) {
		n, err := snapshot.WriteFileAtomic(path, func(w io.Writer) error {
			return c.Data.SaveWorkersObs(w, 0, reg)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "collect:", err)
			os.Exit(1)
		}
		fmt.Printf("saved dataset to %s (%d bytes)\n", path, n)
	}

	// -stream-detect runs the incremental detector beside collection: the
	// detail fetch moves into the poll loop so freshly collected length-3
	// bundles stream into the engine while their slots are still inside
	// the watermark lag, instead of waiting for the end-of-run fetch.
	var eng *stream.Engine
	var feeder *stream.Feeder
	if *streamDet {
		eng = stream.New(stream.Config{
			LagSlots: solana.Slot(*streamLag),
			Clock:    clock,
			Reg:      reg,
		})
		feeder = stream.NewFeeder(eng, c.Data)
		feeder.Feed() // resumed datasets stream their backlog first
	}

	for i := 0; i < *polls; i++ {
		if i > 0 {
			time.Sleep(*every)
		}
		if err := c.Poll(); err != nil {
			fmt.Fprintf(os.Stderr, "poll %d: %v\n", i, err)
			continue
		}
		if feeder != nil {
			if _, err := c.FetchDetails(); err != nil && !errors.Is(err, collector.ErrDetailShortfall) {
				fmt.Fprintln(os.Stderr, "collect:", err)
				os.Exit(1)
			}
			feeder.Feed()
		}
		fmt.Printf("poll %d: %d bundles collected (%d dups), overlap rate %.1f%%\n",
			i, c.Data.Collected, c.Data.Duplicates, 100*c.OverlapRate())
		if *save != "" && *ckpt > 0 && i > 0 && i%*ckpt == 0 {
			saveTo(*save)
		}
	}

	n, err := c.FetchDetails()
	if err != nil {
		if !errors.Is(err, collector.ErrDetailShortfall) {
			fmt.Fprintln(os.Stderr, "collect:", err)
			os.Exit(1)
		}
		// Degraded, not dead: the skipped ids stay pending in the saved
		// snapshot and a -resume run will retry them.
		fmt.Fprintln(os.Stderr, "collect: warning:", err)
	}
	fmt.Printf("fetched %d transaction details in %d requests (%d retried batches, %d pending)\n",
		n, c.DetailRequests(), c.DetailRetries(), c.PendingDetails())

	res := report.AnalyzeQuality(c.Data, core.NewDefaultDetector(), 0, 0, reg, q)
	res.OverlapRate = c.OverlapRate()
	res.PollCount = c.Polls()
	fmt.Println()
	report.RenderHeadline(os.Stdout, res, 1)
	fmt.Println()
	report.RenderRejections(os.Stdout, res)

	if feeder != nil {
		// Stragglers whose details never completed stream detail-less
		// (undetectable), exactly as the batch fold treats them.
		feeder.FlushPending()
		eng.SetScope(stream.ScopeOf(c.Data))
		sres := eng.Finish()
		fmt.Println("\n== Streaming detection ==")
		eng.Summary().Write(os.Stdout)
		fmt.Printf("  streamed results: %d sandwiches (batch pass above: %d)\n", sres.Sandwiches, res.Sandwiches)
	}

	if *save != "" {
		saveTo(*save)
	}

	fmt.Println()
	o.WriteSummary(os.Stdout)
}
