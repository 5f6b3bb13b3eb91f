// Command explorerd generates a synthetic study and serves it over the
// simulated Jito Explorer HTTP API, so a separately running collector (see
// cmd/collect) can scrape it like the paper scraped explorer.jito.wtf.
//
// Usage:
//
//	explorerd [-addr 127.0.0.1:8899] [-days 7] [-scale 10000] [-seed 1] [-rate 120] [-live]
//	          [-fault-rate 0.1] [-chaos-seed 7] [-slow 100ms]
//
// With -live the study streams in real (compressed) time: one simulated
// day per -daysecs wall seconds, so the recent-bundles endpoint behaves
// like a live feed. Without it, the whole study is loaded up front.
//
// With -fault-rate the server runs in chaos mode: on a deterministic
// (chaos-seed, request index) schedule it answers with 429 + Retry-After,
// 5xx, slow responses, or truncated/corrupt JSON — the same failure
// taxonomy the paper's scraper survived for four months — so a collector
// pointed at it can be soak-tested against a misbehaving explorer.
//
// The same listener also serves the ops surface every long-running
// binary gets from internal/ops (/metrics, /statusz, /tracez, /qualityz,
// /sloz and one /healthz). Here the quality sentinel watches the
// generated chain and the SLO engine watches serving availability and
// latency (windows scale with -slo-unit). With -chaos-admin the chaos
// layer mounts even at fault rate 0 and GET/POST /chaosz reads and
// retunes the live fault rate. Chaos faults never touch the ops
// endpoints — only the API is wrapped.
//
// The listener also serves the fleet lease coordinator: GET /leasez is
// the lease-table state document and POST /leasez/{plan,acquire,renew,
// checkpoint,release} are the coordination operations `collect -fleet`
// replicas use to divide the backlog, with TTL expiry and epoch fencing
// (see internal/fleet).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/fleet"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/ops"
	"jitomev/internal/slo"
	"jitomev/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8899", "listen address")
		days       = flag.Int("days", 7, "study length in days")
		scale      = flag.Int("scale", 10_000, "volume divisor vs paper scale")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		rate       = flag.Int("rate", 0, "per-client requests/minute (0 = unlimited)")
		live       = flag.Bool("live", false, "stream the study in compressed real time")
		daySecs    = flag.Int("daysecs", 10, "wall seconds per simulated day with -live")
		faultRate  = flag.Float64("fault-rate", 0, "chaos mode: per-request fault probability (0 = off)")
		chaosSeed  = flag.Int64("chaos-seed", 0, "seed for the deterministic fault schedule")
		slow       = flag.Duration("slow", 100*time.Millisecond, "chaos mode: stall injected on slow responses")
		chaosAdmin = flag.Bool("chaos-admin", false, "mount POST-able /chaosz to retune the fault rate at runtime")
		opsFlags   ops.Flags
	)
	opsFlags.Register(flag.CommandLine, false)
	flag.Parse()

	store := explorer.NewStore()
	st := workload.New(workload.Params{Seed: *seed, Days: *days, Scale: *scale})

	// Ops share the API listener but sit outside the chaos wrapper: a
	// misbehaving explorer must still be observable.
	o := ops.Start("explorerd", *chaosSeed, opsFlags, slo.ExplorerObjectives)
	defer o.Close()
	reg, tracer := o.Reg, o.Tracer
	var handler http.Handler = explorer.NewServerObs(store, *rate, reg)
	// With -chaos-admin the chaos layer is mounted even at rate 0, so the
	// /chaosz endpoint can dial faults up and back down mid-run.
	var injector *faults.Injector
	if *faultRate > 0 || *chaosAdmin {
		injector = faults.NewInjectorObs(*chaosSeed, *faultRate, reg)
		handler = faults.ChaosHandler(handler, injector,
			faults.ChaosConfig{SlowDelay: *slow})
		fmt.Printf("chaos mode: fault rate %.0f%%, seed %d\n", 100**faultRate, *chaosSeed)
	}
	// The trace middleware wraps OUTSIDE the chaos layer, so injected
	// faults are annotated onto the very trace whose request they hit.
	handler = obs.TraceMiddleware(tracer, handler)

	// The quality sentinel has no collector feed here — it watches the
	// generation side (per-day landed counts), so /qualityz reports the
	// ground-truth denominator a scraping collector measures against and
	// /healthz stays a liveness probe.
	st.DayObserver = func(ds workload.DayStats) { o.Quality.ObserveGenerated(ds.Day, ds.BundlesLanded) }
	// The lease coordinator for a collection fleet lives with the data:
	// explorerd owns the acceptance sequence, so it also serves /leasez,
	// and the fleet's partition plan is fixed over the store's high-water
	// mark at the moment the first replica asks.
	leases := fleet.NewLeaseTable(store.HighWater, reg)
	eps := fleet.NewLeaseServer(leases).Endpoints()
	// Lease operations carry the replicas' traceparent too: a fleet page
	// trace shows its renew/checkpoint hops server-side.
	for i := range eps {
		eps[i].Handler = obs.TraceMiddleware(tracer, eps[i].Handler)
	}
	if *chaosAdmin {
		eps = append(eps, obs.Endpoint{Path: "/chaosz", Handler: faults.AdminHandler(injector)})
	}
	mux := o.Mux(eps...)
	mux.Handle("/", handler)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *live {
		go func() {
			perDay := time.Duration(*daySecs) * time.Second
			for d := 0; d < st.P.Days; d++ {
				dayStart := time.Now()
				st.RunDay(d, workload.SinkFunc(func(day int, acc *jito.Accepted) {
					store.Accept(day, acc)
				}))
				fmt.Printf("day %d generated (%d bundles total)\n", d, store.Len())
				if rest := perDay - time.Since(dayStart); rest > 0 {
					time.Sleep(rest)
				}
			}
			fmt.Println("study complete; continuing to serve")
		}()
	} else {
		fmt.Printf("generating %d days at 1/%d scale...\n", st.P.Days, st.P.Scale)
		st.Run(store)
		fmt.Printf("serving %d bundles\n", store.Len())
	}

	fmt.Printf("explorer API on http://%s  (GET /api/v1/bundles/recent?limit=N, POST /api/v1/transactions)\n", *addr)
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "explorerd:", err)
		os.Exit(1)
	}
}
