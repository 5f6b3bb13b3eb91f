// Package ops is the one monitoring bootstrap of the long-running
// binaries (collect, jitosim, explorerd). Each gets the same surface
// from it: a metrics registry with a seeded tracer, the data-quality
// sentinel and the SLO engine fed from that registry, and one ops mux
// serving /metrics, /statusz, /tracez, /qualityz, /sloz and a /healthz
// that folds the sentinel's CRIT and the engine's fast burn into a
// single probe. The run summary and the -cpuprofile/-memprofile pair
// live here too, so every binary renders and profiles a run alike.
package ops

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/slo"
)

// Flags holds the ops flag values of one binary.
type Flags struct {
	Addr        string // -metrics-addr; empty when the binary mounts Mux on its own listener
	Pprof       bool
	TraceSample float64
	TraceCap    int
	SLOUnit     time.Duration
	SLOTick     time.Duration
}

// Register adds the ops flags to fs. -metrics-addr is registered only
// when ownListener is set: a binary that mounts the ops mux beside its
// API has no separate address to choose.
func (f *Flags) Register(fs *flag.FlagSet, ownListener bool) {
	pprofUsage := "also mount net/http/pprof under /debug/pprof/"
	if ownListener {
		fs.StringVar(&f.Addr, "metrics-addr", "", "serve the ops endpoints on this address during the run")
		pprofUsage = "with -metrics-addr, " + pprofUsage
	}
	fs.BoolVar(&f.Pprof, "pprof", false, pprofUsage)
	fs.Float64Var(&f.TraceSample, "trace-sample", 1, "trace head-sampling rate (negative = tracing off)")
	fs.IntVar(&f.TraceCap, "trace-cap", 256, "flight-recorder capacity in traces")
	fs.DurationVar(&f.SLOUnit, "slo-unit", 0, "SLO alert-window unit (0 = production 1h windows)")
	fs.DurationVar(&f.SLOTick, "slo-tick", time.Second, "SLO engine evaluation interval")
}

// Ops is one binary's running monitors.
type Ops struct {
	Reg     *obs.Registry
	Tracer  *obs.Tracer
	Quality *quality.Sentinel
	SLO     *slo.Engine

	pprof   bool
	stopSLO func()
	srv     *http.Server
}

// Start builds the monitors for service and starts the SLO loop. The
// tracer is seeded with the chaos seed, so a chaos replay reproduces
// its trace IDs as well as its fault schedule. objectives receives
// -slo-unit (slo.CollectorObjectives, slo.ExplorerObjectives). With
// -metrics-addr the ops mux is served on that address until Close.
func Start(service string, seed int64, f Flags, objectives func(unit time.Duration) []slo.Objective) *Ops {
	reg := obs.NewRegistry()
	o := &Ops{
		Reg: reg,
		Tracer: obs.NewTracer(reg, obs.TraceConfig{
			Service:    service,
			Seed:       uint64(seed),
			SampleRate: f.TraceSample,
			Capacity:   f.TraceCap,
		}),
		Quality: quality.New(quality.Config{}, reg),
		SLO:     slo.New(reg, slo.Config{}, objectives(f.SLOUnit)...),
		pprof:   f.Pprof,
	}
	o.SLO.Tick() // the budget baseline, so /sloz is never empty
	o.stopSLO = o.SLO.Start(f.SLOTick)
	if f.Addr != "" {
		o.srv = &http.Server{Addr: f.Addr, Handler: o.Mux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := o.srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", service, err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (statusz: /statusz, qualityz: /qualityz, sloz: /sloz, healthz: /healthz)\n", f.Addr)
	}
	return o
}

// Mux returns the ops mux: obs.NewOpsMux's /metrics, /statusz and
// /tracez, plus /qualityz, /sloz, the combined /healthz and extra.
func (o *Ops) Mux(extra ...obs.Endpoint) *http.ServeMux {
	eps := []obs.Endpoint{
		{Path: "/qualityz", Handler: o.Quality.QualityHandler()},
		{Path: "/healthz", Handler: obs.HealthHandler(o.Quality.HealthSource(), o.SLO.HealthSource())},
	}
	eps = append(eps, o.SLO.OpsEndpoints()...)
	return obs.NewOpsMux(o.Reg, o.pprof, append(eps, extra...)...)
}

// WriteSummary prints the end-of-run report: every metric the run
// recorded, the data-quality verdict /qualityz serves, and the SLO
// table after one more tick, so its verdict covers the whole run.
func (o *Ops) WriteSummary(w io.Writer) {
	fmt.Fprintln(w, "== Run metrics ==")
	o.Reg.WriteSummary(w)
	fmt.Fprintln(w, "\n== Data quality ==")
	o.Quality.WriteReport(w)
	o.SLO.Tick()
	_ = o.SLO.WriteSummary(w)
}

// Close stops the SLO loop and the -metrics-addr listener.
func (o *Ops) Close() {
	o.stopSLO()
	if o.srv != nil {
		o.srv.Close()
	}
}

// Profiles holds the -cpuprofile and -memprofile paths.
type Profiles struct{ CPU, Mem string }

// Register adds -cpuprofile and -memprofile to fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this path (taken after the run)")
}

// Start begins the CPU profile, if one was asked for, and returns stop,
// which ends it and writes the heap profile, if one was asked for. A
// profile that cannot be written ends the process: "prog: err", exit 1.
func (p Profiles) Start(prog string) (stop func()) {
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			os.Exit(1)
		}
	}
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		fail(err)
		fail(pprof.StartCPUProfile(f))
	}
	return func() {
		if p.CPU != "" {
			pprof.StopCPUProfile()
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			fail(err)
			runtime.GC()
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}
	}
}
