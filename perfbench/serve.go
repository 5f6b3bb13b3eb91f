package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/explorer"
	"jitomev/internal/obs"
	"jitomev/internal/workload"
)

// serveParams size the serve-api workload. The rates were chosen once
// from a measurement of this server and stay fixed, so a faster server
// is compared at the same offered load.
type serveParams struct {
	Days      int `json:"days"`
	Scale     int `json:"scale"`
	SetupReps int `json:"setup_reps"`
	// Ladder is the fixed list of offered rates, ascending; each step
	// offers StepRequests requests on an open-loop schedule. LowRPS and
	// HighRPS are two of its steps.
	Ladder       []float64 `json:"ladder_rps"`
	LowRPS       float64   `json:"low_rps"`
	HighRPS      float64   `json:"high_rps"`
	StepRequests int       `json:"step_requests"`
	// P99LimitMs is the latency limit a step must meet: the 100 ms
	// serving threshold of the explorer's latency SLO.
	P99LimitMs float64 `json:"p99_limit_ms"`
	// The traffic mix, from cmd/loadgen's default client mix (6:3:1
	// pager:detail:adversarial, pagers walking deeper 3 times in 4)
	// without the adversarial share: see requests.
	PagerWeight  int     `json:"pager_weight"`
	DetailWeight int     `json:"detail_weight"`
	WalkContinue float64 `json:"walk_continue"`
	TxIDs        int     `json:"tx_ids"`
	// CheckEvery selects the fixed sample of responses that are decoded
	// and checked in full.
	CheckEvery   int `json:"check_every"`
	HarvestPages int `json:"harvest_pages"`
	// EncodeReps50k repeats the 50,000-bundle encode and decode probes
	// of the traced run; the 200-bundle probes repeat 100 times as often.
	EncodeReps50k int `json:"encode_reps_50k"`
}

// explorerd is the explorer server binary running as its own process.
type explorerd struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// startExplorerd starts explorerd with default flags apart from address
// and data size, and waits until it serves its loaded study.
func startExplorerd(cfg config) (*explorerd, error) {
	p := cfg.params.Serve
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "explorerd"), "-addr", addr,
		"-days", strconv.Itoa(p.Days), "-scale", strconv.Itoa(p.Scale), "-seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting explorerd: %w", err)
	}
	e := &explorerd{cmd: cmd, url: "http://" + addr, exited: make(chan error, 1)}
	go func() { e.exited <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-e.exited:
			return nil, fmt.Errorf("explorerd exited before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		resp, err := probe.Get(e.url + "/api/v1/bundles/recent?limit=1")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			probe.CloseIdleConnections()
			return e, nil
		}
	}
	e.stop()
	return nil, errors.New("explorerd did not start serving within 120s")
}

// stop kills the server and waits until it has exited.
func (e *explorerd) stop() {
	_ = e.cmd.Process.Kill()
	<-e.exited
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// loadSession drives one server through the ladder, one load-generator
// process per step.
type loadSession struct {
	plan  servePlan
	steps []*stepResult
	next  int // index of the next request in the plan's sequence
}

func newLoadSession(seed int64, p serveParams, url string) (*loadSession, error) {
	hw, topIDs, pool, err := harvest(seed, p, httpFetch(url))
	if err != nil {
		return nil, err
	}
	return &loadSession{plan: servePlan{URL: url, Seed: seed, HighWater: hw, TopIDs: topIDs, Pool: pool, Params: p, Conns: conns()}}, nil
}

func (s *loadSession) step(rate float64) (*stepResult, error) {
	pl := s.plan
	pl.Rate, pl.First, pl.N = rate, s.next, pl.Params.StepRequests
	s.next += pl.N
	res, err := runStep(pl)
	if err != nil {
		return nil, err
	}
	s.steps = append(s.steps, res)
	return res, nil
}

// account adds the session's requests to the run and fails it on any
// failed request or on a step whose responses were never checked.
func (r *run) account(steps []*stepResult) (completed, failed int) {
	for _, st := range steps {
		completed += len(st.OK)
		for _, ok := range st.OK {
			if !ok {
				failed++
			}
		}
		for _, pr := range st.Problems {
			r.fail("serve-api: %s", pr)
		}
		if st.Checked == 0 {
			r.fail("serve-api: no response of the %v/s step was checked", st.Rate)
		}
	}
	r.attempted += completed
	r.failed += failed
	return completed, failed
}

// conns is the load generator's connection and thread budget.
func conns() int { return runtime.NumCPU() }

// runServe measures serve-api: explorerd as its own process, driven by
// one load-generator process per step. As many rounds of the ladder's
// steps up to the high rate run as their open-loop schedule fits in the
// time. The server's CPU over them, read from /proc, gives both its CPU
// per request and its throughput, requests served per CPU-second: the
// server's own rate, which neither the load generator sharing the
// machine nor the number of cores moves.
func runServe(cfg config) (*run, error) {
	p := cfg.params.Serve
	r := newRun()
	r.params = p
	if cfg.trace {
		return r, traceServe(cfg, r)
	}
	srv, setupS, err := repeatSetup(p.SetupReps, func() (*explorerd, error) { return startExplorerd(cfg) },
		func(e *explorerd) { e.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.set("setup_s", setupS)

	sess, err := newLoadSession(cfg.seed, p, srv.url)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var fixed []float64
	roundS := 0.0 // a round's length on the open-loop schedule
	for _, rate := range p.Ladder {
		if rate <= p.HighRPS {
			fixed = append(fixed, rate)
			roundS += float64(p.StepRequests) / rate
		}
	}
	for round := 0; round < max(1, int(cfg.seconds/roundS)); round++ {
		for _, rate := range fixed {
			if _, err := sess.step(rate); err != nil {
				return nil, err
			}
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	completed, _ := r.account(sess.steps)
	cpuS := (cpu1 - cpu0).Seconds()
	r.set("items_per_s", float64(completed)/cpuS)
	r.set("cpu_ms_per_kitem", 1e3*cpuS*1e3/float64(completed))
	r.set("peak_mem_mb", rss)
	return r, nil
}

// seqTimes records the in-process handler time of each request, indexed
// by the sequence number the load generator sends.
type seqTimes struct {
	mu    sync.Mutex
	ms    map[int]float64
	route map[int]string
}

func (s *seqTimes) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := float64(time.Since(t0)) / 1e6
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			return
		}
		route := "recent"
		if r.URL.Path == "/api/v1/transactions" {
			route = "transactions"
		}
		s.mu.Lock()
		s.ms[seq] = d
		s.route[seq] = route
		s.mu.Unlock()
	})
}

// traceServe makes the traced serve-api run: the same study served
// in-process with explorerd's handler stack, first the low step alone
// as the untraced reference, then the ladder behind a timing handler
// under the CPU profiler; then direct store reads of the same request
// sequence and encode/decode probes at the default and the paper's
// widened page size.
func traceServe(cfg config, r *run) error {
	p := cfg.params.Serve
	st := workload.New(workload.Params{Seed: cfg.seed, Days: p.Days, Scale: p.Scale})
	store := explorer.NewStore()
	st.Run(store)

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TraceConfig{Service: "explorerd", SampleRate: 1, Capacity: 256})
	mux := obs.NewOpsMux(reg, false)
	mux.Handle("/", obs.TraceMiddleware(tracer, explorer.NewServerObs(store, 0, reg)))

	// The untraced reference step is served by the handler stack alone.
	url, stop, err := serveLoopback(mux)
	if err != nil {
		return err
	}
	sess, err := newLoadSession(cfg.seed, p, url)
	var ref *stepResult
	if err == nil {
		ref, err = sess.step(p.LowRPS)
	}
	stop()
	if err != nil {
		return err
	}

	times := &seqTimes{ms: map[int]float64{}, route: map[int]string{}}
	if sess.plan.URL, stop, err = serveLoopback(times.handler(mux)); err != nil {
		return err
	}
	var steps []*stepResult
	shares, err := profiled(func() error {
		var err error
		steps, err = ladder(p, sess.step)
		return err
	})
	stop() // waits for every handler, so times is complete
	if err != nil {
		return err
	}
	completed, failed := r.account(append([]*stepResult{ref}, steps...))
	low, high := stepAt(steps, p.LowRPS), stepAt(steps, p.HighRPS)
	r.set("trace.overhead_ratio", median(low.LatencyMs)/median(ref.LatencyMs))
	r.set("serve.p50_ms", quantile(low.effectiveLatency(), 0.5))
	r.set("serve.p99_ms", low.p99())
	r.set("serve.hi_p99_ms", high.p99())
	r.set("serve.max_rps", maxRPS(p, steps))
	r.set("serve.fail_ratio", float64(failed)/float64(completed))
	setCPUShares(r, shares)

	var late []float64
	clientCPU, reqs := 0.0, 0
	byRoute := map[string][]float64{}
	var wait []float64
	for _, st := range steps {
		late = append(late, st.LateMs...)
		clientCPU += st.ClientCPU
		reqs += len(st.OK)
		for i, lat := range st.LatencyMs {
			h, ok := times.ms[st.First+i]
			if !ok {
				continue
			}
			route := times.route[st.First+i]
			byRoute[route] = append(byRoute[route], h)
			if st == high {
				wait = append(wait, lat-h)
			}
		}
	}
	r.set("serve.gen_late_ms.p99", quantile(late, 0.99))
	r.set("serve.client_cpu_ms_per_req", 1e3*clientCPU/float64(reqs))
	for _, route := range []string{"recent", "transactions"} {
		r.set("explorer.handler_ms."+route+".p50", quantile(byRoute[route], 0.5))
		r.set("explorer.handler_ms."+route+".p99", quantile(byRoute[route], 0.99))
	}
	r.set("serve.wait_ms.p99", quantile(wait, 0.99))

	// The store reads behind the same request sequence, without HTTP.
	var reads []float64
	for _, rq := range sess.plan.requests(sess.next) {
		t0 := time.Now()
		switch rq.kind {
		case kindRecent:
			_ = store.Recent(defaultPage)
		case kindWalk:
			_, _ = store.RecentBefore(rq.before, defaultPage)
		default:
			_ = store.TxDetails(rq.ids)
		}
		reads = append(reads, float64(time.Since(t0))/1e6)
	}
	r.set("explorer.store_read_ms.p50", median(reads))
	return codecProbes(r, store, p)
}

// codecProbes times the explorer's page encoding (Server.ServeHTTP into
// a discarding writer) and the collector's page decoding
// (collector.HTTP.RecentBundles against a handler replaying the encoded
// bytes, minus that handler's time) at 200 and 50,000 bundles.
func codecProbes(r *run, store *explorer.Store, p serveParams) error {
	srv := explorer.NewServer(store, 0)
	for _, size := range []int{defaultPage, explorer.MaxPageLimit} {
		if store.Len() < size {
			return fmt.Errorf("codec probe: store holds %d bundles, fewer than %d", store.Len(), size)
		}
		reps := p.EncodeReps50k
		if size == defaultPage {
			reps = 100 * p.EncodeReps50k
		}
		target := "/api/v1/bundles/recent?limit=" + strconv.Itoa(size)
		var body []byte
		var enc []float64
		for i := 0; i < reps; i++ {
			w := &discardWriter{h: http.Header{}}
			if i == 0 {
				w.keep = &bytes.Buffer{}
			}
			t0 := time.Now()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			enc = append(enc, float64(time.Since(t0))/1e6)
			if w.keep != nil {
				body = w.keep.Bytes()
			}
		}
		var mu sync.Mutex
		var replay time.Duration
		url, stop, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			t0 := time.Now()
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			mu.Lock()
			replay += time.Since(t0)
			mu.Unlock()
		}))
		if err != nil {
			return err
		}
		client := collector.NewHTTP(url)
		var dec []float64
		for i := 0; i < reps; i++ {
			mu.Lock()
			before := replay
			mu.Unlock()
			t0 := time.Now()
			page, err := client.RecentBundles(size)
			total := time.Since(t0)
			mu.Lock()
			handler := replay - before
			mu.Unlock()
			if err != nil || len(page) != size {
				stop()
				return fmt.Errorf("codec probe: decoding a %d-bundle page: %v (%d bundles)", size, err, len(page))
			}
			dec = append(dec, float64(total-handler)/1e6)
		}
		stop()
		k := float64(size) / 1e3
		r.set(fmt.Sprintf("explorer.encode_ms_per_kbundle.%d", size), median(enc)/k)
		r.set(fmt.Sprintf("collector.decode_ms_per_kbundle.%d", size), median(dec)/k)
	}
	return nil
}

// discardWriter is an http.ResponseWriter that drops the body, keeping
// it only when keep is set.
type discardWriter struct {
	h    http.Header
	keep *bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.keep != nil {
		w.keep.Write(b)
	}
	return len(b), nil
}

// serveLoopback serves h on a loopback port until stop is called; stop
// returns once the server has shut down.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Shutdown(context.Background())
		<-done
	}, nil
}
