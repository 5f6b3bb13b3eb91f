package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"syscall"
	"time"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/report"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

// studyParams size the study-http workload: the paper's pipeline end to
// end over loopback HTTP at 1/Scale of paper volume, over Seeds studies
// derived from the run's seed. The pipeline polls on a fixed slot
// schedule, so its time barely depends on how many bundles a study
// lands while the bundle count does; a rate over several studies
// averages that out.
type studyParams struct {
	Days      int `json:"days"`
	Scale     int `json:"scale"`
	Seeds     int `json:"seeds"`
	SetupReps int `json:"setup_reps"`
}

// workload is the k-th study of a run with the given seed.
func (p studyParams) workload(seed int64, k int) workload.Params {
	return workload.Params{Seed: seed*int64(p.Seeds) + int64(k), Days: p.Days, Scale: p.Scale}
}

// studyOnce is what one untraced study run reports back to the parent.
type studyOnce struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Bundles   int     `json:"bundles"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

// runStudy measures study-http. Each untraced run is a child process
// calling jitomev.Run{UseHTTP: true}, so its peak RSS is its own; the
// in-process runs of the same studies made in set-up are the references
// its Results must equal. Rounds of one run per study repeat until the
// time is up; the rates are the studies' bundles over the sum of their
// median times.
func runStudy(cfg config) (*run, error) {
	p := cfg.params.Study
	r := newRun()
	r.params = p
	reps := p.SetupReps
	if cfg.trace {
		reps = 1
	}
	var first []string
	refs, setupS, err := repeatSetup(reps, func() ([]string, error) {
		var refs []string
		for k := 0; k < p.Seeds; k++ {
			out, err := jitomev.Run(jitomev.Config{Workload: p.workload(cfg.seed, k), Workers: workers})
			if err != nil {
				return nil, err
			}
			refs = append(refs, digest(out.Results))
		}
		if first == nil {
			first = refs
		}
		return refs, nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("study reference run: %w", err)
	}
	if !reflect.DeepEqual(first, refs) {
		r.fail("in-process reference Results differ between set-up repetitions")
	}
	r.set("setup_s", setupS)
	if cfg.trace {
		return r, traceStudy(cfg, r, refs[0])
	}

	walls := make([][]float64, p.Seeds)
	cpus := make([][]float64, p.Seeds)
	bundles := make([]int, p.Seeds)
	var rss []float64
	start := time.Now()
	last := 0.0
	for len(rss) == 0 || time.Since(start).Seconds()+last <= cfg.seconds {
		t0 := time.Now()
		for k := range p.Seeds {
			once, maxRSS, err := studyChild(p.workload(cfg.seed, k))
			if err != nil {
				return nil, err
			}
			r.attempted += once.Attempted
			r.failed += once.Failed
			if once.Digest != refs[k] {
				r.fail("study-http Results of study %d differ from its in-process run", k)
			}
			walls[k] = append(walls[k], once.WallS)
			cpus[k] = append(cpus[k], once.CPUS)
			bundles[k] = once.Bundles
			rss = append(rss, maxRSS)
		}
		last = time.Since(t0).Seconds()
	}
	var n, wall, cpu float64
	for k := range p.Seeds {
		n += float64(bundles[k])
		wall += median(walls[k])
		cpu += median(cpus[k])
	}
	r.set("items_per_s", n/wall)
	r.set("cpu_ms_per_kitem", 1e3*cpu/(n/1e3))
	r.set("peak_mem_mb", median(rss))
	return r, nil
}

// studyChild runs one untraced study in a fresh process and returns its
// report and peak resident set in MiB.
func studyChild(wp workload.Params) (studyOnce, float64, error) {
	var once studyOnce
	exe, err := os.Executable()
	if err != nil {
		return once, 0, err
	}
	cmd := exec.Command(exe, "child", "study",
		"-seed", fmt.Sprint(wp.Seed), "-days", fmt.Sprint(wp.Days),
		"-scale", fmt.Sprint(wp.Scale))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return once, 0, fmt.Errorf("study child: %w", err)
	}
	if err := json.Unmarshal(b, &once); err != nil {
		return once, 0, fmt.Errorf("study child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return once, 0, errors.New("study child: no rusage")
	}
	return once, float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// childMain is the entry point of the benchmark's helper processes.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: missing role")
		return 2
	}
	var err error
	switch args[0] {
	case "study":
		err = studyChildMain(args[1:])
	case "loadgen":
		err = loadgenMain(args[1:])
	default:
		err = fmt.Errorf("unknown role %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func studyChildMain(args []string) error {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	days := fs.Int("days", 1, "")
	scale := fs.Int("scale", 500, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cpu0 := selfCPU()
	t0 := time.Now()
	out, err := jitomev.Run(jitomev.Config{
		Workload: workload.Params{Seed: *seed, Days: *days, Scale: *scale},
		UseHTTP:  true,
		Workers:  workers,
	})
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	if err != nil {
		return err
	}
	c := out.Collector
	once := studyOnce{
		WallS:   wall.Seconds(),
		CPUS:    cpu.Seconds(),
		Bundles: out.Store.Len(),
		Digest:  digest(out.Results),
		// Transport calls made, and those that failed plus the detail
		// ids left pending.
		Attempted: int(c.Polls() + c.Errors() + c.DetailRequests()),
		Failed:    int(c.Errors()+c.DetailRetries()+c.DetailBatchesFailed()) + out.PendingDetails,
	}
	return json.NewEncoder(os.Stdout).Encode(once)
}

// studyHooks instrument the pipeline pieces: trace, when non-nil, times
// and records every layer seam, and wrap lets a test plant a slow
// transport.
type studyHooks struct {
	trace *studyTrace
	wrap  func(collector.Transport) collector.Transport
}

// studyCollectorConfig is the collector configuration jitomev.Run uses
// with UseHTTP: one page per poll sized to the scaled explorer page.
func studyCollectorConfig(p workload.Params) collector.Config {
	return collector.Config{PageLimit: max(20, explorer.MaxPageLimit/p.Scale)}
}

// studyPipeline builds the pipeline jitomev.Run builds with UseHTTP from
// public pieces — workload.Study → polling sink → explorer.Store, an
// explorer.Server on a loopback listener, collector.HTTP, FetchDetails
// and the report analysis — so each seam can be timed. Its Results must
// equal jitomev.Run's for the same parameters.
func studyPipeline(wp workload.Params, h studyHooks) (*report.Results, error) {
	tr := h.trace
	reg := obs.NewRegistry()
	st := workload.New(wp)
	p := st.P
	store := explorer.NewStore()
	var handler http.Handler = explorer.NewServerObs(store, 0, reg)
	if tr != nil {
		handler = tr.handler(handler)
	}
	url, stop, err := serveLoopback(handler)
	if err != nil {
		return nil, err
	}
	defer stop()
	var transport collector.Transport = collector.NewHTTP(url).WithObs(reg)
	if h.wrap != nil {
		transport = h.wrap(transport)
	}
	if tr != nil {
		transport = &timedTransport{next: transport, tr: tr}
	}
	coll := collector.NewObs(studyCollectorConfig(p), p.Clock(), transport, reg)
	q := quality.New(quality.Config{}, reg)
	coll.AttachQuality(q)
	st.DayObserver = func(ds workload.DayStats) { q.ObserveGenerated(ds.Day, ds.BundlesLanded) }

	var sink workload.Sink = &collector.PollingSink{Store: store, Collector: coll, InOutage: p.InOutage}
	if tr != nil {
		sink = &timedSink{store: store, coll: coll, inOutage: p.InOutage, tr: tr}
	}
	st.Run(sink)

	detStart := time.Now()
	if _, err := coll.FetchDetails(); err != nil && !errors.Is(err, collector.ErrDetailShortfall) {
		return nil, err
	}
	detWall := time.Since(detStart)

	anStart := time.Now()
	res := report.AnalyzeQuality(coll.Data, core.NewDefaultDetector(), 0, workers, reg, q)
	res.OverlapRate = coll.OverlapRate()
	res.PollCount = coll.Polls()
	res.DetailRequests = coll.DetailRequests()
	anWall := time.Since(anStart)

	if tr != nil {
		tr.details = detWall
		tr.analyze = anWall
		tr.collected = coll.Data.Collected
		tr.failed = int(coll.Errors()+coll.DetailRetries()+coll.DetailBatchesFailed()) + coll.PendingDetails()
	}
	return res, nil
}

// studyTrace records one traced study: the time spent at each seam, and
// every transport call, sink operation and server response in order, so
// that the layers behind them can be timed again on their own.
type studyTrace struct {
	accept    time.Duration // in Store.Accept, on the generating goroutine
	transport time.Duration // in collector.Transport calls
	calls     []transportCall
	ops       []sinkOp
	received  int // bundles received in pages

	mu        sync.Mutex // guards the fields the server goroutines write
	serve     time.Duration
	serveMs   []float64
	responses []*response // in the order the requests arrived

	details, analyze time.Duration
	collected        uint64
	failed           int // failed transport calls plus pending details
}

// transportCall is one recorded collector.Transport call.
type transportCall struct {
	kind    int    // callRecent, callBefore or callDetails
	before  uint64 // callBefore's cursor
	n       int    // the page limit, or the number of ids asked for
	ids     []solana.Signature
	page    []jito.BundleRecord
	details []jito.TxDetail
	err     error
}

const (
	callRecent = iota
	callBefore
	callDetails
)

// got is the number of records the call returned.
func (c *transportCall) got() int { return len(c.page) + len(c.details) }

// sinkOp is a collector operation the sink made: a poll, or an overlap
// chain reset after an outage.
type sinkOp bool

const (
	opPoll  sinkOp = false
	opReset sinkOp = true
)

// response is one recorded server response.
type response struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (tr *studyTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rsp := &response{status: http.StatusOK}
		tr.mu.Lock()
		tr.responses = append(tr.responses, rsp)
		tr.mu.Unlock()
		rw := &recordingWriter{ResponseWriter: w, rsp: rsp}
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		d := time.Since(t0)
		rsp.header = w.Header().Clone()
		tr.mu.Lock()
		tr.serve += d
		tr.serveMs = append(tr.serveMs, float64(d)/1e6)
		tr.mu.Unlock()
	})
}

// recordingWriter passes a response through and keeps a copy of it.
type recordingWriter struct {
	http.ResponseWriter
	rsp *response
}

func (w *recordingWriter) WriteHeader(code int) {
	w.rsp.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.rsp.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// timedTransport times and records every collector.Transport call.
type timedTransport struct {
	next collector.Transport
	tr   *studyTrace
}

func (t *timedTransport) record(c transportCall, t0 time.Time) {
	t.tr.transport += time.Since(t0)
	t.tr.received += len(c.page)
	t.tr.calls = append(t.tr.calls, c)
}

func (t *timedTransport) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	t0 := time.Now()
	page, err := t.next.RecentBundles(limit)
	t.record(transportCall{kind: callRecent, n: limit, page: page, err: err}, t0)
	return page, err
}

func (t *timedTransport) RecentBundlesBefore(before uint64, limit int) ([]jito.BundleRecord, error) {
	t0 := time.Now()
	page, err := t.next.RecentBundlesBefore(before, limit)
	t.record(transportCall{kind: callBefore, before: before, n: limit, page: page, err: err}, t0)
	return page, err
}

func (t *timedTransport) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	t0 := time.Now()
	d, err := t.next.TxDetails(ids)
	t.record(transportCall{kind: callDetails, n: len(ids), ids: ids, details: d, err: err}, t0)
	return d, err
}

// timedSink is collector.PollingSink with the store write timed and the
// collector operations recorded. The Results check against jitomev.Run
// keeps the two equivalent.
type timedSink struct {
	store    *explorer.Store
	coll     *collector.Collector
	inOutage func(day int) bool
	tr       *studyTrace

	nextPoll  solana.Slot
	wasOutage bool
}

func (s *timedSink) Accept(day int, acc *jito.Accepted) {
	t0 := time.Now()
	s.store.Accept(day, acc)
	s.tr.accept += time.Since(t0)
	if acc.Record.Slot < s.nextPoll {
		return
	}
	s.nextPoll = acc.Record.Slot + s.coll.Cfg.PollEverySlots
	if s.inOutage != nil && s.inOutage(day) {
		s.wasOutage = true
		return
	}
	if s.wasOutage {
		s.coll.ResetOverlapChain()
		s.tr.ops = append(s.tr.ops, opReset)
		s.wasOutage = false
	}
	s.tr.ops = append(s.tr.ops, opPoll)
	_ = s.coll.Poll()
}

// studyParts are the layers of one traced study, each timed on its own:
// none is another timer's remainder, so their sum is a check on the
// traced wall time rather than a rewording of it.
type studyParts struct {
	gen        time.Duration // the study into a sink that drops every bundle
	pollSelf   time.Duration // a second collector's polls over the recorded pages
	detailSelf time.Duration // and its FetchDetails over the recorded details
	wire       time.Duration // collector.HTTP over the recorded responses, minus their handler
}

// measureParts times, apart from the traced run, the layers it could
// only time as remainders.
func (tr *studyTrace) measureParts(wp workload.Params) (studyParts, error) {
	var pt studyParts
	t0 := time.Now()
	workload.New(wp).Run(workload.SinkFunc(func(int, *jito.Accepted) {}))
	pt.gen = time.Since(t0)
	var err error
	if pt.pollSelf, pt.detailSelf, err = tr.collectorSelf(wp); err != nil {
		return pt, err
	}
	pt.wire, err = tr.replayWire()
	return pt, err
}

// collectorSelf times the collector's own work: a second collector makes
// the traced run's sink operations in order against a transport that
// hands back the recorded results at once.
func (tr *studyTrace) collectorSelf(wp workload.Params) (poll, details time.Duration, err error) {
	p := workload.New(wp).P
	reg := obs.NewRegistry()
	rt := &replayTransport{calls: tr.calls}
	coll := collector.NewObs(studyCollectorConfig(p), p.Clock(), rt, reg)
	coll.AttachQuality(quality.New(quality.Config{}, reg))
	for _, op := range tr.ops {
		if op == opReset {
			coll.ResetOverlapChain()
			continue
		}
		t0 := time.Now()
		_ = coll.Poll()
		poll += time.Since(t0)
	}
	t0 := time.Now()
	_, _ = coll.FetchDetails()
	details = time.Since(t0)
	switch {
	case rt.err != nil:
		return 0, 0, rt.err
	case rt.next != len(rt.calls) || coll.Data.Collected != tr.collected:
		return 0, 0, fmt.Errorf("collector replay made %d of %d calls and collected %d of %d bundles",
			rt.next, len(rt.calls), coll.Data.Collected, tr.collected)
	}
	return poll, details, nil
}

// replayTransport hands back recorded transport calls in order, failing
// when a call differs from the recorded one.
type replayTransport struct {
	calls []transportCall
	next  int
	err   error
}

func (t *replayTransport) take(kind int, before uint64, n int) *transportCall {
	if t.next == len(t.calls) {
		t.err = errors.New("collector replay: more transport calls than recorded")
		return &transportCall{err: t.err}
	}
	c := &t.calls[t.next]
	t.next++
	if c.kind != kind || c.before != before || c.n != n {
		t.err = fmt.Errorf("collector replay: transport call %d differs from the recorded one", t.next-1)
	}
	return c
}

func (t *replayTransport) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	c := t.take(callRecent, 0, limit)
	return c.page, c.err
}

func (t *replayTransport) RecentBundlesBefore(before uint64, limit int) ([]jito.BundleRecord, error) {
	c := t.take(callBefore, before, limit)
	return c.page, c.err
}

func (t *replayTransport) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	c := t.take(callDetails, 0, len(ids))
	return c.details, c.err
}

// replayWire times the client side of the wire: a fresh collector.HTTP
// makes the recorded calls again against a loopback handler that writes
// the recorded responses, and that handler's own time is taken off. It
// covers request encoding, HTTP and loopback transfer, and response
// decoding.
func (tr *studyTrace) replayWire() (time.Duration, error) {
	if len(tr.responses) != len(tr.calls) {
		return 0, fmt.Errorf("wire replay: %d server responses for %d transport calls", len(tr.responses), len(tr.calls))
	}
	var mu sync.Mutex
	next := 0
	var handler time.Duration
	url, stop, err := serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t0 := time.Now()
		mu.Lock()
		rsp := tr.responses[min(next, len(tr.responses)-1)]
		next++
		mu.Unlock()
		for k, v := range rsp.header {
			w.Header()[k] = v
		}
		w.WriteHeader(rsp.status)
		_, _ = w.Write(rsp.body.Bytes())
		mu.Lock()
		handler += time.Since(t0)
		mu.Unlock()
	}))
	if err != nil {
		return 0, err
	}
	client := collector.NewHTTP(url).WithObs(obs.NewRegistry())
	var total time.Duration
	var bad error
	for i := range tr.calls {
		c := &tr.calls[i]
		t0 := time.Now()
		var got int
		var err error
		switch c.kind {
		case callRecent:
			var page []jito.BundleRecord
			page, err = client.RecentBundles(c.n)
			got = len(page)
		case callBefore:
			var page []jito.BundleRecord
			page, err = client.RecentBundlesBefore(c.before, c.n)
			got = len(page)
		default:
			var d []jito.TxDetail
			d, err = client.TxDetails(c.ids)
			got = len(d)
		}
		total += time.Since(t0)
		if bad == nil && ((err != nil) != (c.err != nil) || got != c.got()) {
			bad = fmt.Errorf("wire replay: call %d decoded %d records (error %v), the traced run %d (error %v)", i, got, err, c.got(), c.err)
		}
	}
	stop()
	if bad != nil {
		return 0, bad
	}
	if next != len(tr.responses) {
		return 0, fmt.Errorf("wire replay: %d requests for %d recorded responses", next, len(tr.responses))
	}
	if total <= handler {
		return 0, fmt.Errorf("wire replay: calls took %v, less than their handler's %v", total, handler)
	}
	return total - handler, nil
}

// traceStudy makes the traced study-http run: untraced and traced runs
// of the pipeline alternate in-process until the time is up, and the
// per-layer metrics are medians over the traced runs.
func traceStudy(cfg config, r *run, ref string) error {
	wp := cfg.params.Study.workload(cfg.seed, 0)
	var untraced, traced []float64
	layers := map[string][]float64{}
	var shares cpuShares
	start := time.Now()
	for len(traced) < 1 || time.Since(start).Seconds() < cfg.seconds {
		t0 := time.Now()
		out, err := jitomev.Run(jitomev.Config{Workload: wp, UseHTTP: true, Workers: workers})
		if err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		if digest(out.Results) != ref {
			r.fail("study-http Results differ from the in-process run of seed %d", wp.Seed)
		}
		out = nil

		tr := &studyTrace{}
		var res *report.Results
		var wall time.Duration
		sh, err := profiled(func() error {
			t0 := time.Now()
			var err error
			res, err = studyPipeline(wp, studyHooks{trace: tr})
			wall = time.Since(t0)
			return err
		})
		if err != nil {
			return err
		}
		shares.add(sh)
		traced = append(traced, wall.Seconds())
		if digest(res) != ref {
			r.fail("traced pipeline Results differ from jitomev.Run for seed %d", wp.Seed)
		}
		res = nil
		r.attempted += len(tr.calls)
		r.failed += tr.failed
		pt, err := tr.measureParts(wp)
		if err != nil {
			r.fail("study-http layers: %v", err)
			continue
		}
		for k, v := range tr.layers(pt, wall) {
			layers[k] = append(layers[k], v)
		}
	}
	for k, vs := range layers {
		r.set(k, median(vs))
	}
	if f := r.values["study.layer_sum_frac"]; f < 1-layerSumTolerance || f > 1+layerSumTolerance {
		r.fail("study.layer_sum_frac %.3f outside 1±%.2f", f, layerSumTolerance)
	}
	r.set("trace.overhead_ratio", median(traced)/median(untraced))
	setCPUShares(r, shares)
	return nil
}

// layerSumTolerance is how far the layers of the traced study, each
// timed on its own, may sum away from its wall time. Timed alone, the
// layers do not pay what they cost each other when they interleave
// (caches, the garbage collector): they sum to 0.93–0.99 of the whole
// on a 2-core x86-64 box. A missing or doubled layer of the four that
// carry the time moves the sum by 0.2 or more.
const layerSumTolerance = 0.10

func (tr *studyTrace) layers(pt studyParts, wall time.Duration) map[string]float64 {
	s := func(d time.Duration) float64 { return d.Seconds() }
	sum := pt.gen + tr.accept + pt.pollSelf + pt.detailSelf + tr.serve + pt.wire + tr.analyze
	detailRequests := 0
	for _, c := range tr.calls {
		if c.kind == callDetails {
			detailRequests++
		}
	}
	newFrac := 0.0
	if tr.received > 0 {
		newFrac = float64(tr.collected) / float64(tr.received)
	}
	respBytes := 0
	for _, rsp := range tr.responses {
		respBytes += rsp.body.Len()
	}
	return map[string]float64{
		"workload.gen_self_s":       s(pt.gen),
		"explorer.accept_s":         s(tr.accept),
		"explorer.serve_s":          s(tr.serve),
		"explorer.serve_ms.p50":     quantile(tr.serveMs, 0.50),
		"explorer.serve_ms.p99":     quantile(tr.serveMs, 0.99),
		"explorer.resp_bytes":       float64(respBytes),
		"collector.transport_s":     s(tr.transport),
		"collector.wire_decode_s":   s(pt.wire),
		"collector.poll_self_s":     s(pt.pollSelf),
		"collector.details_self_s":  s(pt.detailSelf),
		"collector.polls":           float64(len(tr.calls) - detailRequests),
		"collector.page_new_frac":   newFrac,
		"collector.details_s":       s(tr.details),
		"collector.detail_requests": float64(detailRequests),
		"report.analyze_s":          s(tr.analyze),
		"study.layer_sum_frac":      sum.Seconds() / wall.Seconds(),
		"study.fail_ratio":          float64(tr.failed) / float64(max(1, len(tr.calls))),
	}
}

func setCPUShares(r *run, s cpuShares) {
	for _, g := range cpuGroups {
		r.set("cpu."+g.name+"_frac", s.frac(g.name))
	}
}
