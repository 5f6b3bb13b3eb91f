package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

const defaultPage = 200 // the recent endpoint's page size without limit=

// Request kinds of the serve-api mix.
const (
	kindRecent = iota
	kindWalk
	kindTx
)

// servePlan is one step for the load generator: the server, the inputs
// of the request sequence, and which slice of it to offer at what rate.
type servePlan struct {
	URL       string             `json:"url"`
	Seed      int64              `json:"seed"`
	HighWater uint64             `json:"high_water"`
	TopIDs    int                `json:"top_ids"` // transaction ids on the default top page
	Pool      []solana.Signature `json:"pool"`    // ids with details, for POSTs
	Params    serveParams        `json:"params"`
	Conns     int                `json:"conns"`
	Rate      float64            `json:"rate"`
	First     int                `json:"first"` // index of the step's first request
	N         int                `json:"n"`
}

type planReq struct {
	kind   int
	before uint64             // walk cursor
	ids    []solana.Signature // transactions POST
}

// requests expands the plan's request sequence up to index n; the same
// plan inputs always give the same sequence. It follows the default
// client mix of cmd/loadgen without its adversarial persona: each
// request comes from a pager or a detail client, weighted PagerWeight to
// DetailWeight. The pager fetches the top page, then walks deeper with
// the before= cursor with probability WalkContinue after each page, or
// starts again at the top. The detail client fetches the top page, then
// POSTs the ids it found there TxIDs at a time.
func (pl *servePlan) requests(n int) []planReq {
	p := pl.Params
	rng := rand.New(rand.NewSource(pl.Seed))
	out := make([]planReq, n)
	var cursor uint64 // the pager's next before=; 0 for the top page
	postsLeft := 0    // the detail client's POSTs before its next top page
	for i := range out {
		if rng.Intn(p.PagerWeight+p.DetailWeight) < p.PagerWeight {
			if cursor == 0 {
				out[i] = planReq{kind: kindRecent}
				cursor = pl.HighWater - defaultPage + 1 // the top page's lowest seq
			} else {
				out[i] = planReq{kind: kindWalk, before: cursor}
				cursor -= defaultPage
			}
			if rng.Float64() >= p.WalkContinue || cursor <= defaultPage {
				cursor = 0
			}
			continue
		}
		if postsLeft == 0 {
			out[i] = planReq{kind: kindRecent}
			postsLeft = (pl.TopIDs + p.TxIDs - 1) / p.TxIDs
			continue
		}
		ids := make([]solana.Signature, p.TxIDs)
		for j, k := range rng.Perm(len(pl.Pool))[:p.TxIDs] {
			ids[j] = pl.Pool[k]
		}
		out[i] = planReq{kind: kindTx, ids: ids}
		postsLeft--
	}
	return out
}

// harvest gathers the inputs of a plan through fetch: the high-water
// sequence, the number of transaction ids on the default top page, and
// a pool of transaction ids that have details.
func harvest(seed int64, p serveParams, fetch func(before uint64, limit int) ([]jito.BundleRecord, error)) (hw uint64, topIDs int, pool []solana.Signature, err error) {
	top, err := fetch(0, defaultPage)
	if err != nil || len(top) != defaultPage {
		return 0, 0, nil, fmt.Errorf("harvest: top page: %v (%d bundles)", err, len(top))
	}
	hw = top[0].Seq
	if hw < 4*defaultPage {
		return 0, 0, nil, fmt.Errorf("harvest: store holds only %d bundles", hw)
	}
	for _, rec := range top {
		topIDs += len(rec.TxIDs)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < p.HarvestPages; i++ {
		before := uint64(defaultPage+1) + uint64(rng.Int63n(int64(hw-defaultPage)))
		page, err := fetch(before, defaultPage)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("harvest: %w", err)
		}
		for _, rec := range page {
			if rec.NumTxs() == 3 {
				pool = append(pool, rec.TxIDs...)
			}
		}
	}
	if len(pool) < p.TxIDs {
		return 0, 0, nil, fmt.Errorf("harvest: only %d detail ids", len(pool))
	}
	return hw, topIDs, pool, nil
}

func httpFetch(url string) func(before uint64, limit int) ([]jito.BundleRecord, error) {
	h := collector.NewHTTP(url)
	return func(before uint64, limit int) ([]jito.BundleRecord, error) {
		if before == 0 {
			return h.RecentBundles(limit)
		}
		return h.RecentBundlesBefore(before, limit)
	}
}

// stepResult is the load generator's report on one step: per request,
// its latency from when it was due, how late the generator sent it, and
// whether it succeeded.
type stepResult struct {
	Rate      float64   `json:"rate"`
	First     int       `json:"first"`
	Kind      []int     `json:"kind"`
	LatencyMs []float64 `json:"latency_ms"`
	LateMs    []float64 `json:"late_ms"`
	OK        []bool    `json:"ok"`
	Checked   int       `json:"checked"`
	ClientCPU float64   `json:"client_cpu_s"`
	Problems  []string  `json:"problems"`
}

// seqHeader carries a request's index to an in-process timing handler.
const seqHeader = "X-Perfbench-Seq"

// loadgenMain is the load-generator process. It reads a servePlan on
// stdin and offers its step open-loop: request i is due i/Rate seconds
// after the step starts and is timed from then, however slow the
// server gets. It uses Conns connections and as many sending goroutines.
func loadgenMain([]string) error {
	var pl servePlan
	if err := json.NewDecoder(os.Stdin).Decode(&pl); err != nil {
		return fmt.Errorf("loadgen plan: %w", err)
	}
	reqs := pl.requests(pl.First + pl.N)[pl.First:]
	tr := &http.Transport{MaxConnsPerHost: pl.Conns, MaxIdleConnsPerHost: pl.Conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	res := stepResult{Rate: pl.Rate, First: pl.First, LatencyMs: make([]float64, pl.N),
		LateMs: make([]float64, pl.N), OK: make([]bool, pl.N), Kind: make([]int, pl.N)}
	var mu sync.Mutex
	cpu0 := selfCPU()
	jobs := make(chan int, pl.N) // sized to the step, so sending never waits on the server
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / pl.Rate * float64(time.Second))) }
	for w := 0; w < pl.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				seq := pl.First + i
				err := doRequest(client, &pl, seq, reqs[i], seq%pl.Params.CheckEvery == 0)
				res.LatencyMs[i] = float64(time.Since(due(i))) / 1e6
				if err == nil {
					res.OK[i] = true
					continue
				}
				mu.Lock()
				if len(res.Problems) < 10 {
					res.Problems = append(res.Problems, fmt.Sprintf("request %d: %v", seq, err))
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < pl.N; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		res.LateMs[i] = float64(time.Since(due(i))) / 1e6
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.ClientCPU = (selfCPU() - cpu0).Seconds()
	for i, rq := range reqs {
		res.Kind[i] = rq.kind
		if (pl.First+i)%pl.Params.CheckEvery == 0 {
			res.Checked++
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runStep runs the load-generator process for one step of plan.
func runStep(pl servePlan) (*stepResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(pl)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", "loadgen")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var res stepResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	return &res, nil
}

// doRequest sends one planned request; with check set it decodes the
// response and checks it against what the plan asked for.
func doRequest(client *http.Client, pl *servePlan, seq int, rq planReq, check bool) error {
	var req *http.Request
	var err error
	switch rq.kind {
	case kindRecent:
		req, err = http.NewRequest(http.MethodGet, pl.URL+"/api/v1/bundles/recent", nil)
	case kindWalk:
		req, err = http.NewRequest(http.MethodGet, pl.URL+"/api/v1/bundles/recent?before="+strconv.FormatUint(rq.before, 10), nil)
	default:
		body, merr := json.Marshal(explorer.DetailRequest{IDs: rq.ids})
		if merr != nil {
			return merr
		}
		req, err = http.NewRequest(http.MethodPost, pl.URL+"/api/v1/transactions", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !check {
		n, err := io.Copy(io.Discard, resp.Body)
		if err == nil && n == 0 {
			err = errors.New("empty body")
		}
		return err
	}
	return checkResponse(resp.Body, pl.HighWater, rq)
}

// checkResponse decodes a response body and checks its shape: pages are
// newest-first and seq-contiguous with the default length, and detail
// responses return every requested id.
func checkResponse(body io.Reader, highWater uint64, rq planReq) error {
	if rq.kind == kindTx {
		var d explorer.DetailResponse
		if err := json.NewDecoder(body).Decode(&d); err != nil {
			return fmt.Errorf("bad body: %w", err)
		}
		got := make(map[solana.Signature]bool, len(d.Transactions))
		for _, t := range d.Transactions {
			got[t.Sig] = true
		}
		for _, id := range rq.ids {
			if !got[id] {
				return fmt.Errorf("detail response misses id %s", id.Short())
			}
		}
		return nil
	}
	var page explorer.RecentResponse
	if err := json.NewDecoder(body).Decode(&page); err != nil {
		return fmt.Errorf("bad body: %w", err)
	}
	top := highWater
	if rq.kind == kindWalk {
		top = rq.before - 1
	}
	if len(page.Bundles) != defaultPage {
		return fmt.Errorf("page holds %d bundles, want %d", len(page.Bundles), defaultPage)
	}
	for i, b := range page.Bundles {
		if b.Seq != top-uint64(i) {
			return fmt.Errorf("page entry %d has seq %d, want %d", i, b.Seq, top-uint64(i))
		}
	}
	return nil
}

// effectiveLatency treats a failed request as infinitely late: it misses
// any latency limit.
func (s *stepResult) effectiveLatency() []float64 {
	out := make([]float64, len(s.LatencyMs))
	for i, l := range s.LatencyMs {
		out[i] = l
		if !s.OK[i] {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (s *stepResult) p99() float64 { return quantile(s.effectiveLatency(), 0.99) }

// meetsLimit reports whether the step met the p99 limit with no growing
// backlog: the last tenth of its requests must still finish within it.
func (s *stepResult) meetsLimit(limitMs float64) bool {
	lat := s.effectiveLatency()
	return quantile(lat, 0.99) <= limitMs && median(lat[len(lat)-len(lat)/10:]) <= limitMs
}

// ladder offers the fixed steps in order through step. Steps up to the
// high rate always run; above it the climb stops at the first step that
// misses the limit twice in a row, so one transient stall on a shared
// machine does not end it.
func ladder(p serveParams, step func(rate float64) (*stepResult, error)) ([]*stepResult, error) {
	var out []*stepResult
	for _, rate := range p.Ladder {
		res, err := step(rate)
		if err != nil {
			return out, err
		}
		if rate > p.HighRPS && !res.meetsLimit(p.P99LimitMs) {
			out = append(out, res)
			if res, err = step(rate); err != nil {
				return out, err
			}
			if !res.meetsLimit(p.P99LimitMs) {
				return append(out, res), nil
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// maxRPS is the highest sustainable rate the ladder shows. The climb
// ends at a step that missed the limit; between the highest step below
// it that met the limit and that step, maxRPS is the rate at which p99
// crosses the limit by linear interpolation. When the climb reached the
// top of the ladder it is the top rate.
func maxRPS(p serveParams, steps []*stepResult) float64 {
	last := steps[len(steps)-1]
	if last.meetsLimit(p.P99LimitMs) {
		return last.Rate
	}
	var lo *stepResult
	for _, s := range steps {
		if s.Rate < last.Rate && s.meetsLimit(p.P99LimitMs) && (lo == nil || s.Rate > lo.Rate) {
			lo = s
		}
	}
	p99 := last.p99()
	if lo == nil {
		return last.Rate * p.P99LimitMs / p99
	}
	loP99 := lo.p99()
	if math.IsInf(p99, 1) || p99 <= loP99 {
		return lo.Rate
	}
	return lo.Rate + (last.Rate-lo.Rate)*(p.P99LimitMs-loP99)/(p99-loP99)
}

// stepAt returns the last step offered at rate.
func stepAt(steps []*stepResult, rate float64) *stepResult {
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].Rate == rate {
			return steps[i]
		}
	}
	return nil
}
