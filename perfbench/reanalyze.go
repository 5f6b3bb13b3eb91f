package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/query"
	"jitomev/internal/report"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/stream"
	"jitomev/internal/workload"
)

// reanalyzeParams size the reanalyze workload's snapshot: a StudyDays
// study at 1/Scale, tiled Tiles times across the window with fresh
// bundle ids and signatures, at the paper's retention (length-3 records
// with details).
type reanalyzeParams struct {
	StudyDays int `json:"study_days"`
	Scale     int `json:"scale"`
	Tiles     int `json:"tiles"`
	SetupReps int `json:"setup_reps"`
	MinRounds int `json:"min_rounds"`
}

// buildSnapshot generates the study, tiles it and saves the v3 snapshot
// at path, returning the number of length-3 records it holds.
func buildSnapshot(seed int64, p reanalyzeParams, path string) (int, error) {
	st := workload.New(workload.Params{Seed: seed, Days: p.StudyDays, Scale: p.Scale})
	store := explorer.NewStore()
	st.Run(store)
	recs := store.All()
	var ids []solana.Signature
	for i := range recs {
		if recs[i].NumTxs() == 3 {
			ids = append(ids, recs[i].TxIDs...)
		}
	}
	details := map[solana.Signature]jito.TxDetail{}
	for start := 0; start < len(ids); start += explorer.MaxDetailBatch {
		for _, d := range store.TxDetails(ids[start:min(len(ids), start+explorer.MaxDetailBatch)]) {
			details[d.Sig] = d
		}
	}

	data := collector.NewDataset(st.P.Clock(), 1024)
	span := solana.Slot(p.StudyDays) * solana.SlotsPerDay
	for k := 0; k < p.Tiles; k++ {
		shift := solana.Slot(k) * span
		for _, rec := range recs {
			rec.Seq += uint64(k * len(recs))
			rec.Slot += shift
			rec.UnixMs += int64(shift) * solana.SlotDuration.Milliseconds()
			var id jito.BundleID
			retag(id[:], rec.ID[:], k)
			rec.ID = id
			if rec.NumTxs() == 3 {
				orig := rec.TxIDs
				rec.TxIDs = make([]solana.Signature, len(orig))
				for i, sig := range orig {
					d, ok := details[sig]
					retag(rec.TxIDs[i][:], sig[:], k)
					if ok {
						d.Sig = rec.TxIDs[i]
						d.Slot += shift
						data.Details[d.Sig] = d
					}
				}
			}
			data.Ingest(rec)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := data.Save(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(data.Len3), nil
}

// retag writes tile k's copy of id into dst by folding k into its last
// eight bytes; tile 0 keeps the original.
func retag(dst, id []byte, k int) {
	copy(dst, id)
	n := len(id)
	binary.LittleEndian.PutUint64(dst[n-8:], binary.LittleEndian.Uint64(id[n-8:])^uint64(k)*0x9e3779b97f4a7c15)
}

// reanalyzeHooks let a test plant a slow reader under the snapshot.
type reanalyzeHooks struct {
	wrapReader func(io.Reader) io.Reader
}

func (h reanalyzeHooks) open(path string) (io.Reader, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var r io.Reader = f
	if h.wrapReader != nil {
		r = h.wrapReader(r)
	}
	return r, func() { f.Close() }, nil
}

// round is one pass of each of the three read paths `report -load`
// offers over the snapshot.
type round struct {
	records, events        int
	residentS, streamS     float64
	replayS                float64 // Replay and Finish
	loadS, analyzeS        float64
	replayOnlyS, finishS   float64
	summary                stream.Summary
	resident, streamed, rp *report.Results
}

// reanalyzeRound runs the streaming pass (query.Run) with nothing else
// resident, then the resident pass (LoadDatasetWorkers + AnalyzeN), then
// the incremental pass (stream.Replay + Finish) over the loaded dataset.
func reanalyzeRound(path string, h reanalyzeHooks) (round, error) {
	var rd round
	runtime.GC()
	in, closeIn, err := h.open(path)
	if err != nil {
		return rd, err
	}
	t0 := time.Now()
	rd.streamed, _, err = query.Run(in, query.Options{Workers: workers})
	rd.streamS = time.Since(t0).Seconds()
	closeIn()
	if err != nil {
		return rd, fmt.Errorf("streaming pass: %w", err)
	}

	in, closeIn, err = h.open(path)
	if err != nil {
		return rd, err
	}
	t0 = time.Now()
	data, err := collector.LoadDatasetWorkers(in, 1024, workers)
	t1 := time.Now()
	closeIn()
	if err != nil {
		return rd, fmt.Errorf("resident load: %w", err)
	}
	rd.resident = report.AnalyzeN(data, core.NewDefaultDetector(), 0, workers)
	t2 := time.Now()
	rd.loadS, rd.analyzeS, rd.residentS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t2.Sub(t0).Seconds()
	rd.records = len(data.Len3) + len(data.Long)

	eng := stream.New(stream.Config{
		Workers:  workers,
		Extended: len(data.Long) > 0,
		Clock:    data.Clock,
		Cross:    stream.CrossConfig{WindowSlots: 4},
	})
	t0 = time.Now()
	stream.Replay(eng, data)
	t1 = time.Now()
	rd.rp = eng.Finish()
	t2 = time.Now()
	rd.replayOnlyS, rd.finishS, rd.replayS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t2.Sub(t0).Seconds()
	rd.summary = eng.Summary()
	rd.events = int(rd.summary.Events)
	return rd, nil
}

// streamPeakHeapMB is the peak heap of an untimed streaming pass made
// with the collector pacing tightly (GOGC=10), so that the sampled heap
// tracks the pass's live data rather than the garbage default pacing
// lets pile up, which depends on when collections happen to fall. It
// is the median of reps passes.
func streamPeakHeapMB(path string, reps int) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	var peaks []float64
	for i := 0; i < reps; i++ {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		s := startHeapSampler()
		_, _, err = query.Run(f, query.Options{Workers: workers})
		peaks = append(peaks, s.stop())
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	return median(peaks), nil
}

// heapSampler tracks the live heap high-water through runtime/metrics.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-s.done:
				s.peak <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() float64 {
	close(s.done)
	return <-s.peak
}

// memReps is how many untimed streaming passes measure the peak heap.
const memReps = 3

// runReanalyze measures reanalyze: rounds of the three read paths over a
// snapshot built in set-up, each round checked for identical Results.
func runReanalyze(cfg config) (*run, error) {
	p := cfg.params.Reanalyze
	r := newRun()
	r.params = p
	path := filepath.Join(cfg.work, "reanalyze.snap")
	reps := p.SetupReps
	if cfg.trace {
		reps = 1
	}
	_, setupS, err := repeatSetup(reps, func() (int, error) { return buildSnapshot(cfg.seed, p, path) }, nil)
	if err != nil {
		return nil, fmt.Errorf("building the snapshot: %w", err)
	}
	r.set("setup_s", setupS)
	if cfg.trace {
		return r, traceReanalyze(cfg, r, path)
	}
	var resident, cpuPerK []float64
	start := time.Now()
	for len(resident) < p.MinRounds || time.Since(start).Seconds() < cfg.seconds {
		cpu0 := selfCPU()
		rd, err := reanalyzeRound(path, reanalyzeHooks{})
		if err != nil {
			return nil, err
		}
		cpu := (selfCPU() - cpu0).Seconds()
		r.check(rd)
		resident = append(resident, float64(rd.records)/rd.residentS)
		cpuPerK = append(cpuPerK, 1e3*cpu/(float64(2*rd.records+rd.events)/1e3))
	}
	r.set("items_per_s", median(resident))
	r.set("cpu_ms_per_kitem", median(cpuPerK))
	heap, err := streamPeakHeapMB(path, memReps)
	if err != nil {
		return nil, err
	}
	r.set("peak_mem_mb", heap)
	return r, nil
}

// check counts a round's three passes and fails the run unless their
// Results are identical.
func (r *run) check(rd round) {
	r.attempted += 3
	if !reflect.DeepEqual(rd.resident, rd.streamed) {
		r.failed++
		r.fail("reanalyze: streaming Results differ from resident")
	}
	if !reflect.DeepEqual(rd.resident, rd.rp) {
		r.failed++
		r.fail("reanalyze: replayed Results differ from resident")
	}
	if rd.records == 0 || rd.summary.Late != 0 || rd.summary.Duplicates != 0 {
		r.failed++
		r.fail("reanalyze: replay dropped events (late %d, duplicate %d)", rd.summary.Late, rd.summary.Duplicates)
	}
}

// traceReanalyze makes the traced reanalyze run: untraced and profiled
// rounds alternate, and each traced round adds a no-op snapshot scan and
// a per-record detection pass.
func traceReanalyze(cfg config, r *run, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("snapshot.mb", float64(fi.Size())/(1<<20))
	var untraced, traced []float64
	layers := map[string][]float64{}
	var shares cpuShares
	start := time.Now()
	for len(traced) < 1 || time.Since(start).Seconds() < cfg.seconds {
		rd, err := reanalyzeRound(path, reanalyzeHooks{})
		if err != nil {
			return err
		}
		r.check(rd)
		untraced = append(untraced, rd.streamS+rd.residentS+rd.replayS)

		var detectUs []float64
		var scanS float64
		sh, err := profiled(func() error {
			rd, err = reanalyzeRound(path, reanalyzeHooks{})
			if err != nil {
				return err
			}
			if scanS, err = scanOnly(path); err != nil {
				return err
			}
			detectUs, err = detectEach(path)
			return err
		})
		if err != nil {
			return err
		}
		shares.add(sh)
		r.check(rd)
		traced = append(traced, rd.streamS+rd.residentS+rd.replayS)
		for k, v := range map[string]float64{
			"snapshot.scan_s":               scanS,
			"collector.load_s":              rd.loadS,
			"report.analyze_s":              rd.analyzeS,
			"core.detect_us.p50":            quantile(detectUs, 0.5),
			"core.detect_us.p99":            quantile(detectUs, 0.99),
			"stream.replay_s":               rd.replayOnlyS,
			"stream.finish_s":               rd.finishS,
			"stream.detect_p99_ms":          float64(rd.summary.DetectP99) / 1e6,
			"reanalyze.stream_rec_per_s":    float64(rd.records) / rd.streamS,
			"reanalyze.replay_events_per_s": float64(rd.events) / rd.replayS,
		} {
			layers[k] = append(layers[k], v)
		}
	}
	for k, vs := range layers {
		r.set(k, median(vs))
	}
	r.set("trace.overhead_ratio", median(traced)/median(untraced))
	setCPUShares(r, shares)
	heap, err := streamPeakHeapMB(path, memReps)
	r.set("reanalyze.stream_peak_heap_mb", heap)
	return err
}

// scanOnly times snapshot.Scan over the file with a fold that does
// nothing: the decode cost under the streaming path.
func scanOnly(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t0 := time.Now()
	err = snapshot.Scan(f, snapshot.ScanOptions{Workers: workers}, nil,
		func(snapshot.Section, snapshot.ShardMeta, *snapshot.Batch, any) error { return nil })
	return time.Since(t0).Seconds(), err
}

// detectEach times Detector.Detect on every length-3 record, in µs.
func detectEach(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := collector.LoadDatasetWorkers(f, 1024, 0)
	if err != nil {
		return nil, err
	}
	det := core.NewDefaultDetector()
	out := make([]float64, 0, len(data.Len3))
	var buf []jito.TxDetail
	for i := range data.Len3 {
		rec := &data.Len3[i]
		dets, ok := data.AppendDetails(buf[:0], rec)
		if !ok {
			continue
		}
		buf = dets
		t0 := time.Now()
		det.Detect(rec, dets)
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}
