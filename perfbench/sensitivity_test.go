package main

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

// The sensitivity self-check plants a delay at a public seam of one
// workload and checks that the benchmark sees it there, beyond the bound
// BENCHMARK.json fixes for items_per_s, and nowhere else. The delay adds
// half the workload's time, cutting its rate by a third: a 20% cut would
// sit inside the 0.25 bound that run-to-run noise on a shared 2-core box
// requires. The inputs are small versions of the benchmark's own.

const (
	plantShare = 0.5 // added time, as a share of the clean run's
	plantReps  = 5
)

var testStudy = workload.Params{Seed: 7, Days: 1, Scale: 1000}

var testReanalyze = reanalyzeParams{StudyDays: 1, Scale: 500, Tiles: 60}

func itemsBound(t *testing.T) float64 {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "items_per_s" {
			return m.Bound
		}
	}
	t.Fatal("BENCHMARK.json declares no items_per_s")
	return 0
}

// studyRate is the median study-http rate over plantReps pipeline runs,
// in runs per second (the bundle count is the same for every run), and
// the number of transport calls one run makes.
func studyRate(t *testing.T, wrap func(collector.Transport) collector.Transport) (rate float64, calls int) {
	t.Helper()
	var rates []float64
	for i := 0; i < plantReps; i++ {
		counter := &slowTransport{}
		t0 := time.Now()
		_, err := studyPipeline(testStudy, studyHooks{wrap: func(next collector.Transport) collector.Transport {
			counter.next = next
			if wrap != nil {
				counter.next = wrap(next)
			}
			return counter
		}})
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, 1/time.Since(t0).Seconds())
		calls = counter.calls
	}
	return median(rates), calls
}

// reanalyzeRates returns the median resident and replay rates over
// plantReps rounds, and the reads one resident load makes.
func reanalyzeRates(t *testing.T, path string, wrap func(io.Reader) io.Reader) (resident, replay float64, reads int) {
	t.Helper()
	var res, rep []float64
	for i := 0; i < plantReps; i++ {
		counter := &slowReader{}
		rd, err := reanalyzeRound(path, reanalyzeHooks{wrapReader: func(r io.Reader) io.Reader {
			counter.r = r
			if wrap != nil {
				counter.r = wrap(r)
			}
			counter.reads = 0
			return counter
		}})
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, float64(rd.records)/rd.residentS)
		rep = append(rep, float64(rd.events)/rd.replayS)
		reads = counter.reads
		r := newRun()
		r.check(rd)
		if len(r.problems) > 0 {
			t.Fatal(r.problems)
		}
	}
	return median(res), median(rep), reads
}

func change(base, v float64) float64 { return (v - base) / base }

func TestPlantedTransportDelayMovesStudyOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("times real pipeline runs")
	}
	bound := itemsBound(t)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := buildSnapshot(7, testReanalyze, path); err != nil {
		t.Fatal(err)
	}
	cleanStudy, calls := studyRate(t, nil)
	cleanRes, _, _ := reanalyzeRates(t, path, nil)

	delay := time.Duration(plantShare / cleanStudy / float64(calls) * float64(time.Second))
	slow := func(next collector.Transport) collector.Transport { return &slowTransport{next: next, delay: delay} }
	plantedStudy, _ := studyRate(t, slow)
	// The plant sits in study-http's transport; reanalyze never calls one.
	plantedRes, _, _ := reanalyzeRates(t, path, nil)

	t.Logf("study-http rate %+.1f%%, reanalyze resident rate %+.1f%%; bound %.0f%%",
		100*change(cleanStudy, plantedStudy), 100*change(cleanRes, plantedRes), 100*bound)
	if d := change(cleanStudy, plantedStudy); -d <= bound {
		t.Errorf("study-http rate moved %.1f%% under a transport delay of %.0f%% of its time; bound is %.0f%%", 100*d, 100*plantShare, 100*bound)
	}
	if d := change(cleanRes, plantedRes); d < -bound || d > bound {
		t.Errorf("reanalyze resident rate moved %.1f%% though the plant is not on its path", 100*d)
	}
}

func TestPlantedReaderDelayMovesReanalyzeOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("times real pipeline runs")
	}
	bound := itemsBound(t)
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := buildSnapshot(7, testReanalyze, path); err != nil {
		t.Fatal(err)
	}
	cleanRes, cleanReplay, reads := reanalyzeRates(t, path, nil)
	cleanStudy, _ := studyRate(t, nil)

	delay := time.Duration(plantShare * (float64(testRecords(t, path)) / cleanRes) / float64(reads) * float64(time.Second))
	slow := func(r io.Reader) io.Reader { return &slowReader{r: r, delay: delay} }
	plantedRes, plantedReplay, _ := reanalyzeRates(t, path, slow)
	plantedStudy, _ := studyRate(t, nil)

	t.Logf("reanalyze resident rate %+.1f%%, replay rate %+.1f%%, study-http rate %+.1f%%; bound %.0f%%",
		100*change(cleanRes, plantedRes), 100*change(cleanReplay, plantedReplay), 100*change(cleanStudy, plantedStudy), 100*bound)
	if d := change(cleanRes, plantedRes); -d <= bound {
		t.Errorf("reanalyze resident rate moved %.1f%% under a reader delay of %.0f%% of its time; bound is %.0f%%", 100*d, 100*plantShare, 100*bound)
	}
	// Replay works on the loaded dataset and never reads the snapshot.
	if d := change(cleanReplay, plantedReplay); d < -bound || d > bound {
		t.Errorf("replay rate moved %.1f%% though the plant is not on its path", 100*d)
	}
	if d := change(cleanStudy, plantedStudy); d < -bound || d > bound {
		t.Errorf("study-http rate moved %.1f%% though the plant is not on its path", 100*d)
	}
}

func testRecords(t *testing.T, path string) int {
	t.Helper()
	rd, err := reanalyzeRound(path, reanalyzeHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return rd.records
}

// slowTransport counts collector.Transport calls and delays each.
type slowTransport struct {
	next  collector.Transport
	delay time.Duration
	calls int
}

// spin waits for d; time.Sleep overshoots millisecond waits by too much
// for the plant to keep its size.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func (s *slowTransport) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	s.calls++
	spin(s.delay)
	return s.next.RecentBundles(limit)
}

func (s *slowTransport) RecentBundlesBefore(before uint64, limit int) ([]jito.BundleRecord, error) {
	s.calls++
	spin(s.delay)
	return s.next.RecentBundlesBefore(before, limit)
}

func (s *slowTransport) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	s.calls++
	spin(s.delay)
	return s.next.TxDetails(ids)
}

// slowReader counts reads from the snapshot file and delays each.
type slowReader struct {
	r     io.Reader
	delay time.Duration
	reads int
}

func (s *slowReader) Read(p []byte) (int, error) {
	s.reads++
	spin(s.delay)
	return s.r.Read(p)
}
