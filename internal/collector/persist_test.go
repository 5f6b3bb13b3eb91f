package collector

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"testing"

	"jitomev/internal/jito"

	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

func collectedDataset(t *testing.T) *Collector {
	t.Helper()
	st := workload.New(workload.Params{Seed: 6, Days: 3, Scale: 20_000,
		Outages: []workload.DayRange{}})
	store := explorer.NewStore()
	c := New(Config{PageLimit: 50}, st.P.Clock(), Direct{Store: store})
	sink := &PollingSink{Store: store, Collector: c}
	st.Run(sink)
	if _, err := c.FetchDetails(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	c := collectedDataset(t)
	var buf bytes.Buffer
	if err := c.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, 4*50)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Collected != c.Data.Collected || loaded.Duplicates != c.Data.Duplicates {
		t.Errorf("counters: %d/%d vs %d/%d",
			loaded.Collected, loaded.Duplicates, c.Data.Collected, c.Data.Duplicates)
	}
	if len(loaded.Len3) != len(c.Data.Len3) || len(loaded.Details) != len(c.Data.Details) {
		t.Fatalf("records: %d/%d vs %d/%d",
			len(loaded.Len3), len(loaded.Details), len(c.Data.Len3), len(c.Data.Details))
	}
	if !loaded.Clock.Genesis.Equal(c.Data.Clock.Genesis) {
		t.Error("clock genesis lost")
	}

	// Detection over the loaded dataset must be identical.
	det := core.NewDefaultDetector()
	sweep := func(d *Dataset) (sandwiches int, loss float64) {
		for i := range d.Len3 {
			rec := &d.Len3[i]
			if details, ok := d.DetailsFor(rec); ok {
				if v := det.Detect(rec, details); v.Sandwich {
					sandwiches++
					loss += v.VictimLossLamports
				}
			}
		}
		return
	}
	na, la := sweep(c.Data)
	nb, lb := sweep(loaded)
	if na != nb || la != lb {
		t.Errorf("detection diverges after save/load: %d/%.0f vs %d/%.0f", na, la, nb, lb)
	}
	if c.Data.TipsLen1.Quantile(0.5) != loaded.TipsLen1.Quantile(0.5) ||
		c.Data.TipsLen3.Quantile(0.95) != loaded.TipsLen3.Quantile(0.95) {
		t.Error("tip histograms diverge after save/load")
	}
	// Per-day aggregates survive.
	for day, agg := range c.Data.Days {
		got := loaded.Days[day]
		if got == nil || got.Bundles != agg.Bundles || got.DefensiveSpend != agg.DefensiveSpend {
			t.Errorf("day %d aggregate lost", day)
		}
	}
}

func TestLoadedDatasetResumesWithoutDoubleCounting(t *testing.T) {
	c := collectedDataset(t)
	var buf bytes.Buffer
	if err := c.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, 4*50)
	if err != nil {
		t.Fatal(err)
	}

	// Re-ingest the most recent length-3 record: the reseeded dedup
	// window must reject it.
	if len(loaded.Len3) == 0 {
		t.Skip("no length-3 records in sample")
	}
	last := loaded.Len3[len(loaded.Len3)-1]
	before := loaded.Collected
	if loaded.Ingest(last) {
		t.Error("checkpoint-straddling record re-ingested after load")
	}
	if loaded.Collected != before {
		t.Error("collected count changed on duplicate")
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader([]byte("not a snapshot")), 64); err == nil {
		t.Error("garbage accepted")
	}
	// A well-formed gzip stream is still not a snapshot.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("gibberish"))
	zw.Close()
	if _, err := LoadDataset(&buf, 64); err == nil {
		t.Error("gzip-wrapped garbage accepted")
	}
}

// TestLoadCheckpointRefusesNonV3 is the -resume and merge regression
// test: a checkpoint that is not a complete current-format snapshot —
// the opening bytes of a v1 (gzip+gob) or v2 archive, a truncated
// header, foreign bytes, a cut body — must be refused as ErrCorrupt,
// never decoded (or panicked over) and then rewritten.
func TestLoadCheckpointRefusesNonV3(t *testing.T) {
	c := collectedDataset(t)

	var v3 bytes.Buffer
	if err := c.Data.Save(&v3); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatasetObs(bytes.NewReader(v3.Bytes()), 256, 1, nil); err != nil {
		t.Fatalf("v3 checkpoint refused: %v", err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"v1 archive", []byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff, 0x01, 0x02}},
		{"v2 archive", append([]byte("jitosnp2"), v3.Bytes()[8:]...)},
		{"empty file", nil},
		{"one byte", []byte{'j'}},
		{"short magic", []byte("jitos")},
		{"foreign bytes", []byte("PK\x03\x04 definitely a zip")},
		{"damaged magic", []byte("jitosnp9????????")},
		{"truncated body", v3.Bytes()[:v3.Len()/2]},
	}
	for _, tc := range cases {
		_, err := LoadDatasetObs(bytes.NewReader(tc.data), 256, 1, nil)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestStoreRecentBefore(t *testing.T) {
	store := explorer.NewStore()
	for i := 1; i <= 10; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	// Cursor at seq 6: returns 5,4,3 for limit 3.
	got, err := store.RecentBefore(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 5 || got[2].Seq != 3 {
		t.Fatalf("RecentBefore(6,3) = %+v", seqsOf(got))
	}
	// Cursor at 1: nothing older — caught up, not an error.
	if got, err := store.RecentBefore(1, 5); err != nil || len(got) != 0 {
		t.Errorf("RecentBefore(1) returned %v, %v", seqsOf(got), err)
	}
	// Cursor 0 means from the newest.
	got, err = store.RecentBefore(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 10 {
		t.Errorf("RecentBefore(0,2) = %v", seqsOf(got))
	}
}

func seqsOf(recs []jito.BundleRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i := range recs {
		out[i] = recs[i].Seq
	}
	return out
}

func TestBackfillRecoversSpike(t *testing.T) {
	run := func(backfillPages int) *Collector {
		store := explorer.NewStore()
		c := New(Config{PageLimit: 5, BackfillPages: backfillPages},
			testClock, Direct{Store: store})
		for i := 1; i <= 5; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		c.Poll()
		// Spike: 30 bundles between polls with a 5-bundle page.
		for i := 6; i <= 35; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		c.Poll()
		return c
	}

	paper := run(0)
	if paper.Data.Collected != 10 {
		t.Fatalf("paper behaviour collected %d, want 10", paper.Data.Collected)
	}
	if paper.BackfilledBundles() != 0 {
		t.Error("backfill ran while disabled")
	}

	fixed := run(10)
	if fixed.Data.Collected != 35 {
		t.Fatalf("backfill collected %d, want all 35", fixed.Data.Collected)
	}
	if fixed.BackfilledBundles() != 25 || fixed.BackfillPolls() == 0 {
		t.Errorf("backfilled=%d polls=%d", fixed.BackfilledBundles(), fixed.BackfillPolls())
	}
	// Overlap statistic still records the broken pair — backfill repairs
	// data, not the diagnostic.
	if fixed.OverlapPairs() != 0 || fixed.Pairs() != 1 {
		t.Error("backfill should not fake the overlap statistic")
	}
}

func TestBackfillBudgetBounded(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 5, BackfillPages: 2}, testClock, Direct{Store: store})
	for i := 1; i <= 5; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	// A spike far larger than the backfill budget (2 pages = 10 bundles).
	for i := 6; i <= 105; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	// Collected: 5 + page 5 + backfill 2*5 = 20.
	if c.Data.Collected != 20 {
		t.Errorf("collected %d, want 20 under a 2-page budget", c.Data.Collected)
	}
}

func TestBackfillOverHTTP(t *testing.T) {
	store := explorer.NewStore()
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()
	c := New(Config{PageLimit: 5, BackfillPages: 10}, testClock, NewHTTP(srv.URL))

	for i := 1; i <= 5; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Data.Collected != 25 {
		t.Errorf("HTTP backfill collected %d, want 25", c.Data.Collected)
	}
}

// updateGolden regenerates testdata/v3-golden.snap — only ever together
// with a magic bump, since the fixture pins the current writer's bytes:
// go test ./internal/collector -run GoldenV3 -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the v3 golden fixture")

// goldenDataset is the hand-built dataset behind the golden fixture.
// Fully deterministic — no workload, no randomness — so the assertions
// in TestGoldenV3Fixture can be exact.
func goldenDataset() *Dataset {
	d := NewDataset(testClock, 64)
	var signerA, signerB, mintSOL, mintMEME solana.Pubkey
	signerA[0], signerB[0], mintSOL[0], mintMEME[0] = 0xAA, 0xBB, 0x01, 0x02
	for i := 0; i < 30; i++ {
		rec := jito.BundleRecord{
			Seq:      uint64(i + 1),
			Slot:     solana.Slot(i) * 90_000,
			UnixMs:   1_739_059_200_000 + int64(i)*40_000_000,
			TipLamps: uint64(500 * (i + 1)),
		}
		rec.ID[0], rec.ID[31] = byte(i), 0x77
		n := 1 + i%5
		for j := 0; j < n; j++ {
			var sig solana.Signature
			sig[0], sig[1], sig[63] = byte(i), byte(j), 0x3C
			rec.TxIDs = append(rec.TxIDs, sig)
		}
		d.Ingest(rec)
	}
	for r := range d.Len3 {
		rec := &d.Len3[r]
		for j, sig := range rec.TxIDs {
			det := jito.TxDetail{Sig: sig, Signer: signerA, Slot: rec.Slot,
				TipLamports: rec.TipLamps * uint64(j)}
			if j == 1 {
				det.Signer = signerB
				det.TokenDeltas = []jito.TokenDelta{
					{Owner: signerB, Mint: mintSOL, Delta: -1_000_000},
					{Owner: signerB, Mint: mintMEME, Delta: 42},
				}
			}
			if j == 2 {
				det.Failed, det.TipOnly = true, true
			}
			d.Details[sig] = det
		}
	}
	return d
}

// datasetsEquivalent asserts a and b carry the same collection results.
func datasetsEquivalent(t *testing.T, want, got *Dataset) {
	t.Helper()
	if !got.Clock.Genesis.Equal(want.Clock.Genesis) {
		t.Errorf("genesis: %v vs %v", got.Clock.Genesis, want.Clock.Genesis)
	}
	if got.Collected != want.Collected || got.Duplicates != want.Duplicates {
		t.Errorf("counters: %d/%d vs %d/%d",
			got.Collected, got.Duplicates, want.Collected, want.Duplicates)
	}
	if len(got.Days) != len(want.Days) {
		t.Fatalf("days: %d vs %d", len(got.Days), len(want.Days))
	}
	for day, agg := range want.Days {
		g := got.Days[day]
		if g == nil || *g != *agg {
			t.Fatalf("day %d: %+v vs %+v", day, g, agg)
		}
	}
	wantH1, _ := want.TipsLen1.MarshalBinary()
	gotH1, _ := got.TipsLen1.MarshalBinary()
	wantH3, _ := want.TipsLen3.MarshalBinary()
	gotH3, _ := got.TipsLen3.MarshalBinary()
	if !bytes.Equal(wantH1, gotH1) || !bytes.Equal(wantH3, gotH3) {
		t.Error("tip histograms diverge")
	}
	for _, recs := range []struct {
		name      string
		want, got []jito.BundleRecord
	}{{"len3", want.Len3, got.Len3}, {"long", want.Long, got.Long}} {
		if len(recs.want) != len(recs.got) {
			t.Fatalf("%s: %d vs %d", recs.name, len(recs.got), len(recs.want))
		}
		for i := range recs.want {
			if !recs.want[i].Equal(&recs.got[i]) {
				t.Fatalf("%s[%d]: %+v vs %+v", recs.name, i, recs.got[i], recs.want[i])
			}
		}
	}
	if len(got.Details) != len(want.Details) {
		t.Fatalf("details: %d vs %d", len(got.Details), len(want.Details))
	}
	for sig, det := range want.Details {
		g, ok := got.Details[sig]
		if !ok || !det.Equal(&g) {
			t.Fatalf("detail %x: %+v vs %+v", sig[:4], g, det)
		}
	}
}

// TestGoldenV3Fixture pins the container across commits: a serial Save
// of goldenDataset must reproduce the checked-in bytes exactly, and those
// bytes must load back to the same dataset. A layout change that alters
// them must bump the snapshot magic and regenerate the fixture.
func TestGoldenV3Fixture(t *testing.T) {
	const path = "testdata/v3-golden.snap"
	var buf bytes.Buffer
	if err := goldenDataset().SaveWorkers(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save wrote %d bytes that differ from the %d-byte %s", buf.Len(), len(want), path)
	}
	loaded, err := LoadDataset(bytes.NewReader(want), 64)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, goldenDataset(), loaded)
}

// TestSaveByteIdenticalAcrossWorkers: checkpoint bytes are a pure
// function of the dataset, not of the machine's core count.
func TestSaveByteIdenticalAcrossWorkers(t *testing.T) {
	d := collectedDataset(t).Data
	var ref bytes.Buffer
	if err := d.SaveWorkers(&ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 0} {
		var buf bytes.Buffer
		if err := d.SaveWorkers(&buf, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d: %d bytes vs %d-byte reference, or content drift",
				workers, buf.Len(), ref.Len())
		}
	}
	// And a parallel load of those bytes round-trips.
	loaded, err := LoadDatasetWorkers(&ref, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, d, loaded)
}
