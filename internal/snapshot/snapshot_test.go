package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// randPubkey draws from a small pool so the intern table actually
// deduplicates, as it does for real signers and mints.
func randPubkey(rng *rand.Rand, pool int) solana.Pubkey {
	var p solana.Pubkey
	p[0] = byte(rng.Intn(pool))
	p[1] = 0xA5
	return p
}

func randSig(rng *rand.Rand) solana.Signature {
	var s solana.Signature
	rng.Read(s[:])
	return s
}

func randRecord(rng *rand.Rand, maxTxs int) jito.BundleRecord {
	rec := jito.BundleRecord{
		Seq:      rng.Uint64(),
		Slot:     solana.Slot(rng.Uint64() >> 20),
		UnixMs:   rng.Int63() - rng.Int63(), // negative values too
		TipLamps: rng.Uint64() >> uint(rng.Intn(64)),
	}
	rng.Read(rec.ID[:])
	n := rng.Intn(maxTxs + 1)
	for i := 0; i < n; i++ {
		rec.TxIDs = append(rec.TxIDs, randSig(rng))
	}
	return rec
}

func randDetail(rng *rand.Rand, maxDeltas int) jito.TxDetail {
	det := jito.TxDetail{
		Sig:         randSig(rng),
		Signer:      randPubkey(rng, 40),
		Slot:        solana.Slot(rng.Uint64() >> 20),
		Failed:      rng.Intn(2) == 0,
		TipLamports: rng.Uint64() >> uint(rng.Intn(64)),
		TipOnly:     rng.Intn(2) == 0,
	}
	n := rng.Intn(maxDeltas + 1)
	for i := 0; i < n; i++ {
		det.TokenDeltas = append(det.TokenDeltas, jito.TokenDelta{
			Owner: randPubkey(rng, 40),
			Mint:  randPubkey(rng, 8),
			Delta: rng.Int63() - rng.Int63(),
		})
	}
	return det
}

// testSnapshot builds a randomized snapshot big enough to span several
// shards when shardSize is small relative to n.
func testSnapshot(seed int64, nRecords, nDetails int) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{
		Genesis:    1_700_000_000_000_000_000,
		Days:       make(map[int]*DayAgg),
		TipsLen1:   stats.NewTipHistogram(),
		TipsLen3:   stats.NewTipHistogram(),
		Details:    make(map[solana.Signature]jito.TxDetail),
		Collected:  12345678,
		Duplicates: 999,
	}
	for d := 0; d < 7; d++ {
		agg := &DayAgg{Bundles: rng.Uint64() >> 32, Txs: rng.Uint64() >> 32,
			DefensiveCount: uint64(rng.Intn(1000)), PriorityCount: uint64(rng.Intn(1000)),
			DefensiveSpend: rng.Uint64() >> 24}
		for i := range agg.ByLength {
			agg.ByLength[i] = uint64(rng.Intn(100000))
		}
		s.Days[d*3-2] = agg // negative day included
	}
	for i := 0; i < 2000; i++ {
		s.TipsLen1.Add(float64(rng.Intn(1_000_000) + 1))
		s.TipsLen3.Add(float64(rng.Intn(100_000_000) + 1))
	}
	for i := 0; i < nRecords; i++ {
		s.Len3 = append(s.Len3, randRecord(rng, 5))
	}
	for i := 0; i < nRecords/4; i++ {
		s.Long = append(s.Long, randRecord(rng, 5))
	}
	for i := 0; i < nDetails; i++ {
		det := randDetail(rng, 6)
		s.Details[det.Sig] = det
	}
	return s
}

func histEqual(a, b *stats.LogHistogram) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

func snapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Genesis != want.Genesis || got.Collected != want.Collected ||
		got.Duplicates != want.Duplicates {
		t.Errorf("scalars diverge: %d/%d/%d vs %d/%d/%d",
			got.Genesis, got.Collected, got.Duplicates,
			want.Genesis, want.Collected, want.Duplicates)
	}
	if len(got.Days) != len(want.Days) {
		t.Fatalf("days: %d vs %d", len(got.Days), len(want.Days))
	}
	for d, agg := range want.Days {
		g := got.Days[d]
		if g == nil || *g != *agg {
			t.Fatalf("day %d diverges: %+v vs %+v", d, g, agg)
		}
	}
	if !histEqual(want.TipsLen1, got.TipsLen1) || !histEqual(want.TipsLen3, got.TipsLen3) {
		t.Error("histograms diverge")
	}
	for name, pair := range map[string][2][]jito.BundleRecord{
		"len3": {want.Len3, got.Len3}, "long": {want.Long, got.Long},
	} {
		w, g := pair[0], pair[1]
		if len(w) != len(g) {
			t.Fatalf("%s: %d vs %d records", name, len(g), len(w))
		}
		for i := range w {
			if !w[i].Equal(&g[i]) {
				t.Fatalf("%s[%d] diverges:\n%+v\n%+v", name, i, g[i], w[i])
			}
		}
	}
	if len(got.Details) != len(want.Details) {
		t.Fatalf("details: %d vs %d", len(got.Details), len(want.Details))
	}
	for sig, det := range want.Details {
		g, ok := got.Details[sig]
		if !ok || !det.Equal(&g) {
			t.Fatalf("detail %x diverges:\n%+v\n%+v", sig[:4], g, det)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	s := testSnapshot(1, 3000, 2500) // below the shard sizes: the single-shard path
	for _, workers := range []int{1, 2, 4, 0} {
		var buf bytes.Buffer
		if err := Write(&buf, s, workers); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snapshotsEqual(t, s, got)
	}
}

// TestRoundTripMultiShard forces many shards by exceeding the shard size
// thresholds, exercising the parallel encode and decode paths across
// shard boundaries.
func TestRoundTripMultiShard(t *testing.T) {
	if testing.Short() {
		t.Skip("large round trip")
	}
	s := testSnapshot(2, 3*bundleShardSize+17, 2*orphanShardSize+5)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, s, got)
}

func TestWriteByteIdenticalAcrossWorkers(t *testing.T) {
	s := testSnapshot(3, 2*bundleShardSize+100, orphanShardSize+50)
	var ref bytes.Buffer
	if err := Write(&ref, s, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		var buf bytes.Buffer
		if err := Write(&buf, s, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d produced different bytes (%d vs %d)",
				workers, buf.Len(), ref.Len())
		}
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Genesis: 42} // nil maps, nil slices, nil histograms
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genesis != 42 || got.TipsLen1 != nil || got.TipsLen3 != nil ||
		got.Len3 != nil || got.Long != nil || len(got.Days) != 0 {
		t.Errorf("empty snapshot mutated on round trip: %+v", got)
	}
}

func TestRecordOverLimitRejected(t *testing.T) {
	rec := jito.BundleRecord{TxIDs: make([]solana.Signature, 256)}
	s := &Snapshot{Len3: []jito.BundleRecord{rec}}
	if err := Write(&buffer{}, s, 1); err == nil {
		t.Error("256-transaction record encoded without error")
	}
}

// buffer is a minimal io.Writer for error-path tests.
type buffer struct{ bytes.Buffer }

func TestReadRejectsCorruption(t *testing.T) {
	s := testSnapshot(4, 500, 400)
	var buf bytes.Buffer
	if err := Write(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("jitosnpX"), good[8:]...),
		"v2 magic":      append([]byte("jitosnp2"), good[8:]...),
		"truncated":     good[:len(good)/2],
		"no terminator": good[:len(good)-1],
	}
	// Flip a byte inside a compressed shard body (past the magic and
	// first section headers): the gzip CRC or the columnar layout must
	// catch it.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bit flip"] = flipped

	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data), 0); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

// withSection returns an empty snapshot's bytes with section id's body
// (shard count, item total, frames) replaced by body. The sections after
// meta are empty, so each is the 3 bytes id, 0, 0.
func withSection(t *testing.T, id byte, body ...uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{}, 1); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	i := bytes.LastIndex(good, []byte{id, 0, 0})
	if i < 0 {
		t.Fatalf("section %#x header not found", id)
	}
	out := append([]byte(nil), good[:i+1]...)
	for _, v := range body {
		out = appendUvarint(out, v)
	}
	return append(out, good[i+3:]...)
}

// TestReadRejectsHostileLengths: a header claiming more than any frame
// backs — a multi-GB shard, a section of 2⁴⁰ records, 2³⁶ days, a frame
// over the writer's shard size — must fail fast with ErrCorrupt on both
// read paths, before allocating for the claim.
func TestReadRejectsHostileLengths(t *testing.T) {
	rawLen := []byte(MagicV3)
	rawLen = append(rawLen, secMeta)
	rawLen = appendUvarint(rawLen, 1)     // one shard
	rawLen = appendUvarint(rawLen, 1)     // one item
	rawLen = appendUvarint(rawLen, 1)     // items
	rawLen = appendUvarint(rawLen, 1<<40) // rawLen: hostile
	rawLen = appendUvarint(rawLen, 10)

	cases := map[string][]byte{
		"shard rawLen 2^40":   rawLen,
		"bundles3 total 2^40": withSection(t, secBundles3, 0, 1<<40),
		"days total 2^36":     withSection(t, secDays, 0, 1<<36),
		// One bundle frame of 2²⁰ records in a section declaring as many:
		// within the section total, far over the shard size.
		"frame over shard size": withSection(t, secBundles3, 1, 1<<20,
			1<<20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, data := range cases {
		start := time.Now()
		if _, err := Read(bytes.NewReader(data), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Read err = %v, want ErrCorrupt", name, err)
		}
		err := Scan(bytes.NewReader(data), ScanOptions{}, nil, func(Section, ShardMeta, *Batch, any) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Scan err = %v, want ErrCorrupt", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejected after %v, want well under 1s", name, d)
		}
	}
}

// TestRandomizedRoundTrip is the quick-style sweep over the record and
// detail codecs: many small random snapshots, including empty slices,
// nil maps, zero values and maximum-length token-delta lists.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		s := &Snapshot{Genesis: rng.Int63()}
		if rng.Intn(4) > 0 {
			s.Details = make(map[solana.Signature]jito.TxDetail)
			for i, n := 0, rng.Intn(50); i < n; i++ {
				det := randDetail(rng, 16)
				if i%7 == 0 {
					det.TokenDeltas = nil
				}
				if i%11 == 0 { // max-length delta list
					det.TokenDeltas = nil
					for j := 0; j < 64; j++ {
						det.TokenDeltas = append(det.TokenDeltas, jito.TokenDelta{
							Owner: randPubkey(rng, 3), Mint: randPubkey(rng, 2),
							Delta: int64(j) - 32,
						})
					}
				}
				s.Details[det.Sig] = det
			}
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			rec := randRecord(rng, 5)
			if i%5 == 0 {
				rec.TxIDs = nil // empty transaction list
			}
			s.Len3 = append(s.Len3, rec)
		}
		var buf bytes.Buffer
		if err := Write(&buf, s, rng.Intn(4)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := Read(&buf, rng.Intn(4))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		snapshotsEqual(t, s, got)
	}
}
