package snapshot

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"testing"

	"jitomev/internal/jito"
)

// goldenPath is the collector's checked-in snapshot of its hand-built
// golden dataset: small, but with every section populated.
const goldenPath = "../collector/testdata/v3-golden.snap"

// addSeeds seeds a fuzz target with the golden fixture, every one of its
// strict prefixes, and an empty snapshot. extra appends the target's
// remaining arguments.
func addSeeds(f *testing.F, extra ...any) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := Write(&empty, &Snapshot{}, 1); err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(golden); n++ {
		f.Add(append([]any{golden[:n]}, extra...)...)
	}
	f.Add(append([]any{empty.Bytes()}, extra...)...)
}

// FuzzRead: every input either decodes or fails wrapping ErrCorrupt,
// never panics, and whatever decodes survives Write→Read unchanged.
func FuzzRead(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data), 1)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not wrapping ErrCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s, 1); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := Read(&buf, 1)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		snapshotsEqual(t, s, again)
	})
}

// FuzzScan: the streaming path under pruning must also decode or fail
// wrapping ErrCorrupt without panicking, every delivered batch must
// honour its aligned-detail accessor, and an unpruned full scan must
// accept exactly the inputs Read accepts.
func FuzzScan(f *testing.F) {
	addSeeds(f, false)
	f.Fuzz(func(t *testing.T, data []byte, pruneLong bool) {
		opts := ScanOptions{
			Workers: 2,
			Prune:   func(sec Section, _ ShardMeta) bool { return pruneLong && sec == SectionLong },
		}
		err := Scan(bytes.NewReader(data), opts, nil, func(_ Section, m ShardMeta, b *Batch, _ any) error {
			if b == nil {
				return nil
			}
			if b.Recs != nil && len(b.Recs) != m.Items {
				t.Fatalf("batch of %d records under a %d-item header", len(b.Recs), m.Items)
			}
			var scratch []jito.TxDetail
			for i := range b.Recs {
				scratch, _ = b.AppendDetails(scratch[:0], i)
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error not wrapping ErrCorrupt: %v", err)
		}
		if !pruneLong {
			if _, rerr := Read(bytes.NewReader(data), 1); (rerr == nil) != (err == nil) {
				t.Fatalf("Scan err = %v but Read err = %v", err, rerr)
			}
		}
	})
}

// goldenShard is one streaming-section payload of the golden fixture,
// inflated: the bytes decodeBundleShard or decodeOrphanShard receive.
type goldenShard struct {
	raw    []byte
	items  int
	orphan bool
}

// goldenShardPayloads walks the golden fixture frame by frame and
// returns every streaming shard's uncompressed payload.
func goldenShardPayloads(tb testing.TB) []goldenShard {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(golden))
	if _, err := br.Discard(len(MagicV3)); err != nil {
		tb.Fatal(err)
	}
	for _, id := range []byte{secMeta, secDays, secTipsLen1, secTipsLen3} {
		shards, total, err := readSectionHeader(br, id)
		if err == nil {
			err = forEachShard(br, shards, total, &snapObs{}, func(int, []byte) error { return nil })
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	var out []goldenShard
	for _, id := range []byte{secBundles3, secBundlesLong, secOrphans} {
		shards, total, err := readSectionHeader(br, id)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			m, err := readFrameV3(br, i, total)
			if err != nil {
				tb.Fatal(err)
			}
			blob, err := readBlob(br, i, m.CompLen)
			if err != nil {
				tb.Fatal(err)
			}
			raw, err := decompressShard(blob, m.RawLen)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, goldenShard{raw: raw, items: m.Items, orphan: id == secOrphans})
		}
	}
	return out
}

// FuzzDecodeShard feeds raw, uncompressed payloads straight to the
// shard decoders, below the gzip CRC that stops most FuzzRead and
// FuzzScan mutations first. Every input either decodes to a batch of
// exactly items entries whose detail accessor holds, or fails wrapping
// ErrCorrupt; nothing panics. items is reduced modulo the section's
// shard size, the bound readFrameV3 enforces before any decode.
func FuzzDecodeShard(f *testing.F) {
	shards := goldenShardPayloads(f)
	if len(shards) == 0 {
		f.Fatal("golden fixture has no streaming shards")
	}
	for _, sh := range shards {
		f.Add(sh.raw, uint16(sh.items), sh.orphan)
	}
	f.Fuzz(func(t *testing.T, raw []byte, items uint16, orphan bool) {
		if orphan {
			n := int(items) % (orphanShardSize + 1)
			b, err := decodeOrphanShard(n, raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error not wrapping ErrCorrupt: %v", err)
				}
				return
			}
			if len(b.Recs) != 0 || len(b.Details()) != n {
				t.Fatalf("orphan batch of %d records, %d details under %d items", len(b.Recs), len(b.Details()), n)
			}
			return
		}
		n := int(items) % (bundleShardSize + 1)
		b, err := decodeBundleShard(n, raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not wrapping ErrCorrupt: %v", err)
			}
			return
		}
		if len(b.Recs) != n {
			t.Fatalf("batch of %d records under %d items", len(b.Recs), n)
		}
		var scratch []jito.TxDetail
		for i := range b.Recs {
			scratch, _ = b.AppendDetails(scratch[:0], i)
		}
	})
}
