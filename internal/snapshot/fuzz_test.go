package snapshot

import (
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

// FuzzScan: the streaming path under pruning and the records-only fast
// path must also decode or fail wrapping ErrCorrupt without panicking,
// every delivered batch must honour its aligned-detail accessor, and an
// unpruned full scan must accept exactly the inputs Read accepts.
func FuzzScan(f *testing.F) {
	addSeeds(f, false, false)
	f.Fuzz(func(t *testing.T, data []byte, pruneLong, recordsOnly bool) {
		opts := ScanOptions{
			Workers:     2,
			Prune:       func(sec Section, _ ShardMeta) bool { return pruneLong && sec == SectionLong },
			RecordsOnly: func(Section) bool { return recordsOnly },
		}
		err := Scan(bytes.NewReader(data), opts, nil, func(_ Section, m ShardMeta, b *Batch, _ any) error {
			if b == nil {
				return nil
			}
			if b.Recs != nil && len(b.Recs) != m.Items {
				t.Fatalf("batch of %d records under a %d-item header", len(b.Recs), m.Items)
			}
			if b.HasDetails() {
				var scratch []jito.TxDetail
				for i := range b.Recs {
					scratch, _ = b.AppendDetails(scratch[:0], i)
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error not wrapping ErrCorrupt: %v", err)
		}
		if !pruneLong && !recordsOnly {
			if _, rerr := Read(bytes.NewReader(data), 1); (rerr == nil) != (err == nil) {
				t.Fatalf("Scan err = %v but Read err = %v", err, rerr)
			}
		}
	})
}
