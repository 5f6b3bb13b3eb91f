package faults

import (
	"errors"
	"testing"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// fakeInner serves a fixed page and echoes detail requests back fully.
type fakeInner struct {
	page  []jito.BundleRecord
	calls int
}

func makePage(n int) []jito.BundleRecord {
	page := make([]jito.BundleRecord, n)
	for i := range page {
		page[i].Seq = uint64(n - i) // newest first, like the explorer
		page[i].ID[0] = byte(n - i)
	}
	return page
}

func (f *fakeInner) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	f.calls++
	return f.page, nil
}

func (f *fakeInner) RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	f.calls++
	return f.page, nil
}

func (f *fakeInner) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	f.calls++
	out := make([]jito.TxDetail, len(ids))
	for i, id := range ids {
		out[i] = jito.TxDetail{Sig: id}
	}
	return out, nil
}

func makeIDs(n int) []solana.Signature {
	ids := make([]solana.Signature, n)
	for i := range ids {
		ids[i][0] = byte(i + 1)
	}
	return ids
}

// driveUntil pulls page calls until the injector emits class c, returning
// the faulted result. Rate 1 guarantees progress.
func driveUntil(t *testing.T, tr *Transport, c Class) ([]jito.BundleRecord, error) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		page, err := tr.RecentBundles(10)
		if Classify(err) == c {
			return page, err
		}
		if err == nil && c == ClassDuplicate && len(page) > len(tr.Inner.(*fakeInner).page) {
			return page, nil
		}
		if err == nil && c == ClassReorder && !inOrder(page) {
			return page, nil
		}
	}
	t.Fatalf("class %v never surfaced", c)
	return nil, nil
}

func inOrder(page []jito.BundleRecord) bool {
	for i := 1; i < len(page); i++ {
		if page[i].Seq > page[i-1].Seq {
			return false
		}
	}
	return true
}

func TestTransportErrorClasses(t *testing.T) {
	inner := &fakeInner{page: makePage(20)}
	tr := WrapTransport(inner, NewInjector(5, 1))

	for _, class := range []Class{ClassTransport, ClassThrottle, ClassServer, ClassTimeout, ClassTruncate, ClassCorrupt} {
		before := inner.calls
		_, err := driveUntil(t, tr, class)
		if err == nil {
			t.Fatalf("class %v produced no error", class)
		}
		var fe *Error
		if !errors.As(err, &fe) || fe.Class != class {
			t.Fatalf("class %v surfaced as %v", class, err)
		}
		switch class {
		case ClassThrottle:
			if fe.Status != 429 || fe.RetryAfter <= 0 {
				t.Errorf("throttle fault missing status/Retry-After: %+v", fe)
			}
		case ClassServer:
			if fe.Status < 500 || fe.Status > 599 {
				t.Errorf("server fault status = %d", fe.Status)
			}
		case ClassTransport, ClassTimeout:
			// Connection-level faults never reach the inner transport
			// beyond the calls that succeeded while driving.
			_ = before
		}
	}
}

func TestTransportDuplicateEntries(t *testing.T) {
	inner := &fakeInner{page: makePage(40)}
	tr := WrapTransport(inner, NewInjector(6, 1))
	page, err := driveUntil(t, tr, ClassDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) <= 40 {
		t.Fatalf("duplicate fault produced no duplicates: %d entries", len(page))
	}
	seen := make(map[jito.BundleID]int)
	for _, r := range page {
		seen[r.ID]++
	}
	if len(seen) != 40 {
		t.Errorf("duplicate fault lost entries: %d unique of 40", len(seen))
	}
}

func TestTransportReorderEntries(t *testing.T) {
	inner := &fakeInner{page: makePage(40)}
	tr := WrapTransport(inner, NewInjector(8, 1))
	page, err := driveUntil(t, tr, ClassReorder)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 40 {
		t.Fatalf("reorder changed page size: %d", len(page))
	}
	seen := make(map[jito.BundleID]bool)
	for _, r := range page {
		seen[r.ID] = true
	}
	if len(seen) != 40 {
		t.Errorf("reorder is not a permutation: %d unique", len(seen))
	}
	if inOrder(page) {
		t.Error("reordered page still in order")
	}
}

func TestTransportPartialDetails(t *testing.T) {
	inner := &fakeInner{page: makePage(5)}
	tr := WrapTransport(inner, NewInjector(10, 1))
	ids := makeIDs(40)
	for i := 0; i < 2000; i++ {
		details, err := tr.TxDetails(ids)
		if err != nil {
			continue
		}
		if len(details) == len(ids) {
			continue
		}
		// Partial fault hit: the result must be a strict subset.
		if len(details) == 0 || len(details) >= len(ids) {
			t.Fatalf("partial details dropped everything or nothing: %d of %d", len(details), len(ids))
		}
		want := make(map[solana.Signature]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		for _, d := range details {
			if !want[d.Sig] {
				t.Fatalf("partial details invented id %v", d.Sig)
			}
		}
		return
	}
	t.Fatal("partial fault never surfaced")
}

// TestTransportDeterministic pins the whole wrapper: two identically
// seeded wrappers over identical inners produce identical fault and
// payload sequences.
func TestTransportDeterministic(t *testing.T) {
	run := func() ([]string, []int) {
		inner := &fakeInner{page: makePage(30)}
		tr := WrapTransport(inner, NewInjector(77, 0.5))
		var classes []string
		var sizes []int
		for i := 0; i < 300; i++ {
			page, err := tr.RecentBundles(30)
			classes = append(classes, Classify(err).String())
			sizes = append(sizes, len(page))
		}
		for i := 0; i < 50; i++ {
			det, err := tr.TxDetails(makeIDs(20))
			classes = append(classes, Classify(err).String())
			sizes = append(sizes, len(det))
		}
		return classes, sizes
	}
	c1, s1 := run()
	c2, s2 := run()
	for i := range c1 {
		if c1[i] != c2[i] || s1[i] != s2[i] {
			t.Fatalf("chaos runs diverge at call %d: %s/%d vs %s/%d", i, c1[i], s1[i], c2[i], s2[i])
		}
	}
}
