package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"time"

	"jitomev/internal/parallel"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// Streaming scan over a snapshot: the out-of-core read path. The
// caller sees the prelude (every aggregate stored ahead of the bundle
// sections) once, then one fold call per shard in file order; shard
// payloads are decompressed and decoded on a bounded worker pool while
// frames are read serially, so peak live memory is proportional to
// workers × shard size and independent of the dataset.

// Prelude is everything a snapshot stores ahead of the streaming
// sections — small aggregates a bounded-memory pass can hold whole.
type Prelude struct {
	Genesis    int64 // UnixNano of the chain clock genesis
	Collected  uint64
	Duplicates uint64
	Days       map[int]*DayAgg
	TipsLen1   *stats.LogHistogram
	TipsLen3   *stats.LogHistogram
}

// Clock rebuilds the chain clock the snapshot was aggregated under.
func (p *Prelude) Clock() solana.Clock {
	return solana.Clock{Genesis: unixNanoTime(p.Genesis)}
}

// Section identifies which streaming section a shard belongs to.
type Section byte

const (
	SectionLen3 Section = iota
	SectionLong
	SectionOrphans
)

// String names the section for metrics labels and error messages.
func (s Section) String() string {
	switch s {
	case SectionLen3:
		return "len3"
	case SectionLong:
		return "long"
	case SectionOrphans:
		return "orphans"
	}
	return "unknown"
}

// ScanFold receives every shard of the streaming sections in file order
// on the calling goroutine. b is nil for a pruned shard (its metadata is
// still delivered, so folds can count what was skipped) and for every
// shard when Map is set — mapped then carries Map's result instead.
// Batches are owned by the fold and dropped by the scanner — holding
// every batch would defeat the bounded-memory point.
type ScanFold func(sec Section, m ShardMeta, b *Batch, mapped any) error

// ScanOptions configure a streaming pass. The zero value scans
// everything on all cores.
type ScanOptions struct {
	// Workers bounds the decompress/decode pool (0 = all cores,
	// 1 = serial). Frames are always read, pruned and folded serially in
	// shard order, so results are identical at every worker count.
	Workers int

	// Prune, when non-nil, is consulted once per shard in file order
	// before the blob is touched; returning true skips decompression and
	// decode entirely — the reader discards CompLen bytes — and the fold
	// sees a nil batch. Pruning decisions must rely on ShardMeta only.
	Prune func(sec Section, m ShardMeta) bool

	// Map, when non-nil, runs on the worker pool right after a shard is
	// decoded, turning the batch into whatever the fold actually needs
	// (detection partials, counts). The batch is released on the worker —
	// the fold receives b == nil and Map's return value — so per-shard
	// work heavier than the decode itself scales with the pool instead of
	// serializing on the fold goroutine. Map must not retain the batch
	// and must be safe to call concurrently. Pruned shards never reach
	// Map.
	Map func(sec Section, m ShardMeta, b *Batch) (any, error)

	// SectionStart, when non-nil, runs before each streaming section's
	// shards with the section's totals — the hook full loads use to
	// preallocate and planners use to size their accounting.
	SectionStart func(sec Section, shards, items int) error
}

// Scan streams a snapshot from r: prelude once, then one fold call per
// shard of the len3, long and orphans sections, in file order.
func Scan(r io.Reader, opts ScanOptions, prelude func(*Prelude) error, fold ScanFold) error {
	return scan(bufferedReader(r, 1<<20), &opts, &snapObs{}, prelude, fold)
}

// readSectionHeader consumes one section header, enforcing the strict
// section order (which is also what turns a cut at a section
// boundary into a loud error).
func readSectionHeader(br *bufio.Reader, want byte) (shards, total int, err error) {
	id, err := br.ReadByte()
	if err != nil {
		return 0, 0, corrupt("section id: %v", err)
	}
	if id != want {
		return 0, 0, corrupt("section %#x, want %#x (sections are strictly ordered)", id, want)
	}
	shards64, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, corrupt("shard count: %v", err)
	}
	total64, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, corrupt("item count: %v", err)
	}
	if shards64 > 1<<24 || total64 > 1<<40 {
		return 0, 0, corrupt("implausible section shape %d/%d", shards64, total64)
	}
	return int(shards64), int(total64), nil
}

// scan walks a whole container: magic, header sections, then the
// streaming sections. Any magic but the one Write emits is corrupt.
func scan(br *bufio.Reader, opts *ScanOptions, m *snapObs, preludeFn func(*Prelude) error, fold ScanFold) error {
	var magic [len(MagicV3)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return corrupt("magic: %v", err)
	}
	if string(magic[:]) != MagicV3 {
		return corrupt("bad magic %q, want %q", magic[:], MagicV3)
	}

	p := &Prelude{}
	shards, total, err := readSectionHeader(br, secMeta)
	if err != nil {
		return err
	}
	if err := forEachShard(br, shards, total, m, func(_ int, raw []byte) error {
		if len(raw) != 24 {
			return corrupt("meta payload %d bytes, want 24", len(raw))
		}
		p.Genesis = int64(binary.LittleEndian.Uint64(raw[0:]))
		p.Collected = binary.LittleEndian.Uint64(raw[8:])
		p.Duplicates = binary.LittleEndian.Uint64(raw[16:])
		return nil
	}); err != nil {
		return err
	}

	if shards, total, err = readSectionHeader(br, secDays); err != nil {
		return err
	}
	if total > 0 {
		p.Days = make(map[int]*DayAgg, min(total, maxPrealloc))
	}
	if err := forEachShard(br, shards, total, m, func(items int, raw []byte) error {
		return decodeDays(p.Days, items, raw)
	}); err != nil {
		return err
	}

	for _, h := range []struct {
		id  byte
		dst **stats.LogHistogram
	}{{secTipsLen1, &p.TipsLen1}, {secTipsLen3, &p.TipsLen3}} {
		if shards, total, err = readSectionHeader(br, h.id); err != nil {
			return err
		}
		if *h.dst, err = readHistogram(br, shards, total, m); err != nil {
			return err
		}
	}

	if preludeFn != nil {
		if err := preludeFn(p); err != nil {
			return err
		}
	}

	for _, sec := range []struct {
		id  byte
		sec Section
	}{{secBundles3, SectionLen3}, {secBundlesLong, SectionLong}, {secOrphans, SectionOrphans}} {
		if shards, total, err = readSectionHeader(br, sec.id); err != nil {
			return err
		}
		if opts.SectionStart != nil {
			if err := opts.SectionStart(sec.sec, shards, total); err != nil {
				return err
			}
		}
		if err := scanSection(br, sec.sec, shards, total, opts, m, fold); err != nil {
			return err
		}
	}

	id, err := br.ReadByte()
	if err != nil {
		return corrupt("terminator: %v", err)
	}
	if id != secEnd {
		return corrupt("terminator byte %#x, want %#x", id, secEnd)
	}
	return nil
}

// maxDay is the latest study day a slot can fall in: the day bounds the
// writer records (solana.Clock.DayOf over uint64 slots) never leave
// [0, maxDay].
var maxDay = solana.Clock{}.DayOf(math.MaxUint64)

// errScanAborted marks shards skipped because an earlier shard already
// failed; it never escapes the scanner.
var errScanAborted = errors.New("snapshot: scan aborted")

// scanShard is one frame's journey through the scan pipeline.
type scanShard struct {
	meta   ShardMeta
	blob   []byte
	batch  *Batch
	mapped any
	pruned bool
	err    error
}

// scanSection streams one section: a serial read gate hands frames to
// the pool in file order (pruned frames are discarded right at the
// gate), payloads inflate and decode concurrently, and
// parallel.OrderedStream folds results back in strict shard order — the
// same primitive the writer uses, giving identical folds at every
// worker count.
func scanSection(br *bufio.Reader, sec Section, shards, total int, opts *ScanOptions, m *snapObs, fold ScanFold) error {
	workers := parallel.Workers(opts.Workers)
	shardItems := bundleShardSize
	if sec == SectionOrphans {
		shardItems = orphanShardSize
	}

	// The gate: produce(i) may read its frame only once frames 0..i-1
	// are off the stream. Its holder is always inside produce (indices
	// are claimed after the window token), so turns advance and the
	// window never deadlocks.
	var (
		gate     sync.Mutex
		turn     = sync.NewCond(&gate)
		nextRead = 0
		base     = 0
		readErr  error
		foldErr  error
	)

	parallel.OrderedStream(workers, shards, func(i int) scanShard {
		gate.Lock()
		for nextRead != i {
			turn.Wait()
		}
		var sh scanShard
		if readErr != nil {
			sh.err = errScanAborted
		} else {
			sh.meta, sh.err = readFrameV3(br, i, min(total-base, shardItems))
			if sh.err == nil {
				base += sh.meta.Items
				if opts.Prune != nil && opts.Prune(sec, sh.meta) {
					sh.pruned = true
					if _, err := br.Discard(sh.meta.CompLen); err != nil {
						sh.err = corrupt("shard %d: body truncated in skip: %v", i, err)
					}
				} else if sh.blob, sh.err = readBlob(br, i, sh.meta.CompLen); sh.err == nil {
					m.frame(sh.meta.RawLen, sh.meta.CompLen)
				}
			}
			if sh.err != nil {
				readErr = sh.err
			}
		}
		nextRead++
		turn.Broadcast()
		gate.Unlock()

		if sh.err != nil || sh.pruned {
			return sh
		}
		// Off the gate: the parallel part.
		raw, err := decompressShard(sh.blob, sh.meta.RawLen)
		sh.blob = nil
		if err == nil {
			if sec == SectionOrphans {
				sh.batch, err = decodeOrphanShard(sh.meta.Items, raw)
			} else {
				sh.batch, err = decodeBundleShard(sh.meta.Items, raw)
			}
		}
		if err != nil {
			sh.err = corruptShard(i, err)
			return sh
		}
		if opts.Map != nil {
			sh.mapped, sh.err = opts.Map(sec, sh.meta, sh.batch)
			sh.batch = nil
		}
		return sh
	}, func(sh scanShard) {
		if foldErr != nil {
			return
		}
		if sh.err != nil {
			if sh.err != errScanAborted {
				foldErr = sh.err
			}
			return
		}
		if err := fold(sec, sh.meta, sh.batch, sh.mapped); err != nil {
			foldErr = err
		}
	})

	if foldErr != nil {
		return foldErr
	}
	if readErr != nil {
		return readErr
	}
	if base != total {
		return corrupt("section holds %d items, header declared %d", base, total)
	}
	return nil
}

// readFrameV3 reads one streaming frame header (the pushdown metadata
// block), validating it against maxItems — the smaller of what the
// section total leaves and the writer's shard size — and against the
// day range the writer can produce, so a hostile or truncated header
// cannot demand absurd work.
func readFrameV3(br *bufio.Reader, idx, maxItems int) (ShardMeta, error) {
	var m ShardMeta
	next := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, corrupt("shard %d: %s: %v", idx, what, err)
		}
		return v, nil
	}
	items, err := next("header")
	if err != nil {
		return m, err
	}
	if items > uint64(maxItems) {
		return m, corrupt("shard %d: items %d overflow section total or shard size", idx, items)
	}
	m.Items = int(items)
	for _, dst := range []*int{&m.MinDay, &m.MaxDay} {
		v, err := next("day bound")
		if err != nil {
			return m, err
		}
		d := unzigzag(v)
		if d < 0 || d > int64(maxDay) {
			return m, corrupt("shard %d: implausible day bound %d", idx, d)
		}
		*dst = int(d)
	}
	if m.Items > 0 && m.MinDay > m.MaxDay {
		return m, corrupt("shard %d: inverted day bounds [%d, %d]", idx, m.MinDay, m.MaxDay)
	}
	sum := uint64(0)
	for j := range m.ByLength {
		v, err := next("length histogram")
		if err != nil {
			return m, err
		}
		if v > items {
			return m, corrupt("shard %d: length histogram bucket %d overflows items", idx, v)
		}
		m.ByLength[j] = v
		sum += v
	}
	if sum != items && sum != 0 {
		return m, corrupt("shard %d: length histogram sums %d, want %d or 0", idx, sum, items)
	}
	for _, f := range []struct {
		what string
		dst  *int
	}{{"raw length", &m.RawLen}, {"compressed length", &m.CompLen}} {
		v, err := next(f.what)
		if err != nil {
			return m, err
		}
		if v > maxShardBytes {
			return m, corrupt("shard %d: length %d exceeds limit", idx, v)
		}
		*f.dst = int(v)
	}
	return m, nil
}

// unixNanoTime converts a persisted genesis back to wall time.
func unixNanoTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }
