package snapshot

import (
	"bufio"
	"io"
	"sort"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/parallel"
	"jitomev/internal/solana"
)

// Streaming-section encode: self-contained bundle shards. Each shard
// carries its records, the details aligned to them, and a local pubkey
// dictionary, so a streaming reader can decode → analyze → discard one
// shard at a time with no dataset-sized state.

// write emits the container: the header sections, then the three
// streaming sections with pushdown metadata on every frame.
func write(w io.Writer, s *Snapshot, workers int, m *snapObs) error {
	bw := &writer{w: bufio.NewWriterSize(w, 1<<16), m: m}
	bw.bytes([]byte(MagicV3))
	bw.headerSections(s)

	clock := solana.Clock{Genesis: time.Unix(0, s.Genesis).UTC()}
	bw.bundleSection(secBundles3, s.Len3, s.Details, clock, workers)
	bw.bundleSection(secBundlesLong, s.Long, s.Details, clock, workers)

	// Orphans: details no retained record references, kept so the details
	// map round-trips exactly. Signature-sorted, which makes the shard
	// split deterministic.
	referenced := make(map[solana.Signature]bool, 3*len(s.Len3))
	mark := func(recs []jito.BundleRecord) {
		for i := range recs {
			for _, sig := range recs[i].TxIDs {
				referenced[sig] = true
			}
		}
	}
	mark(s.Len3)
	mark(s.Long)
	orphans := make([]solana.Signature, 0)
	for sig := range s.Details {
		if !referenced[sig] {
			orphans = append(orphans, sig)
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		return string(orphans[i][:]) < string(orphans[j][:])
	})
	bw.sectionV3(secOrphans, len(orphans), orphanShardSize, workers, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeOrphanShard(orphans[lo:hi], s.Details, clock)
	})

	bw.byte1(secEnd)
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	if bw.err != nil {
		return &writeError{bw.err}
	}
	return nil
}

// shardFrameV3 is one encoded-and-compressed streaming shard with its
// metadata header.
type shardFrameV3 struct {
	meta ShardMeta
	raw  int
	blob []byte
	err  error
}

// sectionV3 emits one streaming section: like section, but every frame
// is prefixed with its ShardMeta pushdown block.
func (w *writer) sectionV3(id byte, totalItems, shardSize, workers int, encode func(lo, hi int) ([]byte, ShardMeta, error)) {
	if w.err != nil {
		return
	}
	shards := (totalItems + shardSize - 1) / shardSize
	w.byte1(id)
	w.uvarint(uint64(shards))
	w.uvarint(uint64(totalItems))
	parallel.OrderedStreamObs(w.m.reg, "snapshot_encode", workers, shards, func(i int) shardFrameV3 {
		lo := i * shardSize
		hi := lo + shardSize
		if hi > totalItems {
			hi = totalItems
		}
		raw, meta, err := encode(lo, hi)
		if err != nil {
			return shardFrameV3{err: err}
		}
		return shardFrameV3{meta: meta, raw: len(raw), blob: compressShard(raw)}
	}, func(f shardFrameV3) {
		if w.err == nil && f.err != nil {
			w.err = f.err
		}
		if w.err != nil {
			return
		}
		w.m.frame(f.raw, len(f.blob))
		w.uvarint(uint64(f.meta.Items))
		w.uvarint(zigzag(int64(f.meta.MinDay)))
		w.uvarint(zigzag(int64(f.meta.MaxDay)))
		for _, c := range f.meta.ByLength {
			w.uvarint(c)
		}
		w.uvarint(uint64(f.raw))
		w.uvarint(uint64(len(f.blob)))
		w.bytes(f.blob)
	})
}

// bundleSection emits one record family as self-contained bundle shards.
func (w *writer) bundleSection(id byte, recs []jito.BundleRecord, details map[solana.Signature]jito.TxDetail, clock solana.Clock, workers int) {
	w.sectionV3(id, len(recs), bundleShardSize, workers, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeBundleShard(recs[lo:hi], details, clock)
	})
}

// internDetails builds a local dictionary over dets in first-use order —
// a pure function of the shard contents, so shard bytes stay
// deterministic at every worker count.
func internDetails(dets []jito.TxDetail) *interner {
	in := newInterner()
	for i := range dets {
		in.intern(dets[i].Signer)
		for _, td := range dets[i].TokenDeltas {
			in.intern(td.Owner)
			in.intern(td.Mint)
		}
	}
	return in
}

// appendLocalInterns emits the per-shard dictionary.
func appendLocalInterns(raw []byte, in *interner) []byte {
	raw = appendUvarint(raw, uint64(len(in.keys)))
	for _, k := range in.keys {
		raw = append(raw, k[:]...)
	}
	return raw
}

// encodeBundleShard lays out one self-contained shard: record columns,
// local dictionary, presence bytes, then detail columns over the present
// details in (record, member) order. A member's detail keeps no
// signature column — its signature is the transaction id at its position
// in the owning record.
func encodeBundleShard(recs []jito.BundleRecord, details map[solana.Signature]jito.TxDetail, clock solana.Clock) ([]byte, ShardMeta, error) {
	var meta ShardMeta
	meta.Items = len(recs)
	for i := range recs {
		n := len(recs[i].TxIDs)
		if n > jito.MaxBundleTxs {
			n = jito.MaxBundleTxs
		}
		meta.ByLength[n]++
		day := clock.DayOf(recs[i].Slot)
		if i == 0 || day < meta.MinDay {
			meta.MinDay = day
		}
		if i == 0 || day > meta.MaxDay {
			meta.MaxDay = day
		}
	}

	raw, err := encodeRecordShard(recs)
	if err != nil {
		return nil, meta, err
	}

	// Gather the present details in (record, member) order; pres carries
	// one byte per member so absent details (a degraded collection)
	// survive the round trip.
	dets := make([]jito.TxDetail, 0, 3*len(recs))
	pres := make([]byte, 0, 3*len(recs))
	for i := range recs {
		for _, sig := range recs[i].TxIDs {
			if det, ok := details[sig]; ok {
				dets = append(dets, det)
				pres = append(pres, 1)
			} else {
				pres = append(pres, 0)
			}
		}
	}
	in := internDetails(dets)
	raw = appendLocalInterns(raw, in)
	raw = append(raw, pres...)
	return appendDetailColumns(raw, dets, in), meta, nil
}

// encodeOrphanShard lays out unreferenced details: local dictionary,
// signature column, detail columns.
func encodeOrphanShard(sigs []solana.Signature, details map[solana.Signature]jito.TxDetail, clock solana.Clock) ([]byte, ShardMeta, error) {
	var meta ShardMeta
	meta.Items = len(sigs)
	dets := make([]jito.TxDetail, len(sigs))
	for i, sig := range sigs {
		dets[i] = details[sig]
		day := clock.DayOf(dets[i].Slot)
		if i == 0 || day < meta.MinDay {
			meta.MinDay = day
		}
		if i == 0 || day > meta.MaxDay {
			meta.MaxDay = day
		}
	}
	in := internDetails(dets)
	raw := appendLocalInterns(make([]byte, 0, 128*len(sigs)), in)
	for _, sig := range sigs {
		raw = append(raw, sig[:]...)
	}
	return appendDetailColumns(raw, dets, in), meta, nil
}

// Batch is one decoded streaming shard. Bundle shards carry Recs plus
// the details that were stored alongside them; orphan shards carry only
// details (Recs is nil). Batches are the unit of a streaming fold:
// decode, analyze, drop.
type Batch struct {
	Recs []jito.BundleRecord

	dets   []jito.TxDetail // present details, (record, member) order
	detOff []int32         // per record, index of its first detail; len(Recs)+1
}

// Details returns every detail present in the batch in (record, member)
// order — orphan batches return their whole payload. Full loads use it
// to rebuild the details map; the slice is owned by the batch.
func (b *Batch) Details() []jito.TxDetail { return b.dets }

// AppendDetails appends record i's aligned details to dst and reports
// whether every member transaction's detail is present — the same
// all-or-nothing contract as collector.Dataset.AppendDetails, so a
// streaming fold sees exactly what the in-memory pass sees.
func (b *Batch) AppendDetails(dst []jito.TxDetail, i int) ([]jito.TxDetail, bool) {
	lo, hi := b.detOff[i], b.detOff[i+1]
	if int(hi-lo) != len(b.Recs[i].TxIDs) {
		return dst, false
	}
	return append(dst, b.dets[lo:hi]...), true
}

// readLocalInterns decodes a shard's pubkey dictionary.
func readLocalInterns(c *varintCursor) ([]solana.Pubkey, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.raw)-c.off)/32 {
		return nil, corrupt("dictionary of %d keys exceeds shard size", n)
	}
	col, err := c.take(32 * int(n))
	if err != nil {
		return nil, err
	}
	keys := make([]solana.Pubkey, n)
	for i := range keys {
		copy(keys[i][:], col[32*i:])
	}
	return keys, nil
}

// decodeBundleShard parses one self-contained shard.
func decodeBundleShard(items int, raw []byte) (*Batch, error) {
	b := &Batch{Recs: make([]jito.BundleRecord, items)}
	c := varintCursor{raw: raw}
	if err := decodeRecordColumns(b.Recs, &c); err != nil {
		return nil, err
	}
	keys, err := readLocalInterns(&c)
	if err != nil {
		return nil, err
	}
	members := 0
	for i := range b.Recs {
		members += len(b.Recs[i].TxIDs)
	}
	pres, err := c.take(members)
	if err != nil {
		return nil, err
	}
	count := 0
	for _, p := range pres {
		if p > 1 {
			return nil, corrupt("presence byte %d, want 0 or 1", p)
		}
		count += int(p)
	}
	dets := make([]jito.TxDetail, count)
	b.detOff = make([]int32, items+1)
	k, di := 0, 0
	for i := range b.Recs {
		b.detOff[i] = int32(di)
		for _, sig := range b.Recs[i].TxIDs {
			if pres[k] == 1 {
				dets[di].Sig = sig
				di++
			}
			k++
		}
	}
	b.detOff[items] = int32(di)
	if err := decodeDetailColumns(dets, &c, keys); err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	b.dets = dets
	return b, nil
}

// decodeOrphanShard parses an orphan shard into a details-only batch.
func decodeOrphanShard(items int, raw []byte) (*Batch, error) {
	c := varintCursor{raw: raw}
	keys, err := readLocalInterns(&c)
	if err != nil {
		return nil, err
	}
	sigCol, err := c.take(64 * items)
	if err != nil {
		return nil, err
	}
	dets := make([]jito.TxDetail, items)
	for i := range dets {
		copy(dets[i].Sig[:], sigCol[64*i:])
	}
	if err := decodeDetailColumns(dets, &c, keys); err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return &Batch{dets: dets}, nil
}
