package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// maxShardBytes bounds any single frame's claimed raw or compressed
// length. Honest writers stay far below it (shards are ~1 MiB); it
// exists so a corrupt or hostile length prefix cannot demand an
// arbitrary allocation before the payload is even read.
const maxShardBytes = 1 << 28

// blobPrealloc is the largest compressed body read into a buffer sized
// up front from its frame header. Honest shards compress to about
// 1 MiB (signatures and ids barely compress), well below it.
const blobPrealloc = 1 << 24

// maxInflateRatio bounds rawLen against the compressed body: DEFLATE
// cannot expand input by more than ~1032×, so a larger claim is corrupt
// before its buffer is allocated.
const maxInflateRatio = 1032

var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// decompressShard inflates blob, whose decompressed size must be exactly
// rawLen.
func decompressShard(blob []byte, rawLen int) ([]byte, error) {
	if rawLen > maxInflateRatio*len(blob) {
		return nil, corrupt("shard inflates %d bytes to a claimed %d", len(blob), rawLen)
	}
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(blob)); err != nil {
		return nil, corrupt("shard gzip header: %v", err)
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, corrupt("shard inflate: %v", err)
	}
	// One byte past the claimed length must be clean EOF — this read
	// also forces the gzip trailer check, so a corrupted blob fails on
	// its CRC here even when it inflates to the right length.
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, corrupt("shard not exactly %d declared bytes: %v", rawLen, err)
	}
	return raw, nil
}

// frameHeader is a header-section frame's prefix.
type frameHeader struct {
	items, rawLen, compLen int
}

// readFrame reads header-section shard number idx's frame. Every
// failure — including a short read truncating the header or body — is a
// corrupt error naming the shard, so a checkpoint cut mid-stream can
// never load silently.
func readFrame(br *bufio.Reader, idx, itemsLeft int) (frameHeader, []byte, error) {
	var h frameHeader
	for _, dst := range []*int{&h.items, &h.rawLen, &h.compLen} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return h, nil, corrupt("shard %d: header: %v", idx, err)
		}
		if v > maxShardBytes {
			return h, nil, corrupt("shard %d: length %d exceeds limit", idx, v)
		}
		*dst = int(v)
	}
	if h.items > itemsLeft {
		return h, nil, corrupt("shard %d: items %d overflow section total", idx, h.items)
	}
	blob, err := readBlob(br, idx, h.compLen)
	return h, blob, err
}

// readBlob reads shard idx's n-byte compressed body. Bodies up to
// blobPrealloc bytes are read in place; a larger claim grows the buffer
// only as bytes actually arrive, so a hostile length on a short file
// costs what the file holds rather than what its header says.
func readBlob(br *bufio.Reader, idx, n int) ([]byte, error) {
	var (
		blob []byte
		got  int
		err  error
	)
	if n <= blobPrealloc {
		blob = make([]byte, n)
		got, err = io.ReadFull(br, blob)
	} else {
		var buf bytes.Buffer
		var copied int64
		copied, err = io.CopyN(&buf, br, int64(n))
		blob, got = buf.Bytes(), int(copied)
	}
	if err != nil {
		return nil, corrupt("shard %d: body truncated at byte %d of %d: %v", idx, got, n, err)
	}
	return blob, nil
}

// forEachShard reads a header section's shardCount frames from br in
// order, decompressing and decoding each before reading the next;
// handle(items, raw) runs once per shard. Streaming sections go through
// scanSection, which owns the parallel path.
func forEachShard(br *bufio.Reader, shardCount, totalItems int, m *snapObs, handle func(items int, raw []byte) error) error {
	read := 0
	for i := 0; i < shardCount; i++ {
		h, blob, err := readFrame(br, i, totalItems-read)
		if err != nil {
			return err
		}
		m.frame(h.rawLen, h.compLen)
		raw, err := decompressShard(blob, h.rawLen)
		if err != nil {
			return corruptShard(i, err)
		}
		if err := handle(h.items, raw); err != nil {
			return corruptShard(i, err)
		}
		read += h.items
	}
	if read != totalItems {
		return corrupt("section holds %d items, header declared %d", read, totalItems)
	}
	return nil
}

// Read decodes a snapshot from r, materializing it in memory. workers
// bounds the shard decompress/decode pool (0 = all cores, 1 = serial).
func Read(r io.Reader, workers int) (*Snapshot, error) {
	return read(r, workers, &snapObs{})
}

// read is the full-materialization path: the streaming scan with no
// pruning, reassembling the in-memory Snapshot.
func read(r io.Reader, workers int, m *snapObs) (*Snapshot, error) {
	s := &Snapshot{Details: make(map[solana.Signature]jito.TxDetail)}
	opts := ScanOptions{
		Workers: workers,
		SectionStart: func(sec Section, _, items int) error {
			switch {
			case sec == SectionLen3 && items > 0:
				s.Len3 = make([]jito.BundleRecord, 0, min(items, maxPrealloc))
			case sec == SectionLong && items > 0:
				s.Long = make([]jito.BundleRecord, 0, min(items, maxPrealloc))
			}
			return nil
		},
	}
	err := scan(bufferedReader(r, 1<<16), &opts, m, func(p *Prelude) error {
		s.Genesis = p.Genesis
		s.Collected = p.Collected
		s.Duplicates = p.Duplicates
		s.Days = p.Days
		s.TipsLen1 = p.TipsLen1
		s.TipsLen3 = p.TipsLen3
		return nil
	}, func(sec Section, _ ShardMeta, b *Batch, _ any) error {
		switch sec {
		case SectionLen3:
			s.Len3 = append(s.Len3, b.Recs...)
		case SectionLong:
			s.Long = append(s.Long, b.Recs...)
		}
		dets := b.Details()
		for i := range dets {
			s.Details[dets[i].Sig] = dets[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// bufferedReader reuses r when it already buffers, so callers that
// peeked or wrapped it keep their position.
func bufferedReader(r io.Reader, size int) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, size)
}

// readHistogram decodes a histogram section: 0 shards means nil.
func readHistogram(br *bufio.Reader, shards, total int, m *snapObs) (*stats.LogHistogram, error) {
	if shards == 0 {
		return nil, nil
	}
	h := new(stats.LogHistogram)
	err := forEachShard(br, shards, total, m, func(_ int, raw []byte) error {
		return h.UnmarshalBinary(raw)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// varintCursor walks a raw shard payload.
type varintCursor struct {
	raw []byte
	off int
}

func (c *varintCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.raw[c.off:])
	if n <= 0 {
		return 0, corrupt("truncated varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *varintCursor) u64() (uint64, error) {
	if c.off+8 > len(c.raw) {
		return 0, corrupt("truncated u64 at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.raw[c.off:])
	c.off += 8
	return v, nil
}

func (c *varintCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.raw) {
		return nil, corrupt("truncated field at offset %d", c.off)
	}
	b := c.raw[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *varintCursor) done() error {
	if c.off != len(c.raw) {
		return corrupt("%d trailing bytes in shard", len(c.raw)-c.off)
	}
	return nil
}

// decodeDays parses the days payload into dst.
func decodeDays(dst map[int]*DayAgg, items int, raw []byte) error {
	c := varintCursor{raw: raw}
	for i := 0; i < items; i++ {
		day, err := c.uvarint()
		if err != nil {
			return err
		}
		agg := new(DayAgg)
		fields := make([]*uint64, 0, 5+len(agg.ByLength))
		fields = append(fields, &agg.Bundles, &agg.Txs)
		for j := range agg.ByLength {
			fields = append(fields, &agg.ByLength[j])
		}
		fields = append(fields, &agg.DefensiveCount, &agg.PriorityCount, &agg.DefensiveSpend)
		for _, f := range fields {
			if *f, err = c.uvarint(); err != nil {
				return err
			}
		}
		dst[int(unzigzag(day))] = agg
	}
	return c.done()
}

// decodeRecordColumns parses the record columns at the cursor into dst
// (one entry per record), leaving the cursor just past them — bundle
// shards continue decoding detail columns from there. Signatures for the
// whole shard share one backing array.
func decodeRecordColumns(dst []jito.BundleRecord, c *varintCursor) error {
	n := len(dst)
	col, err := c.take(8 * n)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i].Seq = binary.LittleEndian.Uint64(col[8*i:])
	}
	if col, err = c.take(32 * n); err != nil {
		return err
	}
	for i := range dst {
		copy(dst[i].ID[:], col[32*i:])
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].Slot = solana.Slot(binary.LittleEndian.Uint64(col[8*i:]))
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].UnixMs = int64(binary.LittleEndian.Uint64(col[8*i:]))
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].TipLamps = binary.LittleEndian.Uint64(col[8*i:])
	}
	counts, err := c.take(n)
	if err != nil {
		return err
	}
	totalSigs := 0
	for _, cnt := range counts {
		totalSigs += int(cnt)
	}
	sigCol, err := c.take(64 * totalSigs)
	if err != nil {
		return err
	}
	backing := make([]solana.Signature, totalSigs)
	for i := range backing {
		copy(backing[i][:], sigCol[64*i:])
	}
	off := 0
	for i := range dst {
		cnt := int(counts[i])
		if cnt > 0 {
			dst[i].TxIDs = backing[off : off+cnt : off+cnt]
		}
		off += cnt
	}
	return nil
}

// decodeDetailColumns parses the detail columns at the cursor into dets
// (whose length fixes the item count): signer index, slot, flags, tip,
// delta counts, then the ragged delta triples — the layout shared by
// bundle and orphan shards. Pubkey indices resolve against interned, the
// shard's local dictionary.
func decodeDetailColumns(dets []jito.TxDetail, c *varintCursor, interned []solana.Pubkey) error {
	items := len(dets)
	var err error
	pubkey := func() (solana.Pubkey, error) {
		idx, err := c.uvarint()
		if err != nil {
			return solana.Pubkey{}, err
		}
		if idx >= uint64(len(interned)) {
			return solana.Pubkey{}, corrupt("intern index %d out of range %d", idx, len(interned))
		}
		return interned[idx], nil
	}
	for i := range dets {
		if dets[i].Signer, err = pubkey(); err != nil {
			return err
		}
	}
	col, err := c.take(8 * items)
	if err != nil {
		return err
	}
	for i := range dets {
		dets[i].Slot = solana.Slot(binary.LittleEndian.Uint64(col[8*i:]))
	}
	flags, err := c.take(items)
	if err != nil {
		return err
	}
	for i := range dets {
		dets[i].Failed = flags[i]&1 != 0
		dets[i].TipOnly = flags[i]&2 != 0
	}
	for i := range dets {
		if dets[i].TipLamports, err = c.uvarint(); err != nil {
			return err
		}
	}
	counts := make([]int, items)
	totalDeltas := 0
	for i := range dets {
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		// Each delta needs at least 3 bytes, so the running total can
		// never exceed a third of what is left: checked before the
		// backing array is sized from it.
		left := uint64(len(c.raw)-c.off) / 3
		if n > left || uint64(totalDeltas)+n > left {
			return corrupt("delta count %d exceeds shard size", n)
		}
		counts[i] = int(n)
		totalDeltas += int(n)
	}
	backing := make([]jito.TokenDelta, totalDeltas)
	off := 0
	for i := range dets {
		for j := 0; j < counts[i]; j++ {
			td := &backing[off+j]
			if td.Owner, err = pubkey(); err != nil {
				return err
			}
			if td.Mint, err = pubkey(); err != nil {
				return err
			}
			d, err := c.uvarint()
			if err != nil {
				return err
			}
			td.Delta = unzigzag(d)
		}
		if counts[i] > 0 {
			dets[i].TokenDeltas = backing[off : off+counts[i] : off+counts[i]]
		}
		off += counts[i]
	}
	return nil
}
