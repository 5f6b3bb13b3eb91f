// Package snapshot implements the dataset checkpoint container: a
// length-prefixed, versioned sequence of independently gzip-compressed
// shards, written and read in parallel. The paper's four-month
// collection is the asset the whole pipeline exists to protect. Shards
// have fixed sizes, so their encoding is a pure function of the data
// (never of the worker count): Save and Load both scale with cores,
// output bytes are identical at every worker count, and peak transient
// memory is bounded by the shard size rather than the dataset.
//
// The bundle payload is laid out for out-of-core analytics: every shard
// is a self-contained streaming unit (records plus their aligned
// transaction details plus a local pubkey dictionary), and every shard
// frame carries a pushdown-metadata header (record count, min/max study
// day, bundle-length histogram) that a streaming scanner can use to
// skip the shard without even inflating it.
//
// # Container layout
//
// All multi-byte integers are little-endian when fixed-width and unsigned
// LEB128 ("uvarint") when variable; signed varints use zigzag. The file
// is the magic "jitosnp3" (8 bytes) followed by sections in a fixed
// order — the header sections meta, days, tipsLen1 and tipsLen3, then
// the streaming sections bundles3, bundlesLong and orphans — and the
// terminator byte 0xFF. Every section opens with
//
//	id         byte    (see section constants below)
//	shardCount uvarint
//	totalItems uvarint (sum of the per-shard item counts)
//
// followed by shardCount frames. A header-section frame is
//
//	items   uvarint
//	rawLen  uvarint (decompressed payload length in bytes)
//	compLen uvarint
//	blob    compLen bytes of gzip(payload)
//
// and a streaming-section frame replaces items with the
// pushdown-metadata block:
//
//	items   uvarint          records (or orphan details) in this shard
//	minDay  zigzag uvarint   earliest study day touched by the shard
//	maxDay  zigzag uvarint   latest study day touched by the shard
//	byLen   uvarints         bundle-length histogram, lengths 0..5
//	                         (all zero for orphan shards)
//	rawLen  uvarint
//	compLen uvarint
//	blob    compLen bytes of gzip(payload)
//
// Sections are strictly ordered and an unknown or missing section is a
// decode error, which is also what turns a cut at a section boundary
// into a loud failure. The metadata block is what predicate pushdown
// reads: a day-ranged query drops shards whose [minDay, maxDay] misses
// the range, and a query that needs no long bundles drops every shard
// of the bundlesLong section, in both cases skipping the gzip inflate
// entirely.
//
// # Shard payloads
//
// A bundle shard's payload is self-contained: the record columns, then
// a local pubkey dictionary (nKeys uvarint + nKeys×32 bytes, in
// first-use order), then one presence byte per (record, member
// transaction) pair, then the detail columns over exactly the present
// details in (record, member) order. Member signatures are not stored
// with the details — a detail's signature is the transaction id at its
// position in the owning record — so a scanner can decode, analyze and
// discard one shard at a time with no dataset-sized state. Details not
// referenced by any retained record land in the orphans section
// (signature-sorted: local dictionary, signature column, detail
// columns), preserving exact map round trips.
//
// Record columns are fixed-width, one column fully emitted before the
// next — this groups similar bytes so a fast gzip level compresses
// well:
//
//	seq[items]   uint64     id[items]     [32]byte
//	slot[items]  uint64     unixMs[items] int64 (as uint64 bits)
//	tip[items]   uint64     nTx[items]    byte
//	txids        concatenated [64]byte signatures, sum(nTx) of them
//
// Detail columns reference pubkeys as uvarint indices into the shard's
// dictionary, so a signer or mint that appears in many transactions is
// stored once per shard:
//
//	signerIdx[items] uvarint        slot[items] uint64
//	flags[items]     byte (bit0 failed, bit1 tipOnly)
//	tip[items]       uvarint        nDelta[items] uvarint
//	deltas           per delta: ownerIdx uvarint, mintIdx uvarint,
//	                 delta zigzag-varint
//
// The meta payload is genesis unixNano, collected, duplicates (3 ×
// uint64). The days payload is, per day in ascending order: zigzag day
// then uvarint Bundles, Txs, ByLength[0..MaxBundleTxs], DefensiveCount,
// PriorityCount, DefensiveSpend. Histogram payloads reuse
// stats.LogHistogram's binary encoding.
//
// # Versioning policy
//
// The reader accepts exactly the magic the writer writes; any other
// opening bytes fail with ErrCorrupt. A layout change bumps the magic
// (the version digit) and regenerates the golden fixture that pins the
// writer's bytes, so readers and files of different layouts refuse each
// other loudly instead of misparsing.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// MagicV3 opens every snapshot: the one container layout this package
// reads and writes.
const MagicV3 = "jitosnp3"

// Section identifiers, in file order.
const (
	secMeta        = 0x01
	secDays        = 0x02
	secTipsLen1    = 0x03
	secTipsLen3    = 0x04
	secBundles3    = 0x0A // len-3 records + aligned details
	secBundlesLong = 0x0B // retained length-4/5 records + details
	secOrphans     = 0x0C // details referenced by no retained record
	secEnd         = 0xFF
)

// Shard sizing: fixed constants so shard boundaries — and therefore the
// output bytes — depend only on the data, never on the worker count.
// Bundle shards carry their details inline; 4096 records hold the raw
// payload near 1 MiB, which keeps per-shard compression state small
// while amortizing the frame overhead, and keeps the per-shard day span
// tight (finer-grained shards prune better). The reader rejects any
// frame holding more items than these.
const (
	bundleShardSize = 4096
	orphanShardSize = 8192
)

// maxPrealloc caps any allocation sized from a section header's item
// count before frames have delivered those items. Honest snapshots of
// ~10⁵ records keep their exact preallocation; a hostile total costs at
// most this many slots up front, and the rest grows only as decoded
// frames actually arrive.
const maxPrealloc = 1 << 17

// ShardMeta is the pushdown-metadata block every streaming frame
// carries: enough for a planner to decide whether a shard can be skipped
// without inflating it. Day bounds are zero-based study days (the same
// solana.Clock.DayOf the collector aggregates by); ByLength counts the
// shard's records by bundle length, with out-of-spec lengths clamped
// into the top bucket, and is all zero for orphan-detail shards.
type ShardMeta struct {
	Items  int
	MinDay int
	MaxDay int

	ByLength [jito.MaxBundleTxs + 1]uint64

	// RawLen and CompLen size the shard's payload: CompLen is what a
	// pruned scan skips, RawLen what a full scan inflates.
	RawLen  int
	CompLen int
}

// DayAgg aggregates one study day of collected bundles — the per-day
// series behind Figures 1 and 2. The canonical definition lives here so
// the persistence layer and the collector share one type without an
// import cycle; collector re-exports it under the same name.
type DayAgg struct {
	Bundles  uint64
	Txs      uint64
	ByLength [jito.MaxBundleTxs + 1]uint64

	// Defensive-bundling aggregates (paper §3.3 classification applied
	// at ingest so length-1 bundles never need to be retained).
	DefensiveCount uint64
	PriorityCount  uint64
	DefensiveSpend uint64 // lamports
}

// Snapshot is the persisted view of a dataset: collection results only,
// shared (not copied) with the live collector.Dataset. Transient
// machinery like the dedup window restarts fresh on load.
type Snapshot struct {
	Genesis  int64 // UnixNano of the chain clock genesis
	Days     map[int]*DayAgg
	TipsLen1 *stats.LogHistogram
	TipsLen3 *stats.LogHistogram
	Len3     []jito.BundleRecord
	Long     []jito.BundleRecord
	Details  map[solana.Signature]jito.TxDetail

	Collected  uint64
	Duplicates uint64
}

// zigzag encoding for signed varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// ErrCorrupt is the sentinel every decode failure wraps: any malformed,
// truncated or hostile input — including a short read anywhere in the
// stream — surfaces as errors.Is(err, ErrCorrupt), so callers can
// distinguish "bad checkpoint" from I/O plumbing failures.
var ErrCorrupt = errors.New("snapshot: corrupt")

// corrupt builds the uniform decode error, wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// corruptShard tags a shard-level failure with its shard index, ensuring
// exactly one ErrCorrupt wrap even when the inner error already carries
// one (payload decoders) or none (histogram codecs).
func corruptShard(idx int, err error) error {
	if errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("snapshot: shard %d: %w", idx, err)
	}
	return fmt.Errorf("%w: shard %d: %v", ErrCorrupt, idx, err)
}
