package clam

import (
	"context"

	"repro/internal/hashutil"
)

// Store is the one public API of the package, with one implementation:
// the shard router that both CLAM (the one-shard store, the paper's single
// blocking-I/O instance) and Sharded (the horizontal scaling path) embed.
// A Store is a content-addressable map from byte-slice keys
// — content fingerprints, names, anything — to variable-length byte
// values, with a zero-overhead 64-bit fast path for the paper's
// fingerprint → address workloads.
//
// # Byte-keyed operations
//
// Put, Get, Delete and the ctx-aware batch variants key on arbitrary byte
// slices. Internally the key is fingerprinted to the 64-bit BufferHash key
// path and the (key, value) record is appended to a page-aligned circular
// value log on slow storage; the hash table stores a tagged pointer to the
// record. Reads verify the full key bytes stored in the record, so
// fingerprint collisions and wrapped-over (evicted) records surface as
// misses, never as wrong values; a pointer to a record the log has since
// overwritten reads as a miss without a record read. A record (an 8-byte
// header, the key and the value) is limited to storage.MaxValueRecordBytes
// (2 MiB - 1), and a shard's value log to storage.MaxValueLogBytes
// (64 GiB).
//
// # U64 fast path
//
// PutU64, GetU64, DeleteU64 and their batch variants are the paper's
// original API: 64-bit keys (assumed uniform fingerprints — hash
// non-uniform keys first, e.g. with hashutil.Mix64), 64-bit values stored
// inline in the hash entry. They touch neither the fingerprinting step nor
// the value log, so their I/O pattern, probe counters and virtual-time
// behaviour are exactly the pre-redesign ones.
//
// The two key families inhabit the same underlying table. They cannot
// corrupt each other — byte reads are key-verified, and a byte-keyed entry
// read through GetU64 just returns its (meaningless) pointer word — but a
// Store is meant to be driven through one family per key space.
//
// Put and PutU64 are the paper's lazy update (§5.1.1): the new version is
// simply inserted and shadows the older ones, because lookups probe
// newest-first; updating an absent key is an insert.
//
// # Batches and cancellation
//
// The batch calls take a context checked at batch-router chunk boundaries:
// a write batch runs each shard's keys in chunks of at most 512, a read
// batch each shard's keys as one chunk. A canceled batch stops between
// chunks and returns ctx.Err() joined with any chunk errors. Operations
// already applied stay applied — cancellation is early return, not
// rollback.
//
// A read batch (GetBatchU64, GetBatch, ContainsBatch) writes nothing, so
// its repeated keys share one answer: each shard resolves each distinct
// key of its run once, as its in-memory lookup phase reaches the key, and
// answers every position that repeats it. Core counters count the
// distinct keys, as a loop of one-key calls over them in first-occurrence
// order would, and each repeat costs its shard
// core.CPUCosts.BatchCoalesce of virtual time, the dedupe probe that
// found it, at its place in that phase. Write batches apply every
// position.
type Store interface {
	// Put adds or updates a key → value mapping.
	Put(key, value []byte) error
	// Get returns the latest value stored under key. The returned slice is
	// the caller's to keep.
	Get(key []byte) (value []byte, found bool, err error)
	// Delete lazily removes key (§5.1.1).
	Delete(key []byte) error

	// PutBatch applies len(keys) Put operations, batched through the
	// router. keys and values must have equal length.
	PutBatch(ctx context.Context, keys, values [][]byte) error
	// GetBatch looks up len(keys) keys through the batched lookup pipeline
	// (overlapped index probes, then overlapped value-log reads) and
	// returns per-key results in input order. The values are the caller's:
	// none aliases store memory or another value, so appending to or
	// writing one changes nothing else; a key repeated in the batch is
	// looked up once, and each of its positions gets its own copy. The
	// hits of one shard share one allocation, so holding any value keeps
	// its shard's arena (every hit of the shard's run in the batch)
	// alive.
	GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error)
	// DeleteBatch applies len(keys) Delete operations, batched.
	DeleteBatch(ctx context.Context, keys [][]byte) error

	// ContainsBatch reports, per key in input order, whether a record is
	// indexed under the key: the batched index pipeline alone, with no
	// value-log verification read — the existence probe dedup-style
	// workloads want. It accepts the fingerprint-collision (and
	// lapped-record) false positive rate the paper accepts at 32–64-bit
	// fingerprints; deleted keys read false. A lapped record reports true
	// only while its index incarnation also holds a pointer the value log
	// has not lapped: a store that never served a U64 put expires the
	// incarnations whose every record is lapped, and their keys read
	// false. Workloads that need exactness read through GetBatch.
	ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error)

	// PutU64 adds or updates a mapping on the 64-bit fast path.
	PutU64(key, value uint64) error
	// GetU64 returns the latest fast-path value stored under key.
	GetU64(key uint64) (value uint64, found bool, err error)
	// DeleteU64 lazily removes a fast-path key.
	DeleteU64(key uint64) error

	// PutBatchU64 applies len(keys) PutU64 operations, batched.
	PutBatchU64(ctx context.Context, keys, values []uint64) error
	// GetBatchU64 looks up len(keys) fast-path keys through the lookup
	// pipeline, returning per-key results in input order with the values
	// of one GetU64 call per key. The batch resolves each distinct key
	// once, so its probe counters match one GetU64 call per distinct key,
	// in first-occurrence order (see Batches and cancellation).
	GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error)
	// DeleteBatchU64 applies len(keys) DeleteU64 operations, batched.
	DeleteBatchU64(ctx context.Context, keys []uint64) error

	// Flush forces all buffered entries to flash.
	Flush() error
	// Stats snapshots operation counters and latency summaries.
	Stats() Stats
	// ResetMetrics clears latency histograms, core counters and
	// LentDedupes (typically after warm-up), so the next Stats' latency
	// summaries, Core and LentDedupes cover the since-reset window. Device, ValueDevice and ValueLog are not
	// reset: they stay cumulative since Open, and Memory is the current
	// footprint.
	ResetMetrics()
}

// fingerprintSalt decorrelates byte-key fingerprints from caller-chosen
// U64 keys and from the table's internal hashing.
const fingerprintSalt = 0xb17e5a1c_0ff5e75d

// fingerprint maps a byte key onto the 64-bit key path.
func fingerprint(key []byte, seed uint64) uint64 {
	return hashutil.HashBytes(key, seed^fingerprintSalt)
}

// fingerprintInto fingerprints keys into dst[:len(keys)].
func fingerprintInto(dst []uint64, keys [][]byte, seed uint64) {
	for i, k := range keys {
		dst[i] = fingerprint(k, seed)
	}
}

// Compile-time interface checks.
var (
	_ Store = (*CLAM)(nil)
	_ Store = (*Sharded)(nil)
)
