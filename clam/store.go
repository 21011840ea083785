package clam

import (
	"context"
	"errors"
	"time"

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
// misses, never as wrong values. Values are limited to
// storage.MaxValueRecordBytes per record.
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
// # Update semantics
//
// Update and UpdateU64 are documented aliases of Put and PutU64 with the
// paper's lazy-update semantics (§5.1.1): the new version is simply
// inserted, and lookups return it because they probe newest-first; older
// versions age out with their incarnations. There is no read-modify-write
// and no "key must exist" check — updating an absent key is an insert.
// CLAM and Sharded share this contract through the one implementation,
// and TestUpdateAliasSemantics pins it.
//
// # Batches and cancellation
//
// The batch calls take a context checked at batch-router chunk boundaries
// (see WithBatchChunk): a canceled batch stops between chunks and returns
// ctx.Err() joined with any chunk errors. Operations already applied stay
// applied — cancellation is early return, not rollback.
type Store interface {
	// Put adds or updates a key → value mapping.
	Put(key, value []byte) error
	// Get returns the latest value stored under key. The returned slice is
	// the caller's to keep.
	Get(key []byte) (value []byte, found bool, err error)
	// Delete lazily removes key (§5.1.1).
	Delete(key []byte) error
	// Update is an alias of Put (lazy update, see the interface comment).
	Update(key, value []byte) error

	// PutBatch applies len(keys) Put operations, batched through the
	// router. keys and values must have equal length.
	PutBatch(ctx context.Context, keys, values [][]byte) error
	// GetBatch looks up len(keys) keys through the batched lookup pipeline
	// (overlapped index probes, then overlapped value-log reads) and
	// returns per-key results in input order.
	GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error)
	// DeleteBatch applies len(keys) Delete operations, batched.
	DeleteBatch(ctx context.Context, keys [][]byte) error

	// Contains reports whether a record is indexed under key, stopping at
	// the index hit and skipping the value-log verification read — the
	// existence probe dedup-style workloads want. It accepts the
	// fingerprint-collision (and lapped-record) false positive rate the
	// paper accepts at 32–64-bit fingerprints; deleted keys read false.
	Contains(key []byte) (bool, error)
	// ContainsU64 reports whether a fast-path key is present (GetU64
	// without the value). On a store driven purely through the fast path
	// the probe is exact; on a store mixing both key families, a byte
	// record whose fingerprint equals key also counts as present (the two
	// families inhabit one table, see the interface comment).
	ContainsU64(key uint64) (bool, error)
	// ContainsBatch probes len(keys) keys through the batched index
	// pipeline with Contains's tradeoff, returning per-key existence in
	// input order.
	ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error)

	// PutU64 adds or updates a mapping on the 64-bit fast path.
	PutU64(key, value uint64) error
	// GetU64 returns the latest fast-path value stored under key.
	GetU64(key uint64) (value uint64, found bool, err error)
	// DeleteU64 lazily removes a fast-path key.
	DeleteU64(key uint64) error
	// UpdateU64 is an alias of PutU64 (lazy update).
	UpdateU64(key, value uint64) error

	// PutBatchU64 applies len(keys) PutU64 operations, batched.
	PutBatchU64(ctx context.Context, keys, values []uint64) error
	// GetBatchU64 looks up len(keys) fast-path keys through the lookup
	// pipeline, returning per-key results in input order with the same
	// values and probe counters as one GetU64 call per key.
	GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error)
	// DeleteBatchU64 applies len(keys) DeleteU64 operations, batched.
	DeleteBatchU64(ctx context.Context, keys []uint64) error

	// Flush forces all buffered entries to flash.
	Flush() error
	// Stats snapshots operation counters and latency summaries.
	Stats() Stats
	// ResetMetrics clears latency histograms and core counters (typically
	// after warm-up).
	ResetMetrics()
	// Elapse advances virtual time by d, modeling host idle time.
	Elapse(d time.Duration)
}

// ErrNoValueLog is returned by byte-valued operations on a store opened
// with WithCustomDevice but no WithValueLogDevice.
var ErrNoValueLog = errors.New("clam: no value-log device; byte-valued API needs WithValueLogDevice alongside WithCustomDevice")

// fingerprintSalt decorrelates byte-key fingerprints from caller-chosen
// U64 keys and from the table's internal hashing.
const fingerprintSalt = 0xb17e5a1c_0ff5e75d

// fingerprint maps a byte key onto the 64-bit key path.
func fingerprint(key []byte, seed uint64) uint64 {
	return hashutil.HashBytes(key, seed^fingerprintSalt)
}

// fingerprints fingerprints a batch of byte keys into dst, reusing its
// capacity, and returns it with len(keys) entries.
func fingerprints(dst []uint64, keys [][]byte, seed uint64) []uint64 {
	dst = resize(dst, len(keys))
	for i, k := range keys {
		dst[i] = fingerprint(k, seed)
	}
	return dst
}

// Compile-time interface checks.
var (
	_ Store = (*CLAM)(nil)
	_ Store = (*Sharded)(nil)
)
