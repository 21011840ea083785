// Package clam provides the public API of the CLAM — the Cheap and Large
// CAM of Anand et al. (NSDI 2010): a large hash table spanning DRAM and
// flash, built on the BufferHash data structure (internal/core), offering
// fast inserts, lookups, lazy updates/deletes, and flexible eviction.
//
// Everything is reached through one interface, Store, with one
// constructor, Open, configured by functional options:
//
//	st, err := clam.Open(
//	    clam.WithDevice(clam.IntelSSD),
//	    clam.WithFlash(16<<20),  // scaled-down stand-in for the paper's 32 GB
//	    clam.WithMemory(4<<20),  // DRAM budget, split per §6.4
//	)
//	if err != nil {
//	    // handle err
//	}
//	fp := sha1.Sum(chunk) // real content fingerprints are byte slices
//	if err := st.Put(fp[:], chunk); err != nil {
//	    // handle err
//	}
//	if data, ok, err := st.Get(fp[:]); err == nil && ok {
//	    // use data
//	}
//
// Byte keys of any length map to variable-length byte values: keys are
// fingerprinted onto the paper's 64-bit key path and records live in a
// page-aligned circular value log on slow storage, with every read
// verified against the full key bytes (see Store). Workloads that already
// have 64-bit fingerprints and word-sized values — the paper's evaluation
// — use the inline fast path (PutU64/GetU64), which bypasses the value log
// entirely and behaves exactly as before the byte API existed. Existence
// checks that don't need the value go through Contains/ContainsU64/
// ContainsBatch, which stop at the index hit and skip the record read
// (accepting the fingerprint-collision rate the paper accepts).
//
// Every operation has one path. The per-key calls (PutU64, GetU64,
// DeleteU64, ContainsU64, Put, Get, Delete, Contains) are one-key calls of
// the same chunk helpers the batch calls use, on stack arrays, so a key
// sent alone or inside a batch runs the same core pipeline, the same
// value-log calls and the same dead-record accounting.
//
// Adding WithShards(8) to the same option list opens a Sharded store: the
// key space is partitioned by top fingerprint bits across independent
// shards, each a complete CLAM with its own BufferHash, device models,
// virtual clock and histograms. Batch operations route through a shared
// chunk queue over a bounded worker pool with single-shard ownership,
// cache affinity and shard stealing. GetBatch/GetBatchU64 run each chunk
// through the core lookup pipeline, overlapping index page probes
// — and then value-log record reads, a second I/O stream — across the
// device's internal queue lanes. PutBatch/PutBatchU64 are the write-side
// mirror: each chunk's records land in the value log as one multi-record
// append, and every buffer flush the chunk triggers is issued as one
// address-sorted device WriteBatch submission, so flush writes overlap
// the same way lookup probes do while counters and state match per-key
// calls exactly (Stats.WriteLatency shows the flattened write tail).
//
// # Worker model: one worker per shard, affinity and stealing
//
// Every Sharded batch op has one shape: fingerprint the keys (byte ops
// only), group the batch into contiguous per-shard runs with one counting
// sort, route chunks of those runs to workers, make one CLAM chunk call
// per chunk on a zero-copy sub-slice, and — for reads — scatter the
// grouped answers back to input order. A single CLAM runs the same chunk
// calls in one loop.
//
// A shard serializes behind one mutex, so the batch router assigns each
// pending shard to exactly one worker at a time, which preserves
// within-shard input order. A worker keeps its shard between chunks
// (cache affinity: the shard's Bloom banks and buffers stay hot in that
// worker's cache) until the shard is drained, then steals the next pending
// shard from the shared queue. At most min(WithWorkers, shards with work)
// worker goroutines run per batch while the caller waits; under heavy skew
// the hot shard's chunks run on one worker while the others drain the cold
// shards and exit. Every chunk is one call into the core pipeline, so
// results, per-key probe sequences and every core counter match the same
// keys sent one at a time (the differential oracles pin this; see
// core.BufferHash.LookupBatch for the LRU carve-out); only wall-clock and
// virtual time change.
//
// A CLAM is opened over simulated storage devices (Intel-class SSD,
// Transcend-class SSD, raw NAND chip, or magnetic disk — see DESIGN.md §3
// for why simulation preserves the paper's behaviour) and operates in
// virtual time: every operation advances a virtual clock by its modeled
// latency, and per-operation latency distributions are recorded in
// histograms that the experiment harness turns into the paper's tables
// and figures.
//
// All Store methods are safe for concurrent use. A single CLAM serializes
// operations behind one mutex, matching the paper's blocking-I/O design
// point; a Sharded store serializes per shard and runs shards in parallel.
package clam

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// DeviceKind selects one of the calibrated device models.
type DeviceKind int

// Device models (see internal/ssd, internal/flashchip, internal/disk).
const (
	// IntelSSD is the paper's Intel X18-M: page-mapped FTL, fast reads.
	IntelSSD DeviceKind = iota
	// TranscendSSD is the paper's Transcend TS32GSSD25: block-mapped FTL,
	// an older and much cheaper device.
	TranscendSSD
	// FlashChip is a raw NAND chip (2 KB pages, 128 KB erase blocks).
	FlashChip
	// MagneticDisk is a 7200-rpm hard disk (the BH+Disk baseline).
	MagneticDisk
)

// String returns the device name.
func (d DeviceKind) String() string {
	switch d {
	case IntelSSD:
		return "ssd-intel"
	case TranscendSSD:
		return "ssd-transcend"
	case FlashChip:
		return "flash-chip"
	case MagneticDisk:
		return "disk"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// Policy re-exports the BufferHash eviction policies (§5.1.2).
type Policy = core.EvictionPolicy

// Eviction policies.
const (
	FIFO          = core.FIFO
	LRU           = core.LRU
	UpdateBased   = core.UpdateBased
	PriorityBased = core.PriorityBased
)

// CLAM is a cheap and large CAM — one instance of the paper's design,
// implementing Store. Safe for concurrent use; operations serialize behind
// one mutex (the paper's blocking-I/O design point).
type CLAM struct {
	mu     sync.Mutex
	bh     *core.BufferHash
	dev    storage.Device
	vlog   *storage.ValueLog // nil iff no value-log device was configured
	clock  *vclock.Clock
	fpSeed uint64
	chunk  int // batch chunk size: ctx-check interval and core-call bound
	insert metrics.Histogram
	lookup metrics.Histogram
	del    metrics.Histogram
	write  metrics.Histogram // per-request device write service (see Stats.WriteLatency)

	batchRes []core.LookupResult    // GetBatch scratch, guarded by mu
	batchReq []storage.ValueReadReq // GetBatch value-log scratch, guarded by mu
	batchIdx []int                  // GetBatch scatter scratch, guarded by mu

	putOffs  []int64           // PutBatch value-log pointer scratch, guarded by mu
	putNs    []int             // PutBatch value-log pointer scratch, guarded by mu
	putPtrs  []uint64          // PutBatch encoded-pointer scratch, guarded by mu
	deadSeen map[uint64]uint64 // PutBatch/DeleteBatch per-chunk dup tracking, guarded by mu
}

// effectiveEntryBytes is s in the §6 analysis: 16-byte entries at 50%
// cuckoo utilization occupy 32 bytes of buffer/flash per stored entry.
const effectiveEntryBytes = 32.0

// openCLAM builds a single CLAM from a resolved config.
func openCLAM(cfg config) (*CLAM, error) {
	clock := cfg.clock
	if clock == nil {
		clock = vclock.New()
	}
	c := &CLAM{
		clock: clock,
		chunk: cfg.batchChunk,
	}
	dev := cfg.customDevice
	vdev := cfg.customVLogDev
	if dev == nil {
		var err error
		if dev, err = newKindDevice(cfg.device, cfg.flashBytes, clock); err != nil {
			return nil, err
		}
		vbytes := cfg.valueLogBytes
		if vbytes == 0 {
			vbytes = cfg.flashBytes
		}
		if vdev, err = newKindDevice(cfg.device, vbytes, clock); err != nil {
			return nil, err
		}
		// Both slow-storage write streams — incarnation images and value-log
		// pages — feed one write-latency histogram (Stats.WriteLatency).
		dev = timeWrites(dev, &c.write)
		vdev = timeWrites(vdev, &c.write)
	}
	coreCfg, err := deriveConfig(cfg, dev, clock)
	if err != nil {
		return nil, err
	}
	bh, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}
	c.bh = bh
	c.dev = dev
	c.fpSeed = coreCfg.Seed
	if vdev != nil {
		if c.vlog, err = storage.NewValueLog(vdev); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// deriveConfig applies §6.4: choose B′ (≈ flash block), the number of super
// tables from B_opt, k = F/(nt·B′), and give all remaining memory to Bloom
// filters.
func deriveConfig(cfg config, dev storage.Device, clock *vclock.Clock) (core.Config, error) {
	g := dev.Geometry()
	bufBytes := cfg.bufferKB << 10
	if bufBytes == 0 {
		bufBytes = 128 << 10
		if _, erasable := dev.(storage.Eraser); erasable && g.BlockSize > 0 {
			bufBytes = g.BlockSize
		}
	}
	maxK := cfg.maxIncarnations
	if maxK == 0 {
		maxK = 16
	}
	if maxK > 64 {
		return core.Config{}, fmt.Errorf("clam: WithMaxIncarnations(%d) > 64", maxK)
	}

	// Total buffer allocation: B_opt, clamped to at most half the memory
	// budget, and at least one buffer.
	bOpt := costmodel.OptimalBufferBytes(cfg.flashBytes, effectiveEntryBytes)
	if cfg.memoryBytes > 0 && bOpt > cfg.memoryBytes/2 {
		bOpt = cfg.memoryBytes / 2
	}
	nt := bOpt / int64(bufBytes)
	// k = F/(nt·B′) must stay ≤ maxK; widen the partitioning if needed.
	for nt == 0 || cfg.flashBytes/(nt*int64(bufBytes)) > int64(maxK) {
		if nt == 0 {
			nt = 1
			continue
		}
		nt *= 2
	}
	partitionBits := uint(bits.Len64(uint64(nt)) - 1) // floor(log2)
	nt = 1 << partitionBits
	k := int(cfg.flashBytes / (nt * int64(bufBytes)))
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}

	fbe := cfg.filterBitsPerEntry
	if fbe == 0 {
		if cfg.memoryBytes == 0 {
			fbe = 16 // the paper's candidate configuration
		} else {
			bloomBytes := cfg.memoryBytes - nt*int64(bufBytes)
			if bloomBytes <= 0 {
				return core.Config{}, fmt.Errorf(
					"clam: memory budget %d leaves no room for Bloom filters after %d of buffers",
					cfg.memoryBytes, nt*int64(bufBytes))
			}
			entries := nt * int64(k) * int64(bufBytes/32) // n′ per incarnation × all
			fbe = int(bloomBytes * 8 / entries)
			if fbe < 1 {
				fbe = 1
			}
			if fbe > 64 {
				fbe = 64
			}
		}
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	return core.Config{
		Device:             dev,
		Clock:              clock,
		PartitionBits:      partitionBits,
		BufferBytes:        bufBytes,
		NumIncarnations:    k,
		FilterBitsPerEntry: fbe,
		FilterHashes:       0,
		Policy:             cfg.policy,
		Retain:             cfg.retain,
		Seed:               seed,
		DisableBloom:       cfg.disableBloom,
		DisableBitslice:    cfg.disableBitslice,
	}, nil
}

// --- U64 fast path ---

// PutU64 adds or updates a (key, value) mapping on the inline fast path:
// a one-key PutBatchU64 chunk.
func (c *CLAM) PutU64(key, value uint64) error {
	keys, values := [1]uint64{key}, [1]uint64{value}
	return c.putBatchU64Chunk(keys[:], values[:])
}

// UpdateU64 is an alias of PutU64 with the paper's lazy-update semantics
// (§5.1.1): the new version shadows older ones because lookups probe
// newest-first; there is no existence check and no read-modify-write.
func (c *CLAM) UpdateU64(key, value uint64) error { return c.PutU64(key, value) }

// GetU64 returns the latest value stored under key: a one-key GetBatchU64
// chunk.
func (c *CLAM) GetU64(key uint64) (value uint64, found bool, err error) {
	keys, results := [1]uint64{key}, [1]core.LookupResult{}
	err = c.getBatchU64Into(keys[:], results[:])
	return results[0].Value, results[0].Found, err
}

// DeleteU64 lazily removes key (§5.1.1): a one-key DeleteBatchU64 chunk.
func (c *CLAM) DeleteU64(key uint64) error {
	keys := [1]uint64{key}
	return c.deleteBatchU64Chunk(keys[:])
}

// PutBatchU64 applies len(keys) fast-path inserts through the core batched
// insert pipeline (see internal/core: in-order buffer application with
// deferred CPU charges, then every triggered flush issued as one
// address-sorted overlapped write submission). State and structural
// counters match the same keys sent one at a time through PutU64; each
// chunk holds the lock once and its flush writes overlap in virtual time.
// ctx is checked between chunks.
//
// Latency accounting: a chunk's virtual elapsed time is spread evenly over
// its keys, so the insert histogram records amortized per-key latency —
// flush costs no longer land on one unlucky insert — and its count stays
// equal to the number of inserts performed.
func (c *CLAM) PutBatchU64(ctx context.Context, keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatchU64 length mismatch: %d keys, %d values", len(keys), len(values))
	}
	return forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.putBatchU64Chunk(keys[lo:hi], values[lo:hi])
	})
}

// forChunks runs run over [0, n) in consecutive chunk-sized ranges,
// checking ctx before each one: the single CLAM's batch loop. It stops at
// the first cancellation or chunk error; chunks already run stay applied.
func forChunks(ctx context.Context, n, chunk int, run func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := run(lo, min(lo+chunk, n)); err != nil {
			return err
		}
	}
	return nil
}

// observeSpread records a chunk's virtual elapsed time as n samples of its
// per-key share, so a histogram's count stays the number of keys served.
// A one-key call's share is the whole, so it skips the division.
func observeSpread(h *metrics.Histogram, elapsed time.Duration, n int) {
	if n > 1 {
		elapsed /= time.Duration(n)
	}
	h.ObserveN(elapsed, n)
}

// resize returns s with length n, reallocating only when it is too small:
// the batch paths' reusable scratch.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// putBatchU64Chunk is one locked batched-insert call. The sharded batch
// router calls this chunk-by-chunk with slices of its per-shard runs.
func (c *CLAM) putBatchU64Chunk(keys, values []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.InsertBatch(keys, values); err != nil {
		return err
	}
	observeSpread(&c.insert, w.Elapsed(), len(keys))
	return nil
}

// GetBatchU64 looks up len(keys) keys through the core lookup pipeline
// (see internal/core: in-memory phase, coalesced overlapped flash phase,
// newest-first resolution) and returns per-key results in input order.
// The structural counters match the same keys sent one at a time through
// GetU64; each chunk holds the lock once and its flash reads overlap in
// virtual time. ctx is checked between chunks.
//
// Latency accounting: a chunk's virtual elapsed time is spread evenly over
// its keys, so the lookup histogram records amortized per-key latency and
// its count stays equal to the number of lookups performed.
func (c *CLAM) GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	results := make([]core.LookupResult, len(keys))
	if err := forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.getBatchU64Into(keys[lo:hi], results[lo:hi])
	}); err != nil {
		return nil, nil, err
	}
	for i, r := range results {
		values[i], found[i] = r.Value, r.Found
	}
	return values, found, nil
}

// getBatchU64Into is one locked batched-lookup call without the output
// allocation: results must have len(keys). The sharded batch router calls
// this chunk-by-chunk with grouped result slots.
func (c *CLAM) getBatchU64Into(keys []uint64, results []core.LookupResult) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.LookupBatch(keys, results); err != nil {
		return err
	}
	observeSpread(&c.lookup, w.Elapsed(), len(keys))
	return nil
}

// DeleteBatchU64 applies len(keys) fast-path deletes, checking ctx between
// chunks. Deletes perform no I/O; batching amortizes lock and clock
// traffic, with counters identical to one DeleteU64 call per key.
func (c *CLAM) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	return forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.deleteBatchU64Chunk(keys[lo:hi])
	})
}

// deleteBatchU64Chunk is one locked batched-delete call.
func (c *CLAM) deleteBatchU64Chunk(keys []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if err := c.bh.DeleteBatch(keys); err != nil {
		return err
	}
	observeSpread(&c.del, w.Elapsed(), len(keys))
	return nil
}

// --- byte-keyed operations ---

// Put adds or updates a key → value mapping: the record is appended to the
// value log and the key's fingerprint maps to its pointer. It is a one-key
// PutBatch chunk.
func (c *CLAM) Put(key, value []byte) error {
	return c.putRecord(fingerprint(key, c.fpSeed), key, value)
}

// Update is an alias of Put with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (c *CLAM) Update(key, value []byte) error { return c.Put(key, value) }

// putRecord is the one-key Put under a precomputed fingerprint.
func (c *CLAM) putRecord(fp uint64, key, value []byte) error {
	fps, keys, values := [1]uint64{fp}, [1][]byte{key}, [1][]byte{value}
	return c.putBatchRecords(fps[:], keys[:], values[:])
}

// markDeadIfBuffered moves fp's value-log record to the dead side of the
// log's space accounting if its pointer is still in the DRAM buffer — the
// only place an overwrite or delete is observable without extra probes.
// Records whose pointer already flushed to an incarnation die silently and
// are only accounted when the log laps them (ValueLogStats.LappedBytes).
// On a store mixing the key families, an inline U64 value whose bit 63 is
// set and whose key collides with fp decodes as a bogus pointer here; the
// mis-debit is bounded by MarkDead's range and region clamping, the same
// approximation class as silent deaths. Accounting only: no counters, CPU
// charges or I/O are touched.
func (c *CLAM) markDeadIfBuffered(fp uint64) {
	if c.vlog == nil {
		return
	}
	if old, ok := c.bh.BufferedValue(fp); ok {
		if off, n, ok := core.DecodeValuePtr(old); ok {
			c.vlog.MarkDead(off, n)
		}
	}
}

// Get returns the latest value stored under key, verified against the full
// key bytes in the value-log record. It is a one-key GetBatch chunk.
func (c *CLAM) Get(key []byte) (value []byte, found bool, err error) {
	return c.getRecord(fingerprint(key, c.fpSeed), key)
}

// getRecord is the one-key Get under a precomputed fingerprint.
func (c *CLAM) getRecord(fp uint64, key []byte) (value []byte, found bool, err error) {
	fps, keys := [1]uint64{fp}, [1][]byte{key}
	var values [1][]byte
	var founds [1]bool
	err = c.getBatchRecords(fps[:], keys[:], values[:], founds[:])
	return values[0], founds[0], err
}

// Delete lazily removes key (§5.1.1). The value-log record is reclaimed by
// the log's circular overwrite. It is a one-key DeleteBatch chunk.
func (c *CLAM) Delete(key []byte) error {
	return c.deleteFP(fingerprint(key, c.fpSeed))
}

// deleteFP is the one-key Delete under a precomputed fingerprint.
func (c *CLAM) deleteFP(fp uint64) error {
	fps := [1]uint64{fp}
	return c.deleteBatchFPs(fps[:])
}

// PutBatch applies len(keys) Put operations, chunk by chunk: each chunk's
// records are appended to the value log as one tail-buffered multi-record
// append (its full pages reach the device as one sequential submission),
// then the chunk's fingerprints and record pointers run through the core
// insert pipeline, whose flush writes are issued as one overlapped
// submission — the write-side mirror of GetBatch's two read streams. Final
// state matches one Put call per key exactly (record offsets depend only
// on append order). ctx is checked between chunks.
func (c *CLAM) PutBatch(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	if c.vlog == nil {
		return ErrNoValueLog
	}
	fps := fingerprints(nil, keys, c.fpSeed)
	return forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.putBatchRecords(fps[lo:hi], keys[lo:hi], values[lo:hi])
	})
}

// putBatchRecords applies one chunk under the lock: one multi-record
// value-log append, dead-record accounting, then one core insert batch.
// The sharded router calls this with per-shard chunks.
func (c *CLAM) putBatchRecords(fps []uint64, keys, values [][]byte) error {
	if len(fps) == 0 {
		return nil
	}
	if c.vlog == nil {
		return ErrNoValueLog
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	c.putOffs = resize(c.putOffs, len(fps))
	c.putNs = resize(c.putNs, len(fps))
	c.putPtrs = resize(c.putPtrs, len(fps))
	offs, ns, ptrs := c.putOffs, c.putNs, c.putPtrs
	if err := c.vlog.AppendBatch(keys, values, offs, ns); err != nil {
		return err
	}
	if c.deadSeen == nil {
		c.deadSeen = make(map[uint64]uint64, len(fps))
	} else {
		clear(c.deadSeen)
	}
	last := len(fps) - 1
	for i, fp := range fps {
		ptr, ok := core.EncodeValuePtr(offs[i], ns[i])
		if !ok {
			return fmt.Errorf("clam: value-log pointer (%d, %d) not encodable", offs[i], ns[i])
		}
		// Space accounting: the first occurrence of a fingerprint may kill a
		// pre-chunk record still in the buffer; later occurrences kill the
		// previous occurrence's record within this chunk. The last key has
		// no later occurrence to serve, so it is not tracked: a one-key
		// chunk leaves the tracker empty, and clearing an empty map is free.
		if prev, dup := c.deadSeen[fp]; dup {
			if off, n, ok := core.DecodeValuePtr(prev); ok {
				c.vlog.MarkDead(off, n)
			}
		} else {
			c.markDeadIfBuffered(fp)
		}
		if i < last {
			c.deadSeen[fp] = ptr
		}
		ptrs[i] = ptr
	}
	if err := c.bh.InsertBatch(fps, ptrs); err != nil {
		return err
	}
	observeSpread(&c.insert, w.Elapsed(), len(fps))
	return nil
}

// GetBatch looks up len(keys) keys, chunk by chunk: each chunk runs the
// core batched index pipeline (overlapped page probes) and then fetches
// the surviving value-log records as one overlapped batched read — the
// second I/O stream. ctx is checked between chunks.
func (c *CLAM) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return values, found, nil
	}
	if c.vlog == nil {
		return nil, nil, ErrNoValueLog
	}
	fps := fingerprints(nil, keys, c.fpSeed)
	if err := forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.getBatchRecords(fps[lo:hi], keys[lo:hi], values[lo:hi], found[lo:hi])
	}); err != nil {
		return nil, nil, err
	}
	return values, found, nil
}

// getBatchRecords resolves one chunk under the lock: batched index lookup,
// then one batched value-log read for every key that resolved to a record
// pointer, then per-key verification. It fills only the hits of values
// and found. The sharded router calls this with grouped per-shard chunks.
func (c *CLAM) getBatchRecords(fps []uint64, keys [][]byte, values [][]byte, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	if c.vlog == nil {
		return ErrNoValueLog
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	c.batchRes = resize(c.batchRes, len(fps))
	results := c.batchRes
	if err := c.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	reqs := c.batchReq[:0]
	idxs := c.batchIdx[:0]
	for i := range results {
		if off, n, ok := results[i].ValuePointer(); ok {
			reqs = append(reqs, storage.ValueReadReq{Off: off, N: n})
			idxs = append(idxs, i)
		}
	}
	c.batchReq, c.batchIdx = reqs, idxs
	if err := c.vlog.ReadRecordsBatch(reqs); err != nil {
		return err
	}
	for j, req := range reqs {
		i := idxs[j]
		if req.Rec == nil {
			continue
		}
		if v, ok := storage.VerifyRecord(req.Rec, keys[i]); ok {
			values[i] = bytes.Clone(v)
			found[i] = true
		}
	}
	observeSpread(&c.lookup, w.Elapsed(), len(fps))
	return nil
}

// DeleteBatch applies len(keys) Delete operations through the batched core
// delete path, checking ctx between chunks.
func (c *CLAM) DeleteBatch(ctx context.Context, keys [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	fps := fingerprints(nil, keys, c.fpSeed)
	return forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.deleteBatchFPs(fps[lo:hi])
	})
}

// deleteBatchFPs applies one chunk of byte-key deletes under the lock,
// accounting each fingerprint's buffered record dead once.
func (c *CLAM) deleteBatchFPs(fps []uint64) error {
	if len(fps) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	if c.deadSeen == nil {
		c.deadSeen = make(map[uint64]uint64, len(fps))
	} else {
		clear(c.deadSeen)
	}
	last := len(fps) - 1 // untracked, as in putBatchRecords
	for i, fp := range fps {
		if _, dup := c.deadSeen[fp]; dup {
			continue
		}
		if i < last {
			c.deadSeen[fp] = 0
		}
		c.markDeadIfBuffered(fp)
	}
	if err := c.bh.DeleteBatch(fps); err != nil {
		return err
	}
	observeSpread(&c.del, w.Elapsed(), len(fps))
	return nil
}

// --- existence probes ---

// ContainsU64 reports whether key is present on the fast path. It is
// GetU64 without returning the value: same probes, same counters.
func (c *CLAM) ContainsU64(key uint64) (bool, error) {
	_, found, err := c.GetU64(key)
	return found, err
}

// Contains reports whether a record is indexed under key's fingerprint,
// stopping at the index hit: unlike Get, it skips the value-log record
// read that would verify the full key bytes, so a duplicate probe costs
// only the index lookup. The price is the fingerprint-collision false
// positive rate the paper itself accepts at 32–64-bit fingerprints — a
// colliding key, or a key whose record the circular log has lapped, can
// report true. Workloads that need exactness read through Get.
func (c *CLAM) Contains(key []byte) (bool, error) {
	return c.containsFP(fingerprint(key, c.fpSeed))
}

// containsFP is the one-key Contains under a precomputed fingerprint.
func (c *CLAM) containsFP(fp uint64) (bool, error) {
	fps := [1]uint64{fp}
	var found [1]bool
	err := c.containsBatchFPs(fps[:], found[:])
	return found[0], err
}

// ContainsBatch probes len(keys) keys through the batched index pipeline
// and returns per-key existence in input order, with Contains's
// fingerprint-collision tradeoff: no value-log records are read, so a
// chunk costs exactly its overlapped index probes. ctx is checked between
// chunks.
func (c *CLAM) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return found, nil
	}
	fps := fingerprints(nil, keys, c.fpSeed)
	if err := forChunks(ctx, len(keys), c.chunk, func(lo, hi int) error {
		return c.containsBatchFPs(fps[lo:hi], found[lo:hi])
	}); err != nil {
		return nil, err
	}
	return found, nil
}

// containsBatchFPs resolves one chunk of existence probes under the lock.
// The sharded router calls this with grouped per-shard chunks.
func (c *CLAM) containsBatchFPs(fps []uint64, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.clock.StartWatch()
	c.batchRes = resize(c.batchRes, len(fps))
	results := c.batchRes
	if err := c.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	for i := range results {
		_, _, ok := results[i].ValuePointer()
		found[i] = ok
	}
	observeSpread(&c.lookup, w.Elapsed(), len(fps))
	return nil
}

// --- maintenance and introspection ---

// Flush forces all buffered entries to flash.
func (c *CLAM) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bh.Flush()
}

// Clock returns the virtual clock (for building workloads that pace
// arrivals in virtual time).
func (c *CLAM) Clock() *vclock.Clock { return c.clock }

// Device returns the underlying index storage device.
func (c *CLAM) Device() storage.Device { return c.dev }

// ValueDevice returns the value-log device, or nil when the store has no
// value log.
func (c *CLAM) ValueDevice() storage.Device {
	if c.vlog == nil {
		return nil
	}
	return c.vlog.Device()
}

// Core exposes the underlying BufferHash for the experiment harness.
// Callers must not use it concurrently with CLAM methods.
func (c *CLAM) Core() *core.BufferHash { return c.bh }

// Stats is a point-in-time summary of a Store's behaviour.
type Stats struct {
	Core   core.Stats
	Device storage.Counters
	// ValueDevice counts the value log's own I/O (zero when the store has
	// no value log or the byte API was never used).
	ValueDevice storage.Counters
	// ValueLog counts record appends and log wraps.
	ValueLog storage.ValueLogStats

	InsertLatency metrics.Summary
	LookupLatency metrics.Summary
	DeleteLatency metrics.Summary
	// WriteLatency distributes the per-request virtual service time of the
	// slow-storage write stream (incarnation image flushes and value-log
	// page appends, on kind-opened stores): a lone flush pays one full
	// write, while the images of a batched insert or of an eviction
	// cascade share command setup and overlap across the device's queue
	// lanes, each request recording its share of the submission. Empty on
	// WithCustomDevice stores.
	WriteLatency metrics.Summary

	Memory core.MemoryFootprint
}

// Stats snapshots the operation counters and latency summaries.
func (c *CLAM) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Core:          c.bh.Stats(),
		Device:        c.dev.Counters(),
		InsertLatency: c.insert.Summarize(),
		LookupLatency: c.lookup.Summarize(),
		DeleteLatency: c.del.Summarize(),
		WriteLatency:  c.write.Summarize(),
		Memory:        c.bh.MemoryFootprint(),
	}
	if c.vlog != nil {
		st.ValueDevice = c.vlog.Device().Counters()
		st.ValueLog = c.vlog.Stats()
	}
	return st
}

// InsertHistogram returns the insert latency histogram (callers must not
// race it against operations; quiesce first).
func (c *CLAM) InsertHistogram() *metrics.Histogram { return &c.insert }

// LookupHistogram returns the lookup latency histogram.
func (c *CLAM) LookupHistogram() *metrics.Histogram { return &c.lookup }

// ResetMetrics clears latency histograms and core counters, typically after
// a warm-up phase.
func (c *CLAM) ResetMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert.Reset()
	c.lookup.Reset()
	c.del.Reset()
	c.write.Reset()
	c.bh.ResetStats()
}

// Elapse advances the virtual clock by d, modeling host idle time (during
// which SSDs perform background garbage collection).
func (c *CLAM) Elapse(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock.Advance(d)
}
