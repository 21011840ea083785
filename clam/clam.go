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
// # One store, one path per op
//
// Every store is one implementation: a router over 2^b shards, each a
// BufferHash with its own devices, value log, virtual clock and latency
// histograms behind one mutex. A CLAM — the paper's single blocking-I/O
// instance — is the one-shard store. Adding WithShards(8) to the same
// option list opens a Sharded store, the key space partitioned by its top
// key bits (a byte key's fingerprint bits), the same split BufferHash
// applies to its super tables one level down (§5.2). The two types differ only in the surface they
// add: a CLAM exposes its clock, core and devices, a Sharded store its
// per-shard views and virtual makespan.
//
// A per-key call (PutU64, GetU64, DeleteU64, ContainsU64, Put, Get,
// Delete, Contains) routes its key to a shard and makes a one-key call of
// the same chunk helper the batches use, on stack arrays, so a key sent
// alone or inside a batch runs the same core pipeline, the same value-log
// calls and the same dead-record accounting. A batch call fingerprints its
// keys (byte ops only), groups them into contiguous per-shard runs with one
// counting sort, routes chunks of those runs to workers, makes one chunk
// call per chunk on a zero-copy sub-slice, and — for reads — scatters the
// grouped answers back to input order. GetBatch/GetBatchU64 overlap a
// chunk's index page probes — and then its value-log record reads, a
// second I/O stream — across the device's internal queue lanes.
// PutBatch/PutBatchU64 are the write-side mirror: a chunk's records land in
// the value log as one multi-record append, and every buffer flush the
// chunk triggers is issued as one address-sorted device WriteBatch
// submission, while counters and state match per-key calls exactly
// (Stats.WriteLatency shows the flattened write tail).
//
// # Worker model: one worker per shard, affinity and stealing
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
// Each shard is opened over simulated storage devices (Intel-class SSD,
// Transcend-class SSD, raw NAND chip, or magnetic disk — see DESIGN.md §3
// for why simulation preserves the paper's behaviour) and operates in
// virtual time: every operation advances its shard's virtual clock by its
// modeled latency, and per-operation latency distributions are recorded in
// histograms that the experiment harness turns into the paper's tables
// and figures.
//
// All Store methods are safe for concurrent use. Operations serialize per
// shard, matching the paper's blocking-I/O design point: a CLAM serializes
// everything behind its one shard's mutex, and a Sharded store runs its
// shards in parallel.
package clam

import (
	"bytes"
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

// CLAM is a cheap and large CAM — one instance of the paper's design: the
// one-shard store. It implements Store through the same routed code a
// Sharded store runs, over a single shard that keeps the whole key space,
// the configured seed and, when given, the caller's clock and devices.
// Safe for concurrent use; operations serialize behind the shard's mutex
// (the paper's blocking-I/O design point).
type CLAM struct{ *router }

// Clock returns the virtual clock (for building workloads that pace
// arrivals in virtual time).
func (c *CLAM) Clock() *vclock.Clock { return c.shards[0].clock }

// Core exposes the underlying BufferHash for the experiment harness.
// Callers must not use it concurrently with CLAM methods.
func (c *CLAM) Core() *core.BufferHash { return c.shards[0].bh }

// Device returns the underlying index storage device.
func (c *CLAM) Device() storage.Device { return c.shards[0].dev }

// ValueDevice returns the value-log device, or nil when the store has no
// value log.
func (c *CLAM) ValueDevice() storage.Device {
	if vlog := c.shards[0].vlog; vlog != nil {
		return vlog.Device()
	}
	return nil
}

// shard is one BufferHash with its own index device, value log, virtual
// clock and latency histograms, serialized behind one mutex. The router
// reaches it only through the locked methods below: the chunk helpers,
// each one call into the core pipeline (a per-key op is a one-key chunk),
// and the maintenance calls.
type shard struct {
	mu     sync.Mutex
	bh     *core.BufferHash
	dev    storage.Device
	vlog   *storage.ValueLog // nil iff no value-log device was configured
	clock  *vclock.Clock
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

// openShard builds one shard from its share of the resolved config.
func openShard(cfg config) (*shard, error) {
	clock := cfg.clock
	if clock == nil {
		clock = vclock.New()
	}
	s := &shard{clock: clock}
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
		dev = timeWrites(dev, &s.write)
		vdev = timeWrites(vdev, &s.write)
	}
	coreCfg, err := deriveConfig(cfg, dev, clock)
	if err != nil {
		return nil, err
	}
	if s.bh, err = core.New(coreCfg); err != nil {
		return nil, err
	}
	s.dev = dev
	if vdev != nil {
		if s.vlog, err = storage.NewValueLog(vdev); err != nil {
			return nil, err
		}
	}
	return s, nil
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
	}, nil
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

// --- chunk helpers: one locked core-pipeline call each ---
//
// Latency accounting: a chunk's virtual elapsed time is spread evenly over
// its keys, so each histogram records amortized per-key latency — a flush
// no longer lands on one unlucky insert — and its count stays equal to the
// number of keys served.

// putBatchU64Chunk is one batched insert: in-order buffer application with
// deferred CPU charges, then every triggered flush issued as one
// address-sorted overlapped write submission.
func (s *shard) putBatchU64Chunk(keys, values []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	if err := s.bh.InsertBatch(keys, values); err != nil {
		return err
	}
	observeSpread(&s.insert, w.Elapsed(), len(keys))
	return nil
}

// getBatchU64Into is one batched lookup (in-memory phase, coalesced
// overlapped flash phase, newest-first resolution) into results, which
// must have len(keys).
func (s *shard) getBatchU64Into(keys []uint64, results []core.LookupResult) error {
	if len(keys) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	if err := s.bh.LookupBatch(keys, results); err != nil {
		return err
	}
	observeSpread(&s.lookup, w.Elapsed(), len(keys))
	return nil
}

// deleteBatchU64Chunk is one batched delete. Deletes perform no I/O.
func (s *shard) deleteBatchU64Chunk(keys []uint64) error {
	if len(keys) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	if err := s.bh.DeleteBatch(keys); err != nil {
		return err
	}
	observeSpread(&s.del, w.Elapsed(), len(keys))
	return nil
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
func (s *shard) markDeadIfBuffered(fp uint64) {
	if s.vlog == nil {
		return
	}
	if old, ok := s.bh.BufferedValue(fp); ok {
		if off, n, ok := core.DecodeValuePtr(old); ok {
			s.vlog.MarkDead(off, n)
		}
	}
}

// putBatchRecords applies one chunk of byte Puts: one multi-record
// value-log append (its full pages reach the device as one sequential
// submission), dead-record accounting, then one core insert batch of the
// fingerprints and record pointers. Record offsets depend only on append
// order, so the final state matches one Put per key exactly.
func (s *shard) putBatchRecords(fps []uint64, keys, values [][]byte) error {
	if len(fps) == 0 {
		return nil
	}
	if s.vlog == nil {
		return ErrNoValueLog
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	s.putOffs = resize(s.putOffs, len(fps))
	s.putNs = resize(s.putNs, len(fps))
	s.putPtrs = resize(s.putPtrs, len(fps))
	offs, ns, ptrs := s.putOffs, s.putNs, s.putPtrs
	if err := s.vlog.AppendBatch(keys, values, offs, ns); err != nil {
		return err
	}
	if s.deadSeen == nil {
		s.deadSeen = make(map[uint64]uint64, len(fps))
	} else {
		clear(s.deadSeen)
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
		if prev, dup := s.deadSeen[fp]; dup {
			if off, n, ok := core.DecodeValuePtr(prev); ok {
				s.vlog.MarkDead(off, n)
			}
		} else {
			s.markDeadIfBuffered(fp)
		}
		if i < last {
			s.deadSeen[fp] = ptr
		}
		ptrs[i] = ptr
	}
	if err := s.bh.InsertBatch(fps, ptrs); err != nil {
		return err
	}
	observeSpread(&s.insert, w.Elapsed(), len(fps))
	return nil
}

// getBatchRecords resolves one chunk of byte Gets: batched index lookup,
// then one batched value-log read for every key that resolved to a record
// pointer, then per-key verification. It fills only the hits of values
// and found.
func (s *shard) getBatchRecords(fps []uint64, keys [][]byte, values [][]byte, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	if s.vlog == nil {
		return ErrNoValueLog
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	s.batchRes = resize(s.batchRes, len(fps))
	results := s.batchRes
	if err := s.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	reqs := s.batchReq[:0]
	idxs := s.batchIdx[:0]
	for i := range results {
		if off, n, ok := results[i].ValuePointer(); ok {
			reqs = append(reqs, storage.ValueReadReq{Off: off, N: n})
			idxs = append(idxs, i)
		}
	}
	s.batchReq, s.batchIdx = reqs, idxs
	if err := s.vlog.ReadRecordsBatch(reqs); err != nil {
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
	observeSpread(&s.lookup, w.Elapsed(), len(fps))
	return nil
}

// deleteBatchFPs applies one chunk of byte-key deletes, accounting each
// fingerprint's buffered record dead once.
func (s *shard) deleteBatchFPs(fps []uint64) error {
	if len(fps) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	if s.deadSeen == nil {
		s.deadSeen = make(map[uint64]uint64, len(fps))
	} else {
		clear(s.deadSeen)
	}
	last := len(fps) - 1 // untracked, as in putBatchRecords
	for i, fp := range fps {
		if _, dup := s.deadSeen[fp]; dup {
			continue
		}
		if i < last {
			s.deadSeen[fp] = 0
		}
		s.markDeadIfBuffered(fp)
	}
	if err := s.bh.DeleteBatch(fps); err != nil {
		return err
	}
	observeSpread(&s.del, w.Elapsed(), len(fps))
	return nil
}

// containsBatchFPs resolves one chunk of existence probes: the batched
// index lookup alone, with no value-log read.
func (s *shard) containsBatchFPs(fps []uint64, found []bool) error {
	if len(fps) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.clock.StartWatch()
	s.batchRes = resize(s.batchRes, len(fps))
	results := s.batchRes
	if err := s.bh.LookupBatch(fps, results); err != nil {
		return err
	}
	for i := range results {
		_, _, ok := results[i].ValuePointer()
		found[i] = ok
	}
	observeSpread(&s.lookup, w.Elapsed(), len(fps))
	return nil
}

// --- maintenance ---

func (s *shard) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bh.Flush()
}

func (s *shard) elapse(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.Advance(d)
}

func (s *shard) resetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert.Reset()
	s.lookup.Reset()
	s.del.Reset()
	s.write.Reset()
	s.bh.ResetStats()
}

// addStats adds the shard's counters into agg and its latency histograms
// into hs (insert, lookup, delete, write), under the shard's lock.
func (s *shard) addStats(agg *Stats, hs *[4]metrics.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg.Core.Merge(s.bh.Stats())
	agg.Device.Add(s.dev.Counters())
	agg.Memory.Add(s.bh.MemoryFootprint())
	if s.vlog != nil {
		agg.ValueDevice.Add(s.vlog.Device().Counters())
		agg.ValueLog.Add(s.vlog.Stats())
	}
	for i, h := range [...]*metrics.Histogram{&s.insert, &s.lookup, &s.del, &s.write} {
		hs[i].Merge(h)
	}
}

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
