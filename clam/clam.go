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
// circular value log on slow storage, written in whole erase blocks, with
// every read verified against the full key bytes (see Store). Workloads
// that already have 64-bit fingerprints and word-sized values — the
// paper's evaluation — use the inline fast path (PutU64/GetU64), which
// bypasses the value log entirely and behaves exactly as before the byte
// API existed. Existence checks that don't need the value go through
// ContainsBatch, which stops at the index hit and skips the record read
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
// add: a CLAM exposes its clock and core, a Sharded store its
// per-shard views and virtual makespan.
//
// A per-key call (PutU64, GetU64, DeleteU64, Put, Get, Delete) routes its
// key to a shard and makes a one-key call of the same chunk helper the
// batches use, on stack arrays, so a key sent alone or inside a batch runs
// the same core pipeline, the same value-log calls and the same
// dead-record accounting. A batch call fingerprints its
// keys (byte ops only), groups them into contiguous per-shard runs with one
// counting sort, routes chunks of those runs to workers, makes one chunk
// call per chunk on a zero-copy sub-slice, and — for reads — scatters the
// grouped answers back to input order. A write run is cut into chunks of
// 512 keys; a read run is one chunk, so its one core call resolves each
// distinct key once: the core's in-memory phase finds each repeat as it
// reaches it, charges the shard's clock CPU.BatchCoalesce there, and
// answers the repeat from the key's first occurrence. A GetBatchU64 run
// far above the mean lends that dedupe: shards with short runs dedupe its
// tail with their own cores on their own clocks, and the last of them to
// finish makes the owner's one call, which resolves the same distinct keys
// in the same order (see Sharded.GetBatchU64).
// GetBatch/GetBatchU64 overlap each probing round's index page probes
// across the index's SSDs and their internal queue lanes; GetBatch reads
// the records of its hits in batched value-log reads, likewise
// overlapped, while the index probes: during the in-memory phase as hits
// become final, and after each probing round.
// PutBatch/PutBatchU64 are the write-side mirror: a chunk's records land
// in the value log as one multi-record append, which runs on the
// value-log device while the chunk inserts their pointers, and every
// buffer flush the chunk triggers is issued as one address-sorted device
// WriteBatch submission, while counters and state match per-key calls
// exactly.
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
// results match the same keys sent one at a time, and per-key probe
// sequences and every core counter match them sent one at a time with a
// read batch's repeats left out (the differential oracles pin this); only
// wall-clock and virtual time change.
//
// Each shard is opened over simulated storage devices, the paper's
// Intel-class or Transcend-class SSD. Simulation keeps the paper's
// behaviour because each model prices I/O as the paper does: a fixed cost
// plus a per-byte transfer (§6.1) over whole pages, behind the FTL's
// mapping and garbage collection. Each shard operates in virtual time:
// every operation advances its shard's virtual clock by its modeled
// latency, and per-operation latency distributions are recorded in
// histograms that the experiment harness turns into the paper's tables
// and figures.
//
// A kind-opened shard has two SSDs, A and B, and keeps three timelines,
// as a CPU and two SSDs on one host do (§6.1 prices each device's I/O on
// its own): the CPU charges run on the shard clock, and each SSD on a
// private clock. The two SSDs are a symmetric pair. Each holds half the
// index and half the value log, this repository's byte-API extension, as
// two partitions, each an SSD model of its own on its SSD's clock, so the
// index's and the log's FTL state stay apart while an SSD serves one
// submission at a time, index probe, flush, record read or append. The
// index and the log are each a storage.Stripe of one-erase-block units
// dealt over both SSDs, RAID-0 style: the index's every second unit lies
// on B, the log's every second on A. A submission first moves both
// clocks up to the shard clock, since it cannot start before it is
// issued, each SSD serves its share on its own clock, and the shard clock
// moves up to the later SSD's clock (a join) only where the shard needs
// the result. The core joins the index after every write, image read and
// probing round; only a lookup batch's first round runs while its
// in-memory phase still does, when the core hands the index, while both
// SSDs are idle, the probes gathered so far, one SSD's lanes at a time
// (see core.Config.DeviceClock), and resolves each key whose read has
// completed. A byte get chunk hands the value log each hit as soon as it
// is final, from the in-memory phase on, whenever SSD B is idle (see
// core.HitHook), and joins it after its last lookup round. The value log
// writes whole erase blocks, and a put chunk that succeeds acknowledges
// without waiting for its write: it joins the log only before its own
// append, when an earlier chunk's write still runs, and when it fails.
// So every chunk call returns joined to both SSDs but for one put chunk's
// write in flight, which the next submission to its SSD, index or log,
// queues behind. A one-key call has nothing to overlap and costs the
// serial sum of its device time and whatever remains of an earlier put's
// write. Each partition's idle time, and so its background
// garbage-collection credit, is measured on its SSD's clock. A
// WithCustomDevice store runs its index device on the shard clock, where
// device and CPU time add up, through the same lookup path: such a device
// is idle at every CPU instant and completes each read as it is issued.
// Its value log is kind-made on one SSD on a private clock. A log too
// small to give each SSD an erase block lies on B alone, and such an
// index on A alone.
//
// Shard clocks run free between calls: a call advances each shard it
// reaches from wherever that shard's clock stands, so a shard that ended
// one call early starts its part of the next early too, and a Sharded
// store's Now is the makespan of a parallel workload, not of a caller
// that waits for each call. Virtual time gives each shard its own CPU
// timeline whatever WithWorkers is: the workers set how many shards run
// at once in wall time, never a shard's virtual time.
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
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// DeviceKind selects one of the calibrated device models.
type DeviceKind int

// Device models (see internal/ssd). The experiments build their disk
// baseline (BH+Disk) on internal/disk directly, and WithCustomDevice opens
// a CLAM over any other model.
const (
	// IntelSSD is the paper's Intel X18-M: page-mapped FTL, fast reads.
	IntelSSD DeviceKind = iota
	// TranscendSSD is the paper's Transcend TS32GSSD25: block-mapped FTL,
	// an older and much cheaper device.
	TranscendSSD
)

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

// shard is one BufferHash with its own index device, value log, virtual
// clock and latency histograms, serialized behind one mutex. The clock
// times the shard's CPU charges. A kind-opened shard's two SSDs, A and B,
// are a symmetric pair: each keeps a timeline of its own and holds half
// the index and half the value log (see openShard), so the index's probes
// and flushes and the log's record reads and appends all run on both
// timelines, and each SSD serves one submission at a time, whichever
// structure it is for. The core issues and joins the index on both (its
// Config.DeviceClock), and the shard the log (see issueLog and join);
// every chunk call returns joined to both, but for a put chunk's
// value-log write. The router reaches a shard only through the locked
// methods below: the chunk helpers, each one call into the core pipeline
// (a per-key op is a one-key chunk), and the maintenance calls.
type shard struct {
	mu     sync.Mutex
	bh     *core.BufferHash
	vlog   *storage.ValueLog
	clock  *vclock.Clock
	insert metrics.Histogram
	lookup metrics.Histogram
	del    metrics.Histogram

	// idx is the index device and logs the value log's, each with the
	// timelines it runs on.
	idx, logs striped

	batchRes []core.LookupResult    // GetBatch scratch, guarded by mu
	batchReq []storage.ValueReadReq // GetBatch value-log scratch, guarded by mu
	batchIdx []int                  // GetBatch read-to-key and verified-hit scratch, guarded by mu

	// A byte get chunk in flight (see readHits), guarded by mu: the
	// LookupBatch hook bound once at open, the record read for each
	// position (nil for none), the arena holding the records the value
	// log copied, and the verified values.
	onHits   *core.HitHook
	rec      [][]byte
	recArena []byte
	batchHit [][]byte

	lentDedupes uint64 // read positions deduped for other shards' runs, guarded by mu

	putPtrs   []uint64 // PutBatch value-log pointer scratch, guarded by mu
	displaced []uint64 // buffer words a byte chunk's core call displaced, guarded by mu

	// Incarnation expiry (see expireLapped), guarded by mu: the pending
	// marks, oldest first, the flush sequence of the newest one taken, and
	// whether the shard ever served a U64 put, which turns expiry off.
	marks   []expiryMark
	markSeq uint64
	inline  bool
}

// effectiveEntryBytes is s in the §6 analysis: 16-byte entries at 50%
// cuckoo utilization occupy 32 bytes of buffer/flash per stored entry.
const effectiveEntryBytes = 32.0

// openShard builds one shard from its share of the resolved config. A
// kind-opened shard gets two SSDs of the kind, A and B, each on a
// timeline of its own, and each holds half the index and half the value
// log as two partitions (see stripeOver): the index is dealt over A then
// B, the log over B then A. A WithCustomDevice shard keeps its index device
// on the shard clock and builds its log on one SSD on a private clock.
func openShard(cfg config) (*shard, error) {
	clock := cfg.clock
	if clock == nil {
		clock = vclock.New()
	}
	prof, err := kindProfile(cfg.device)
	if err != nil {
		return nil, err
	}
	s := &shard{clock: clock, idx: striped{Device: cfg.customDevice}}
	logClocks := []*vclock.Clock{vclock.New()}
	if s.idx.Device == nil {
		a, b := vclock.New(), vclock.New()
		if s.idx, err = stripeOver(prof, cfg.flashBytes, a, b); err != nil {
			return nil, err
		}
		logClocks = []*vclock.Clock{b, a}
	}
	vbytes := cfg.valueLogBytes
	if vbytes == 0 {
		vbytes = cfg.flashBytes
	}
	if s.logs, err = stripeOver(prof, vbytes, logClocks...); err != nil {
		return nil, err
	}
	if s.vlog, err = storage.NewValueLog(s.logs.Device); err != nil {
		return nil, err
	}
	// A get chunk hands its hits to the log when its first member's SSD (B
	// on a pair) is idle, in multiples of the log's lanes, both SSDs'
	// (see core.HitHook): 769,208 virtual ops/s on dedup-ingest (seed 1).
	// Multiples of one SSD's lanes read 767,944.
	s.onHits = &core.HitHook{Read: s.readHits, Clock: s.logs.clocks[0], Lanes: s.logs.Geometry().Lanes}
	coreCfg, err := deriveConfig(cfg, s.idx.Device, clock)
	if err != nil {
		return nil, err
	}
	coreCfg.DeviceClock = s.idx.clocks
	if s.bh, err = core.New(coreCfg); err != nil {
		return nil, err
	}
	return s, nil
}

// striped is a device of a shard's SSDs: a storage.Stripe over one
// partition of each (see stripeOver), or a single device, and the clocks
// of the SSDs its members lie on, in member order, which are its
// timelines (none for a WithCustomDevice index, which runs on the shard
// clock). parts are the partitions themselves.
type striped struct {
	storage.Device
	parts  []*ssd.SSD
	clocks []*vclock.Clock
}

// stripeOver builds a device of bytes over one SSD partition of the kind
// per clock, each on its clock: a storage.Stripe whose unit is one erase
// block, dealt to the partitions in clock order, RAID-0 style (Patterson,
// Gibson and Katz, SIGMOD 1988). Each partition is an SSD model of its own,
// so the index's and the log's FTL state stay apart while a shard's two
// partitions on one SSD serialize on its one timeline. The device's
// capacity, and so the value log's unit boundaries, cycles and pointer
// words, are those of one SSD of bytes: the kind's erase block rounds bytes
// up to whole blocks, as the SSD model does. A device too small to give
// every partition a block is the first clock's SSD alone.
func stripeOver(prof ssd.Profile, bytes int64, clocks ...*vclock.Clock) (striped, error) {
	unit := int64(prof.BlockSize())
	pattern := make([]int, len(clocks))
	for i := range pattern {
		pattern[i] = i
	}
	shares := storage.StripeShares(pattern, len(clocks), (bytes+unit-1)/unit)
	if len(clocks) == 1 || shares[len(shares)-1] == 0 {
		dev := ssd.New(prof, bytes, clocks[0])
		return striped{dev, []*ssd.SSD{dev}, clocks[:1]}, nil
	}
	d := striped{parts: make([]*ssd.SSD, len(clocks)), clocks: clocks}
	members := make([]storage.Device, len(clocks))
	for i, c := range clocks {
		d.parts[i] = ssd.New(prof, shares[i]*unit, c)
		members[i] = d.parts[i]
	}
	var err error
	d.Device, err = storage.NewStripe(int(unit), pattern, members...)
	return d, err
}

// deriveConfig applies §6.4: choose B′ (≈ flash block), the number of super
// tables from B_opt, k = F/(nt·B′), set a budgeted store's hot-entry cache
// at 1/hotCacheShare of its budget, and give all remaining memory to Bloom
// filters.
func deriveConfig(cfg config, dev storage.Device, clock *vclock.Clock) (core.Config, error) {
	bufBytes := cfg.bufferKB << 10
	if bufBytes == 0 {
		bufBytes = 128 << 10
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

	fbe := 16 // the paper's candidate configuration
	cacheEntries := 0
	if cfg.memoryBytes > 0 {
		cacheEntries = hotCacheEntries(cfg.memoryBytes)
		bloomBytes := cfg.memoryBytes - nt*int64(bufBytes) - int64(cacheEntries)*core.CacheEntryBytes
		if bloomBytes <= 0 {
			return core.Config{}, fmt.Errorf(
				"clam: memory budget %d leaves no room for Bloom filters after %d of buffers and %d of hot cache",
				cfg.memoryBytes, nt*int64(bufBytes), int64(cacheEntries)*core.CacheEntryBytes)
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
		CacheEntries:       cacheEntries,
		Policy:             cfg.policy,
		Retain:             cfg.retain,
		Seed:               seed,
	}, nil
}

// A shard's hot-entry cache takes 1/hotCacheShare of its memory budget,
// out of the Bloom filters' share: 4,096 entries per shard when 8 shards
// split 12 MB.
const hotCacheShare = 16

// hotCacheEntries sizes a shard's hot-entry cache for a memory budget: the
// most entries, a power of two, that fit its share, or none below 2.
func hotCacheEntries(memoryBytes int64) int {
	n := memoryBytes / hotCacheShare / core.CacheEntryBytes
	if n < 2 {
		return 0
	}
	return 1 << (bits.Len64(uint64(n)) - 1)
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
// Every helper has one skeleton: begin takes the shard lock and starts the
// virtual stopwatch, the helper makes its one core call (a byte helper
// wraps its value-log stage around the same core call a U64 helper makes),
// and end records the chunk and unlocks. Chunks are never empty: per-key
// calls pass one key, and the router hands out only non-empty ranges.
//
// Latency accounting: a chunk's virtual elapsed time is spread evenly over
// its keys, so each histogram records amortized per-key latency — a flush
// no longer lands on one unlucky insert — and its count stays equal to the
// number of keys served.

// begin opens a chunk call: it takes the shard lock and returns a
// stopwatch on the shard's virtual clock.
func (s *shard) begin() vclock.Stopwatch {
	s.mu.Lock()
	return s.clock.StartWatch()
}

// end closes a chunk call of n keys opened by begin: on success it records
// the chunk's virtual elapsed time into h, then it unlocks and returns err.
func (s *shard) end(h *metrics.Histogram, w vclock.Stopwatch, n int, err error) error {
	if err == nil {
		observeSpread(h, w.Elapsed(), n)
	}
	s.mu.Unlock()
	return err
}

// putBatchU64Chunk is one batched insert: in-order buffer application with
// deferred CPU charges, then every triggered flush issued as one
// address-sorted overlapped write submission.
func (s *shard) putBatchU64Chunk(keys, values []uint64) error {
	w := s.begin()
	s.inline, s.marks = true, nil
	return s.end(&s.insert, w, len(keys), s.bh.InsertBatch(keys, values, nil))
}

// getBatchU64Into is one batched lookup (in-memory phase with repeated
// keys resolved once, coalesced overlapped flash phase, newest-first
// resolution) into results, which must have len(keys).
func (s *shard) getBatchU64Into(keys []uint64, results []core.LookupResult) error {
	w := s.begin()
	return s.end(&s.lookup, w, len(keys), s.bh.LookupBatch(keys, results, nil))
}

// lendU64 is getBatchU64Into for a helper in a read batch's lent dedupe
// (see router.lend), which first dedupes piece, positions of another
// shard's run, in place on its behalf (see core.BufferHash.Lend): their
// charge lands on the shard's clock during its own call, or as a plain
// advance when its run is empty, which records no latency. It returns how
// many distinct keys the piece forwards and the instant on the shard's
// clock at which its dedupe ended.
func (s *shard) lendU64(piece []uint64, via []int32, keys []uint64, results []core.LookupResult) (fwd int, ready time.Duration, err error) {
	w := s.begin()
	s.lentDedupes += uint64(len(piece))
	fwd = s.bh.Lend(piece, via)
	if len(keys) > 0 {
		if err = s.bh.LookupBatch(keys, results, nil); err == nil {
			observeSpread(&s.lookup, w.Elapsed(), len(keys))
		}
	}
	ready = s.bh.LentReady()
	s.mu.Unlock()
	return fwd, ready, err
}

// getLentU64 is getBatchU64Into for the owner of a split run (see
// router.lend), made by its last helper: its clock first moves up to
// ready, the instant its helpers' dedupe ended, and keys, its head and the
// keys forwarded for its tail, answer all positions of its run. It
// returns the clock instant at which its lookup call began.
func (s *shard) getLentU64(keys []uint64, results []core.LookupResult, ready time.Duration, positions int) (start time.Duration, err error) {
	w := s.begin()
	s.clock.AdvanceTo(ready)
	start = s.clock.Now()
	return start, s.end(&s.lookup, w, positions, s.bh.LookupBatch(keys, results, nil))
}

// deleteBatchU64Chunk is one batched delete. Deletes perform no I/O.
func (s *shard) deleteBatchU64Chunk(keys []uint64) error {
	w := s.begin()
	return s.end(&s.del, w, len(keys), s.bh.DeleteBatch(keys, nil))
}

// putBatchRecords applies one chunk of byte Puts: one multi-record
// value-log append (its whole write units reach the device as one
// sequential submission, on the log's timelines), one core insert
// batch of the fingerprints and record pointers, which runs without
// waiting for the append, dead-record accounting of the pointers it
// displaced, and last the expiry of incarnations the log has lapped.
//
// A chunk that succeeds acknowledges without joining the log: its write
// runs on behind it, and a get's record reads queue behind the write,
// since issueLog only moves the log clock forward. The records already sat
// in DRAM until a write unit filled; a simulated write fails when it is
// submitted, so its error still reaches the chunk that caused it. A put
// chunk first waits for an earlier chunk's write still running, so at most
// one chunk's append is in flight. An append whose pages fail to write
// still hands back its pointers, so the chunk inserts them, joins the log
// and fails, unacknowledged. Record offsets depend only on append order,
// so the final state matches one Put per key exactly.
func (s *shard) putBatchRecords(fps []uint64, keys, values [][]byte) error {
	w := s.begin()
	s.join()
	s.issueLog()
	ptrs, err := s.appendRecords(keys, values)
	if ptrs != nil {
		displaced := s.displacedWords(len(fps))
		insertErr := s.bh.InsertBatch(fps, ptrs, displaced)
		s.retire(displaced)
		if err == nil {
			err = insertErr
		}
	}
	if err != nil {
		s.join()
	} else {
		s.expireLapped()
	}
	return s.end(&s.insert, w, len(fps), err)
}

// issueLog readies the value-log device's timelines for a submission the
// shard issues now: the submission cannot start before it is issued, so
// each SSD's clock moves up to the shard clock, as the core's issue of an
// index submission moves them. Each partition then advances its SSD's
// clock by its share, queued behind whatever that SSD still serves, the
// index's probes and flushes too, and the shard runs on without waiting.
func (s *shard) issueLog() { vclock.AdvanceAll(s.logs.clocks, s.clock.Now()) }

// join makes the shard wait for the value-log device: the shard clock
// moves up to the later SSD's clock. A get chunk joins after its last
// lookup round, and a put chunk before its append and when it fails, so
// between chunks each SSD's clock is ahead of the shard clock by at most
// its share of the last put chunk's append. The core joins both SSDs after
// its own writes and probing rounds, so a put chunk that flushes waits for
// its append's shares too.
func (s *shard) join() { s.clock.AdvanceTo(vclock.Latest(s.logs.clocks)) }

// expiryMark pairs a flush sequence with the value-log position after it:
// every incarnation at or below seq holds only pointers to records
// appended before at.
type expiryMark struct {
	seq uint64
	at  uint64 // ValueLog.Mark
}

// maxExpiryMarks bounds a shard's pending marks. A full list replaces its
// newest mark, which only delays the expiry the replaced mark would have
// allowed.
const maxExpiryMarks = 64

// expireLapped expires the incarnations whose every entry points at a
// record the value log has lapped, so a lookup never reads their pages
// only to find a pointer the log answers as a miss. After a chunk of puts
// that moved the flush sequence, it marks the sequence with the log
// position: every incarnation flushed so far holds pointers to records
// appended before it. It then pops the marks the log has lapped and
// expires the incarnations through the newest one's sequence (see
// core.BufferHash.ExpireThrough). Inline U64 values are no record
// pointers, so a shard that ever served a U64 put expires nothing.
func (s *shard) expireLapped() {
	if s.inline {
		return
	}
	if seq := s.bh.Seq(); seq != s.markSeq {
		s.markSeq = seq
		m := expiryMark{seq: seq, at: s.vlog.Mark()}
		if len(s.marks) == maxExpiryMarks {
			s.marks[len(s.marks)-1] = m
		} else {
			s.marks = append(s.marks, m)
		}
	}
	n := 0
	for n < len(s.marks) && s.vlog.Lapped(s.marks[n].at) {
		n++
	}
	if n > 0 {
		s.bh.ExpireThrough(s.marks[n-1].seq)
		s.marks = append(s.marks[:0], s.marks[n:]...)
	}
}

// appendRecords appends the chunk's records to the value log as one
// multi-record append and returns their pointer words in shard scratch.
// The pointers are known before the append's pages reach the device, so
// they come back with a write error too: the log keeps the pages in its
// tail buffer, serves reads of them from there and writes them with its
// next append. A record the log refused (too large, or a wrap whose
// write failed) leaves the chunk without pointers, and ptrs is nil.
func (s *shard) appendRecords(keys, values [][]byte) (ptrs []uint64, err error) {
	s.putPtrs = resize(s.putPtrs, len(keys))
	s.putPtrs[len(keys)-1] = 0 // a pointer word is never 0
	err = s.vlog.AppendBatch(keys, values, s.putPtrs)
	if s.putPtrs[len(keys)-1] == 0 {
		return nil, err
	}
	return s.putPtrs, err
}

// displacedWords returns the shard's scratch for the value words a
// chunk's core call of n keys displaces, zeroed, so a key an erring call
// did not reach displaces nothing.
func (s *shard) displacedWords(n int) []uint64 {
	s.displaced = resize(s.displaced, n)
	clear(s.displaced)
	return s.displaced
}

// retire moves the value-log records that a chunk's core call displaced
// from the DRAM buffer (see core.BufferHash.InsertBatch) to the dead side
// of the log's space accounting. The buffer is the only place an
// overwrite or delete is observable without extra probes, and the core
// reports exactly what each key's insert or delete found there, so a
// batch debits the records a per-key call would, across in-batch flushes
// too: a duplicate displaces the record of its previous occurrence while
// that is buffered, and nothing once a flush moved it out.
//
// Records whose pointer already flushed to an incarnation die silently and
// are only accounted when the log laps them (ValueLogStats.LappedBytes).
// A buffered pointer whose record the log already overwrote debits
// nothing: MarkDead reads the pointer's cycle. On a store mixing the key
// families, an inline U64 value whose bit 63 is set and whose key collides
// with a fingerprint decodes as a bogus pointer here; the mis-debit is
// bounded by MarkDead's range and region clamping, the same approximation
// class as silent deaths. Accounting only: no counters, CPU charges or
// I/O are touched.
func (s *shard) retire(displaced []uint64) {
	for _, word := range displaced {
		s.vlog.MarkDead(word)
	}
}

// getBatchRecords resolves one chunk of byte Gets: a batched index lookup
// that hands its hits to readHits as they become final, from its
// in-memory phase on, so their records are read while the index probes,
// then one join and the per-key verification.
// The chunk is one value-log get chunk (see storage.ValueLog.EndChunk):
// every hand-off adds its records' log pages to the chunk's one page-read
// set, so a page one hand-off read serves every later hand-off's records
// in it. It fills only the hits of values and found.
func (s *shard) getBatchRecords(fps []uint64, keys [][]byte, values [][]byte, found []bool) error {
	w := s.begin()
	s.batchRes = resize(s.batchRes, len(fps))
	s.rec, s.recArena = resize(s.rec, len(fps)), s.recArena[:0]
	clear(s.rec)
	err := s.bh.LookupBatch(fps, s.batchRes, s.onHits)
	s.vlog.EndChunk()
	s.join()
	if err == nil {
		s.verifyRecords(keys, values, found)
	}
	return s.end(&s.lookup, w, len(fps), err)
}

// readHits is getBatchRecords' LookupBatch hook (see core.HitHook): it
// reads the records that one hand-off's hits point at as one batched
// value-log read, issued on the log's timelines, which submits
// only the log pages no earlier hand-off of the chunk read (a record the
// log has overwritten is a miss it does not read), and keeps them for
// verification. A record may be a view into the value device's page,
// valid through the chunk because nothing writes the value log inside a
// get chunk, or a copy in the shard's record arena, which each read
// extends without touching earlier records.
func (s *shard) readHits(hits []int) error {
	reqs := s.batchReq[:0]
	idxs := s.batchIdx[:0]
	for _, i := range hits {
		if v := s.batchRes[i].Value; storage.IsValuePtr(v) {
			reqs = append(reqs, storage.ValueReadReq{Ptr: v})
			idxs = append(idxs, i)
		}
	}
	s.batchReq, s.batchIdx = reqs, idxs
	if len(reqs) == 0 {
		return nil
	}
	s.issueLog()
	var err error
	if s.recArena, err = s.vlog.ReadRecordsBatch(reqs, s.recArena); err != nil {
		return err
	}
	for j, req := range reqs {
		s.rec[idxs[j]] = req.Rec
	}
	return nil
}

// verifyRecords fills values and found for each key whose record was read
// and stores the key. The lookup read each distinct fingerprint's record
// once, so a repeated fingerprint's position is verified against the
// record its first occurrence read (see core.BufferHash.Repeats), and two
// keys sharing a fingerprint answer apart. The verified values are copied
// out, under the shard lock and before any later device write, into one
// arena per chunk, one copy per position: each value is a
// capacity-capped sub-slice of it, so appending to one cannot reach the
// next.
func (s *shard) verifyRecords(keys, values [][]byte, found []bool) {
	for _, r := range s.bh.Repeats() {
		s.rec[r.Pos] = s.rec[r.First]
	}
	parts, hits := s.batchHit[:0], s.batchIdx[:0]
	for i, rec := range s.rec {
		if rec == nil {
			continue
		}
		if v, ok := storage.VerifyRecord(rec, keys[i]); ok {
			parts = append(parts, v)
			hits = append(hits, i)
		}
	}
	s.batchHit, s.batchIdx = parts, hits
	// Join sizes the arena from the values and copies each in once,
	// without zeroing it first. A lone empty value joins to nil; a hit
	// stays non-nil.
	arena := bytes.Join(parts, nil)
	if arena == nil {
		arena = []byte{}
	}
	for j, i := range hits {
		n := len(parts[j])
		values[i], arena = arena[:n:n], arena[n:]
		found[i] = true
	}
}

// deleteBatchFPs applies one chunk of byte-key deletes, retiring the
// records whose pointers they removed from the buffer.
func (s *shard) deleteBatchFPs(fps []uint64) error {
	w := s.begin()
	displaced := s.displacedWords(len(fps))
	err := s.bh.DeleteBatch(fps, displaced)
	s.retire(displaced)
	return s.end(&s.del, w, len(fps), err)
}

// containsBatchFPs resolves one chunk of existence probes: the batched
// index lookup alone, with no value-log read.
func (s *shard) containsBatchFPs(fps []uint64, found []bool) error {
	w := s.begin()
	s.batchRes = resize(s.batchRes, len(fps))
	err := s.bh.LookupBatch(fps, s.batchRes, nil)
	if err == nil {
		for i := range s.batchRes {
			found[i] = s.batchRes[i].Found && storage.IsValuePtr(s.batchRes[i].Value)
		}
	}
	return s.end(&s.lookup, w, len(fps), err)
}

// --- maintenance ---

func (s *shard) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bh.Flush()
}

func (s *shard) resetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert.Reset()
	s.lookup.Reset()
	s.del.Reset()
	s.lentDedupes = 0
	s.bh.ResetStats()
}

// addStats adds the shard's counters into agg and its latency histograms
// into hs (insert, lookup, delete), under the shard's lock.
func (s *shard) addStats(agg *Stats, hs *[3]metrics.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg.Core.Merge(s.bh.Stats())
	agg.LentDedupes += s.lentDedupes
	agg.Device.Add(s.idx.Counters())
	agg.Memory.Add(s.bh.MemoryFootprint())
	agg.ValueDevice.Add(s.vlog.Device().Counters())
	agg.ValueLog.Add(s.vlog.Stats())
	for i, h := range [...]*metrics.Histogram{&s.insert, &s.lookup, &s.del} {
		hs[i].Merge(h)
	}
}

// Stats is a point-in-time summary of a Store's behaviour.
type Stats struct {
	Core core.Stats
	// Device counts the index's I/O only: on a kind-opened store, its
	// partitions of both SSDs of each shard, summed.
	Device storage.Counters
	// ValueDevice counts the value log's own I/O (zero while the byte API
	// was never used): on a kind-opened store, its partitions of both SSDs
	// of each shard, summed. Device plus ValueDevice is what the SSDs
	// served.
	ValueDevice storage.Counters
	// ValueLog counts record appends and log wraps.
	ValueLog storage.ValueLogStats

	// InsertLatency, LookupLatency and DeleteLatency summarize the
	// per-key virtual latency of the positions each shard served: a
	// chunk's elapsed time spread over its positions. A read batch
	// resolves each distinct key once but answers every position, so
	// LookupLatency.Count counts positions, while Core.Lookups counts the
	// distinct keys resolved.
	InsertLatency metrics.Summary
	LookupLatency metrics.Summary
	DeleteLatency metrics.Summary

	// LentDedupes counts the read-batch positions a shard deduped for a
	// skewed run of another shard (see Sharded.GetBatchU64), since Open or
	// ResetMetrics. The owning shard's LookupLatency counts them.
	LentDedupes uint64

	Memory core.MemoryFootprint
}
