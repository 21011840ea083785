package clam

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/metrics"
)

// Sharded is a horizontally partitioned CLAM implementing Store: the
// 64-bit key space is split across 2^b shards by the top b key bits, and
// each shard is a complete, independently locked CLAM — its own
// BufferHash, device models, value log, virtual clock and latency
// histograms. Operations on different shards proceed fully in parallel;
// operations on the same shard serialize behind that shard's mutex,
// preserving the paper's blocking-I/O semantics per shard.
//
// U64 keys route by their raw high bits (not a hash) so the partition is
// stable and transparent; they are assumed to be uniformly distributed
// fingerprints, as in every workload of the paper (hash non-uniform keys
// first, e.g. with hashutil.Mix64). Byte keys route by the high bits of
// their fingerprint, which is uniform by construction.
//
// Virtual time is per-shard: each shard's clock advances only by the work
// that shard performed, modeling one device set (and one I/O context) per
// shard. Aggregate views (Stats, Now) merge the per-shard state on demand.
type Sharded struct {
	shards  []*CLAM
	shift   uint // 64 - log2(len(shards)); shift ≥ 64 routes everything to shard 0
	workers int
	chunk   int       // batch router task granularity (keys per chunk)
	fpSeed  uint64    // deployment-level byte-key fingerprint seed
	groups  sync.Pool // *shardGroups, per-batch grouping and result slots
	fps     sync.Pool // *[]uint64, per-batch byte-key fingerprint buffers
}

// openSharded builds a Sharded CLAM from a resolved config, opening one
// CLAM per shard with an even split of the flash, memory and value-log
// budgets and a per-shard derived hash seed.
func openSharded(cfg config) (*Sharded, error) {
	n := cfg.shards
	workers := cfg.workers
	if workers == 0 {
		workers = n
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("clam: WithShards(%d): shard count must be a power of two", n)
	}
	if workers > n {
		workers = n
	}
	if cfg.clock != nil {
		return nil, errors.New("clam: WithClock is incompatible with WithShards; each shard owns its own clock")
	}
	if cfg.customDevice != nil || cfg.customVLogDev != nil {
		return nil, errors.New("clam: WithCustomDevice/WithValueLogDevice are incompatible with WithShards; each shard owns its own devices")
	}
	if cfg.flashBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: flash capacity %d not divisible by %d shards", cfg.flashBytes, n)
	}
	if cfg.memoryBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: memory budget %d not divisible by %d shards", cfg.memoryBytes, n)
	}
	if cfg.valueLogBytes%int64(n) != 0 {
		return nil, fmt.Errorf("clam: value-log capacity %d not divisible by %d shards", cfg.valueLogBytes, n)
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	s := &Sharded{
		shards:  make([]*CLAM, n),
		shift:   64 - uint(bits.Len(uint(n))-1),
		workers: workers,
		chunk:   cfg.batchChunk,
		fpSeed:  seed,
	}
	for i := range s.shards {
		po := cfg
		po.flashBytes = cfg.flashBytes / int64(n)
		po.memoryBytes = cfg.memoryBytes / int64(n)
		po.valueLogBytes = cfg.valueLogBytes / int64(n)
		po.seed = hashutil.Hash64Seed(uint64(i), seed)
		c, err := openCLAM(po)
		if err != nil {
			return nil, fmt.Errorf("clam: shard %d: %w", i, err)
		}
		// Shards fingerprint byte keys with the deployment seed, not their
		// derived internal seed, so the live Shard(i) handle addresses the
		// same byte-key space the parent routes into it.
		c.fpSeed = seed
		s.shards[i] = c
	}
	return s, nil
}

// shardIndex routes a key to its owning shard by the top log2(NumShards)
// bits. Every routing decision — single ops and batch grouping — goes
// through here.
func (s *Sharded) shardIndex(key uint64) int {
	if s.shift >= 64 {
		return 0
	}
	return int(key >> s.shift)
}

func (s *Sharded) shard(key uint64) *CLAM { return s.shards[s.shardIndex(key)] }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Workers returns the batch worker-pool bound.
func (s *Sharded) Workers() int { return s.workers }

// Shard exposes shard i for inspection (per-shard stats, clock, device).
// The returned CLAM is live; its methods take the shard lock as usual.
func (s *Sharded) Shard(i int) *CLAM { return s.shards[i] }

// --- single-key operations ---

// PutU64 adds or updates a (key, value) mapping on the key's shard.
func (s *Sharded) PutU64(key, value uint64) error {
	return s.shard(key).PutU64(key, value)
}

// UpdateU64 is an alias of PutU64 with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (s *Sharded) UpdateU64(key, value uint64) error { return s.PutU64(key, value) }

// GetU64 returns the latest value stored under key.
func (s *Sharded) GetU64(key uint64) (value uint64, found bool, err error) {
	return s.shard(key).GetU64(key)
}

// DeleteU64 lazily removes key (§5.1.1) on its shard.
func (s *Sharded) DeleteU64(key uint64) error {
	return s.shard(key).DeleteU64(key)
}

// Put adds or updates a byte key → value mapping: the key's fingerprint
// picks the shard, and the record lands in that shard's value log.
func (s *Sharded) Put(key, value []byte) error {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].putRecord(fp, key, value)
}

// Update is an alias of Put with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (s *Sharded) Update(key, value []byte) error { return s.Put(key, value) }

// Get returns the latest value stored under key, verified against the full
// key bytes.
func (s *Sharded) Get(key []byte) (value []byte, found bool, err error) {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].getRecord(fp, key)
}

// Delete lazily removes a byte key on its fingerprint's shard.
func (s *Sharded) Delete(key []byte) error {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].deleteFP(fp)
}

// --- maintenance ---

// Flush forces all shards' buffered entries to flash, flushing shards in
// parallel across the worker pool.
func (s *Sharded) Flush() error {
	return s.runShards(func(shard int) error {
		return s.shards[shard].Flush()
	})
}

// Elapse advances every shard's virtual clock by d, modeling fleet-wide
// idle time (during which SSDs garbage-collect in the background).
func (s *Sharded) Elapse(d time.Duration) {
	for _, c := range s.shards {
		c.Elapse(d)
	}
}

// Now returns the furthest-ahead shard clock: the virtual makespan of the
// work performed so far, the number to report for end-to-end completion
// time of a parallel workload.
func (s *Sharded) Now() time.Duration {
	var max time.Duration
	for _, c := range s.shards {
		if t := c.Clock().Now(); t > max {
			max = t
		}
	}
	return max
}

// ResetMetrics clears every shard's latency histograms and core counters,
// so every field of the next Stats snapshot covers the same since-reset
// window.
func (s *Sharded) ResetMetrics() {
	for _, c := range s.shards {
		c.ResetMetrics()
	}
}

// Stats merges the per-shard snapshots into one aggregate view: core,
// device and value-log counters are summed, latency histograms are merged
// before summarizing (so percentiles reflect the true global
// distribution), and memory footprints are added.
func (s *Sharded) Stats() Stats {
	var agg Stats
	ins := make([]*metrics.Histogram, 0, len(s.shards))
	lk := make([]*metrics.Histogram, 0, len(s.shards))
	del := make([]*metrics.Histogram, 0, len(s.shards))
	wr := make([]*metrics.Histogram, 0, len(s.shards))
	for _, c := range s.shards {
		cs, hi, hl, hd, hw := c.snapshot()
		agg.Core.Merge(cs.Core)
		agg.Device.Add(cs.Device)
		agg.ValueDevice.Add(cs.ValueDevice)
		agg.ValueLog.Add(cs.ValueLog)
		agg.Memory.Add(cs.Memory)
		ins = append(ins, hi)
		lk = append(lk, hl)
		del = append(del, hd)
		wr = append(wr, hw)
	}
	agg.InsertLatency = metrics.Merged(ins...).Summarize()
	agg.LookupLatency = metrics.Merged(lk...).Summarize()
	agg.DeleteLatency = metrics.Merged(del...).Summarize()
	agg.WriteLatency = metrics.Merged(wr...).Summarize()
	return agg
}

// snapshot copies one shard's metric state under its lock.
func (c *CLAM) snapshot() (Stats, *metrics.Histogram, *metrics.Histogram, *metrics.Histogram, *metrics.Histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Core:   c.bh.Stats(),
		Device: c.dev.Counters(),
		Memory: c.bh.MemoryFootprint(),
	}
	if c.vlog != nil {
		st.ValueDevice = c.vlog.Device().Counters()
		st.ValueLog = c.vlog.Stats()
	}
	hi, hl, hd, hw := c.insert, c.lookup, c.del, c.write
	return st, &hi, &hl, &hd, &hw
}

// --- batch grouping and the chunked batch router ---

// shardGroups is the reusable result of grouping a batch by shard with a
// counting sort: shard sh owns the grouped slots [start[sh], start[sh+1]),
// in input order. kbuf holds the grouped keys (fingerprints, for byte
// batches), vbuf/bkbuf/bvbuf the grouped values and byte keys/values a
// batch carries, and idx[j] the input position of slot j. Every router
// chunk is a contiguous slot range, so a chunk's core call takes
// zero-copy sub-slices of these runs.
//
// Reads also leave their answers in grouped slots — res (U64 lookups),
// bvbuf and found (byte lookups and existence probes) — and scatter them
// back to input order through idx. cur is the router's per-shard
// consumption cursor. Instances are pooled on the Sharded because batches
// run concurrently.
type shardGroups struct {
	idx   []int
	start []int
	cur   []int
	kbuf  []uint64
	vbuf  []uint64
	bkbuf [][]byte
	bvbuf [][]byte
	res   []core.LookupResult
	found []bool
}

// group buckets a batch into per-shard runs of a pooled shardGroups with
// one two-pass counting sort over keys: it moves the keys — and, when
// non-nil, the parallel values, byte keys and byte values — into their
// shard's run, and records each slot's input position in idx. Byte
// batches pass their fingerprints as keys. Callers return the groups with
// putGroups.
func (s *Sharded) group(keys, values []uint64, bk, bv [][]byte) *shardGroups {
	n := len(s.shards)
	g, _ := s.groups.Get().(*shardGroups)
	if g == nil {
		g = &shardGroups{start: make([]int, n+1), cur: make([]int, n)}
	}
	g.idx = resize(g.idx, len(keys))
	g.kbuf = resize(g.kbuf, len(keys))
	if values != nil {
		g.vbuf = resize(g.vbuf, len(keys))
	}
	if bk != nil {
		g.bkbuf = resize(g.bkbuf, len(keys))
	}
	if bv != nil {
		g.bvbuf = resize(g.bvbuf, len(keys))
	}
	clear(g.cur)
	for _, k := range keys {
		g.cur[s.shardIndex(k)]++
	}
	g.start[0] = 0
	for i := 0; i < n; i++ {
		g.start[i+1] = g.start[i] + g.cur[i]
		g.cur[i] = g.start[i]
	}
	for i, k := range keys {
		sh := s.shardIndex(k)
		at := g.cur[sh]
		g.cur[sh]++
		g.idx[at] = i
		g.kbuf[at] = k
		if values != nil {
			g.vbuf[at] = values[i]
		}
		if bk != nil {
			g.bkbuf[at] = bk[i]
		}
		if bv != nil {
			g.bvbuf[at] = bv[i]
		}
	}
	copy(g.cur, g.start) // rewind: cur becomes the router's cursor
	return g
}

func (s *Sharded) putGroups(g *shardGroups) {
	// Drop the byte-slice references before pooling: a retained shardGroups
	// must not pin the previous batch's keys and values in memory.
	clear(g.bkbuf)
	clear(g.bvbuf)
	s.groups.Put(g)
}

// runChunked is the batch router: shard groups become chunk-sized tasks
// consumed from a shared queue, so skewed key distributions no longer leave
// workers idle while unclaimed work exists. Two rules shape the schedule:
//
//   - Single ownership: a shard is claimed by at most one worker at a time.
//     Its CLAM serializes behind one mutex anyway, and single ownership
//     preserves within-shard input order.
//   - Affinity: the owning worker keeps its shard between chunks (the
//     shard's Bloom banks and buffers are hot in that worker's cache;
//     migrating per chunk measurably thrashes them) and returns to the
//     shared queue only when the shard is drained, stealing the next
//     pending shard the moment one exists.
//
// At most min(Workers(), shards with work) worker goroutines run a batch
// while the caller waits. Chunks are the unit of work between scheduler
// decisions: each chunk is one core batched-pipeline call (bounding the
// core call and its page-dedupe scope) and the router's cancellation
// point — ctx is checked under the queue lock before every chunk, and a
// canceled batch stops claiming chunks and returns ctx.Err() joined with
// any chunk errors. Work already applied stays applied.
//
// run receives the shard and the chunk as a [lo, hi) range of grouped
// slots. A chunk error stops that shard's remaining chunks; other shards
// keep going, and all errors are joined, so every shard is attempted.
func (s *Sharded) runChunked(ctx context.Context, g *shardGroups, run func(shard, lo, hi int) error) error {
	ready := make([]int, 0, len(g.cur))
	for sh := range g.cur {
		if g.start[sh+1] > g.start[sh] {
			ready = append(ready, sh)
		}
	}
	var (
		workers  = min(s.workers, len(ready))
		mu       sync.Mutex // guards ready, g.cur, errs, canceled
		errs     []error
		canceled error
		wg       sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for len(ready) > 0 && canceled == nil {
				sh := ready[0]
				ready = ready[1:]
				// Own sh until drained, failed or canceled; between chunks
				// only the cursor advance needs the queue lock.
				for g.cur[sh] < g.start[sh+1] {
					if err := ctx.Err(); err != nil {
						canceled = err
						break
					}
					lo, hi := g.cur[sh], min(g.cur[sh]+s.chunk, g.start[sh+1])
					g.cur[sh] = hi
					mu.Unlock()
					err := run(sh, lo, hi)
					mu.Lock()
					if err != nil {
						errs = append(errs, err)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if canceled != nil {
		errs = append(errs, canceled)
	}
	return errors.Join(errs...)
}

// --- U64 batches ---

// PutBatchU64 inserts len(keys) mappings, grouped by shard and dispatched
// through the chunked batch router. Each chunk runs the core batched
// insert pipeline on its shard: buffer updates apply in order with one
// deferred CPU advance, and every flush the chunk triggers is issued as
// one address-sorted overlapped write submission. Within a shard the batch
// preserves input order; across shards there is no ordering. On error (or
// cancellation) the batch may be partially applied; all errors are joined.
func (s *Sharded) PutBatchU64(ctx context.Context, keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatchU64 length mismatch: %d keys, %d values", len(keys), len(values))
	}
	g := s.group(keys, values, nil, nil)
	defer s.putGroups(g)
	return s.runChunked(ctx, g, func(shard, lo, hi int) error {
		return s.shards[shard].putBatchU64Chunk(g.kbuf[lo:hi], g.vbuf[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. Each chunk of a shard's group runs through the core batched
// lookup pipeline: the in-memory phase answers buffer/Bloom hits with zero
// I/O, and the flash phase dedupes keys on the same page, sorts probes by
// device address, and overlaps them across the device's queue lanes.
// Chunks are dispatched by the stealing router, so under a Zipf-skewed
// batch no worker idles while an unclaimed shard remains; ctx cancels
// between chunks.
func (s *Sharded) GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	g := s.group(keys, nil, nil, nil)
	defer s.putGroups(g)
	g.res = resize(g.res, len(keys))
	err = s.runChunked(ctx, g, func(shard, lo, hi int) error {
		res := g.res[lo:hi]
		if err := s.shards[shard].getBatchU64Into(g.kbuf[lo:hi], res); err != nil {
			return err
		}
		for j, i := range g.idx[lo:hi] {
			values[i], found[i] = res[j].Value, res[j].Found
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return values, found, nil
}

// DeleteBatchU64 lazily removes len(keys) keys, grouped and dispatched like
// PutBatchU64, with each chunk applied as one batched core delete.
func (s *Sharded) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	g := s.group(keys, nil, nil, nil)
	defer s.putGroups(g)
	return s.runChunked(ctx, g, func(shard, lo, hi int) error {
		return s.shards[shard].deleteBatchU64Chunk(g.kbuf[lo:hi])
	})
}

// --- byte batches ---

// fingerprints computes the batch's fingerprints once into a pooled
// buffer; they both route the batch and serve as the shards' index keys.
// Callers return the buffer with putFingerprints when the batch is done.
func (s *Sharded) fingerprints(keys [][]byte) *[]uint64 {
	p, _ := s.fps.Get().(*[]uint64)
	if p == nil {
		p = new([]uint64)
	}
	*p = fingerprints(*p, keys, s.fpSeed)
	return p
}

func (s *Sharded) putFingerprints(p *[]uint64) { s.fps.Put(p) }

// PutBatch applies len(keys) byte Put operations through the chunked
// router. Each chunk runs two overlapped write streams on its shard: the
// chunk's records land in the value log as one tail-buffered multi-record
// append (one sequential page submission), then its fingerprints and
// record pointers run through the core batched insert pipeline with
// overlapped flush writes — the write-side mirror of GetBatch's two read
// streams. See PutBatchU64 for ordering and error semantics.
func (s *Sharded) PutBatch(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	fps := s.fingerprints(keys)
	defer s.putFingerprints(fps)
	g := s.group(*fps, nil, keys, values)
	defer s.putGroups(g)
	return s.runChunked(ctx, g, func(shard, lo, hi int) error {
		return s.shards[shard].putBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], g.bvbuf[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. Each chunk runs
// two overlapped I/O streams on its shard: the core batched index pipeline
// resolves fingerprints to record pointers, then the chunk's surviving
// value-log records are fetched as one overlapped batched read.
func (s *Sharded) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	fps := s.fingerprints(keys)
	defer s.putFingerprints(fps)
	g := s.group(*fps, nil, keys, nil)
	defer s.putGroups(g)
	// getBatchRecords fills only the hits, so the result slots start empty.
	g.bvbuf = resize(g.bvbuf, len(keys))
	g.found = resize(g.found, len(keys))
	clear(g.bvbuf)
	clear(g.found)
	err = s.runChunked(ctx, g, func(shard, lo, hi int) error {
		vals, ok := g.bvbuf[lo:hi], g.found[lo:hi]
		if err := s.shards[shard].getBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], vals, ok); err != nil {
			return err
		}
		for j, i := range g.idx[lo:hi] {
			values[i], found[i] = vals[j], ok[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return values, found, nil
}

// DeleteBatch lazily removes len(keys) byte keys through the chunked
// router, applying each chunk as one batched core delete.
func (s *Sharded) DeleteBatch(ctx context.Context, keys [][]byte) error {
	fps := s.fingerprints(keys)
	defer s.putFingerprints(fps)
	g := s.group(*fps, nil, nil, nil)
	defer s.putGroups(g)
	return s.runChunked(ctx, g, func(shard, lo, hi int) error {
		return s.shards[shard].deleteBatchFPs(g.kbuf[lo:hi])
	})
}

// --- existence probes ---

// ContainsU64 reports whether a fast-path key is present on its shard.
func (s *Sharded) ContainsU64(key uint64) (bool, error) {
	return s.shard(key).ContainsU64(key)
}

// Contains reports whether a record is indexed under key on its
// fingerprint's shard, with CLAM.Contains's no-record-read tradeoff.
func (s *Sharded) Contains(key []byte) (bool, error) {
	fp := fingerprint(key, s.fpSeed)
	return s.shards[s.shardIndex(fp)].containsFP(fp)
}

// ContainsBatch probes len(keys) byte keys through the chunked router and
// the batched index pipeline, returning per-key existence in input order.
// No value-log records are read (Contains's tradeoff), so each chunk costs
// exactly its overlapped index probes.
func (s *Sharded) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	found := make([]bool, len(keys))
	fps := s.fingerprints(keys)
	defer s.putFingerprints(fps)
	g := s.group(*fps, nil, nil, nil)
	defer s.putGroups(g)
	g.found = resize(g.found, len(keys))
	err := s.runChunked(ctx, g, func(shard, lo, hi int) error {
		ok := g.found[lo:hi]
		if err := s.shards[shard].containsBatchFPs(g.kbuf[lo:hi], ok); err != nil {
			return err
		}
		for j, i := range g.idx[lo:hi] {
			found[i] = ok[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// runShards executes run(shard) for every shard, spread over at most
// s.workers goroutines (Flush's dispatcher). Each shard runs on exactly one
// worker, so workers never contend on the same shard lock; every shard is
// attempted regardless of other shards' failures, and all errors are
// joined.
func (s *Sharded) runShards(run func(shard int) error) error {
	work := make(chan int)
	errs := make([][]error, s.workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sh := range work {
				if err := run(sh); err != nil {
					errs[w] = append(errs[w], err)
				}
			}
		}(w)
	}
	for sh := range s.shards {
		work <- sh
	}
	close(work)
	wg.Wait()
	return errors.Join(slices.Concat(errs...)...)
}
