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
	*router
	views []*CLAM // Shard(i): one-shard stores over the same shards
}

// router is the one Store implementation: a CLAM is a router over one
// shard, a Sharded store a router over 2^b. Every op routes its keys by
// their top bits: a per-key op is a one-key chunk call on its shard, a
// batch is grouped into per-shard runs and dispatched chunk by chunk.
type router struct {
	shards  []*shard
	shift   uint // 64 - log2(len(shards)); shift ≥ 64 routes everything to shard 0
	workers int
	chunk   int       // batch router task granularity (keys per chunk)
	fpSeed  uint64    // deployment-level byte-key fingerprint seed
	groups  sync.Pool // *shardGroups, per-batch grouping and result slots
	fps     sync.Pool // *[]uint64, per-batch byte-key fingerprint buffers
}

func newRouter(shards []*shard, workers, chunk int, fpSeed uint64) *router {
	return &router{
		shards:  shards,
		shift:   64 - uint(bits.Len(uint(len(shards)))-1),
		workers: workers,
		chunk:   chunk,
		fpSeed:  fpSeed,
	}
}

// openRouter opens WithShards shards with an even split of the flash,
// memory and value-log budgets. One shard keeps the configured seed,
// clock and devices; with more, each shard derives its own hash seed and
// owns its own clock and devices. Byte keys fingerprint with the
// configured seed on every shard, so a one-shard view addresses the same
// byte-key space its parent routes into it.
func openRouter(cfg config) (*router, error) {
	n := cfg.shards
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("clam: WithShards(%d): shard count must be a power of two", n)
	}
	if n > 1 && cfg.clock != nil {
		return nil, errors.New("clam: WithClock is incompatible with WithShards; each shard owns its own clock")
	}
	if n > 1 && (cfg.customDevice != nil || cfg.customVLogDev != nil) {
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
	workers := cfg.workers
	if workers == 0 || workers > n {
		workers = n
	}
	shards := make([]*shard, n)
	for i := range shards {
		po := cfg
		po.flashBytes = cfg.flashBytes / int64(n)
		po.memoryBytes = cfg.memoryBytes / int64(n)
		po.valueLogBytes = cfg.valueLogBytes / int64(n)
		if n > 1 {
			po.seed = hashutil.Hash64Seed(uint64(i), seed)
		}
		s, err := openShard(po)
		if err != nil {
			if n > 1 {
				err = fmt.Errorf("clam: shard %d: %w", i, err)
			}
			return nil, err
		}
		shards[i] = s
	}
	return newRouter(shards, workers, cfg.batchChunk, seed), nil
}

// shardIndex routes a key to its owning shard by the top log2(NumShards)
// bits. Every routing decision — single ops and batch grouping — goes
// through here.
func (r *router) shardIndex(key uint64) int {
	if r.shift >= 64 {
		return 0
	}
	return int(key >> r.shift)
}

func (r *router) shard(key uint64) *shard { return r.shards[r.shardIndex(key)] }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Workers returns the batch worker-pool bound.
func (s *Sharded) Workers() int { return s.workers }

// Shard exposes shard i as a one-shard CLAM for inspection (per-shard
// stats, clock, device). The view is live: its methods take the shard lock
// as usual, and byte keys fingerprint with the deployment seed.
func (s *Sharded) Shard(i int) *CLAM { return s.views[i] }

// Now returns the furthest-ahead shard clock: the virtual makespan of the
// work performed so far, the number to report for end-to-end completion
// time of a parallel workload.
func (s *Sharded) Now() time.Duration {
	var max time.Duration
	for _, sh := range s.shards {
		if t := sh.clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// --- single-key operations: one-key chunk calls on stack arrays ---

// PutU64 adds or updates a (key, value) mapping on the inline fast path.
func (r *router) PutU64(key, value uint64) error {
	keys, values := [1]uint64{key}, [1]uint64{value}
	return r.shard(key).putBatchU64Chunk(keys[:], values[:])
}

// UpdateU64 is an alias of PutU64 with the paper's lazy-update semantics
// (§5.1.1): the new version shadows older ones because lookups probe
// newest-first; there is no existence check and no read-modify-write.
func (r *router) UpdateU64(key, value uint64) error { return r.PutU64(key, value) }

// GetU64 returns the latest value stored under key.
func (r *router) GetU64(key uint64) (value uint64, found bool, err error) {
	keys, results := [1]uint64{key}, [1]core.LookupResult{}
	err = r.shard(key).getBatchU64Into(keys[:], results[:])
	return results[0].Value, results[0].Found, err
}

// DeleteU64 lazily removes key (§5.1.1).
func (r *router) DeleteU64(key uint64) error {
	keys := [1]uint64{key}
	return r.shard(key).deleteBatchU64Chunk(keys[:])
}

// ContainsU64 reports whether key is present on the fast path. It is
// GetU64 without returning the value: same probes, same counters.
func (r *router) ContainsU64(key uint64) (bool, error) {
	_, found, err := r.GetU64(key)
	return found, err
}

// Put adds or updates a key → value mapping: the key's fingerprint picks
// the shard, the record is appended to that shard's value log, and the
// fingerprint maps to the record's pointer.
func (r *router) Put(key, value []byte) error {
	fps, keys, values := [1]uint64{fingerprint(key, r.fpSeed)}, [1][]byte{key}, [1][]byte{value}
	return r.shard(fps[0]).putBatchRecords(fps[:], keys[:], values[:])
}

// Update is an alias of Put with the paper's lazy-update semantics
// (§5.1.1); see Store.
func (r *router) Update(key, value []byte) error { return r.Put(key, value) }

// Get returns the latest value stored under key, verified against the full
// key bytes in the value-log record.
func (r *router) Get(key []byte) (value []byte, found bool, err error) {
	fps, keys := [1]uint64{fingerprint(key, r.fpSeed)}, [1][]byte{key}
	var values [1][]byte
	var founds [1]bool
	err = r.shard(fps[0]).getBatchRecords(fps[:], keys[:], values[:], founds[:])
	return values[0], founds[0], err
}

// Delete lazily removes key (§5.1.1). The value-log record is reclaimed by
// the log's circular overwrite.
func (r *router) Delete(key []byte) error {
	fps := [1]uint64{fingerprint(key, r.fpSeed)}
	return r.shard(fps[0]).deleteBatchFPs(fps[:])
}

// Contains reports whether a record is indexed under key's fingerprint,
// stopping at the index hit: unlike Get, it skips the value-log record
// read that would verify the full key bytes, so a duplicate probe costs
// only the index lookup. The price is the fingerprint-collision false
// positive rate the paper itself accepts at 32–64-bit fingerprints — a
// colliding key, or a key whose record the circular log has lapped, can
// report true. Workloads that need exactness read through Get.
func (r *router) Contains(key []byte) (bool, error) {
	fps := [1]uint64{fingerprint(key, r.fpSeed)}
	var found [1]bool
	err := r.shard(fps[0]).containsBatchFPs(fps[:], found[:])
	return found[0], err
}

// --- maintenance ---

// Flush forces every shard's buffered entries to flash, flushing shards in
// parallel across the worker pool.
func (r *router) Flush() error {
	return r.runShards(func(s *shard) error { return s.flush() })
}

// Elapse advances every shard's virtual clock by d, modeling host idle
// time (during which SSDs garbage-collect in the background).
func (r *router) Elapse(d time.Duration) {
	for _, s := range r.shards {
		s.elapse(d)
	}
}

// ResetMetrics clears every shard's latency histograms and core counters,
// typically after a warm-up phase, so every field of the next Stats
// snapshot covers the same since-reset window.
func (r *router) ResetMetrics() {
	for _, s := range r.shards {
		s.resetMetrics()
	}
}

// Stats merges the per-shard snapshots into one aggregate view: core,
// device and value-log counters are summed, latency histograms are merged
// before summarizing (so percentiles reflect the true global
// distribution), and memory footprints are added. For one shard the
// merge is the identity.
func (r *router) Stats() Stats {
	var agg Stats
	var hs [4]metrics.Histogram
	for _, s := range r.shards {
		s.addStats(&agg, &hs)
	}
	agg.InsertLatency = hs[0].Summarize()
	agg.LookupLatency = hs[1].Summarize()
	agg.DeleteLatency = hs[2].Summarize()
	agg.WriteLatency = hs[3].Summarize()
	return agg
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
// consumption cursor. Instances are pooled on the router because batches
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
func (r *router) group(keys, values []uint64, bk, bv [][]byte) *shardGroups {
	n := len(r.shards)
	g, _ := r.groups.Get().(*shardGroups)
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
		g.cur[r.shardIndex(k)]++
	}
	g.start[0] = 0
	for i := 0; i < n; i++ {
		g.start[i+1] = g.start[i] + g.cur[i]
		g.cur[i] = g.start[i]
	}
	for i, k := range keys {
		sh := r.shardIndex(k)
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

func (r *router) putGroups(g *shardGroups) {
	// Drop the byte-slice references before pooling: a retained shardGroups
	// must not pin the previous batch's keys and values in memory.
	clear(g.bkbuf)
	clear(g.bvbuf)
	r.groups.Put(g)
}

// runChunked is the batch router: shard groups become chunk-sized tasks
// consumed from a shared queue, so skewed key distributions no longer leave
// workers idle while unclaimed work exists. Two rules shape the schedule:
//
//   - Single ownership: a shard is claimed by at most one worker at a time.
//     It serializes behind one mutex anyway, and single ownership
//     preserves within-shard input order.
//   - Affinity: the owning worker keeps its shard between chunks (the
//     shard's Bloom banks and buffers are hot in that worker's cache;
//     migrating per chunk measurably thrashes them) and returns to the
//     shared queue only when the shard is drained, stealing the next
//     pending shard the moment one exists.
//
// At most min(workers, shards with work) worker goroutines run a batch
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
func (r *router) runChunked(ctx context.Context, g *shardGroups, run func(s *shard, lo, hi int) error) error {
	ready := make([]int, 0, len(g.cur))
	for sh := range g.cur {
		if g.start[sh+1] > g.start[sh] {
			ready = append(ready, sh)
		}
	}
	var (
		workers  = min(r.workers, len(ready))
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
					lo, hi := g.cur[sh], min(g.cur[sh]+r.chunk, g.start[sh+1])
					g.cur[sh] = hi
					mu.Unlock()
					err := run(r.shards[sh], lo, hi)
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

// runShards executes run on every shard, spread over at most r.workers
// goroutines (Flush's dispatcher). Each shard runs on exactly one worker,
// so workers never contend on the same shard lock; every shard is
// attempted regardless of other shards' failures, and all errors are
// joined.
func (r *router) runShards(run func(s *shard) error) error {
	work := make(chan *shard)
	errs := make([][]error, r.workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := range work {
				if err := run(s); err != nil {
					errs[w] = append(errs[w], err)
				}
			}
		}(w)
	}
	for _, s := range r.shards {
		work <- s
	}
	close(work)
	wg.Wait()
	return errors.Join(slices.Concat(errs...)...)
}

// --- U64 batches ---
//
// Every batch op has one shape: fingerprint the keys (byte ops only),
// group the batch into per-shard runs, run each chunk of a run as one
// chunk-helper call on its shard, and — for reads — scatter the grouped
// answers back to input order. Within a shard a batch preserves input
// order; across shards there is no ordering. On error or cancellation a
// batch may be partially applied, and all errors are joined.

// PutBatchU64 applies len(keys) PutU64 operations. Each chunk runs the
// core batched insert pipeline on its shard: buffer updates apply in order
// with one deferred CPU advance, and every flush the chunk triggers is
// issued as one address-sorted overlapped write submission. State and
// structural counters match the same keys sent one at a time.
func (r *router) PutBatchU64(ctx context.Context, keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatchU64 length mismatch: %d keys, %d values", len(keys), len(values))
	}
	g := r.group(keys, values, nil, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		return s.putBatchU64Chunk(g.kbuf[lo:hi], g.vbuf[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. Each chunk runs through the core batched lookup pipeline: the
// in-memory phase answers buffer/Bloom hits with zero I/O, and the flash
// phase dedupes keys on the same page, sorts probes by device address, and
// overlaps them across the device's queue lanes. Chunks are dispatched by
// the stealing router, so under a Zipf-skewed batch no worker idles while
// an unclaimed shard remains.
func (r *router) GetBatchU64(ctx context.Context, keys []uint64) (values []uint64, found []bool, err error) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	g := r.group(keys, nil, nil, nil)
	defer r.putGroups(g)
	g.res = resize(g.res, len(keys))
	err = r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		res := g.res[lo:hi]
		if err := s.getBatchU64Into(g.kbuf[lo:hi], res); err != nil {
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

// DeleteBatchU64 lazily removes len(keys) keys, each chunk applied as one
// batched core delete. Deletes perform no I/O; batching amortizes lock and
// clock traffic, with counters identical to one DeleteU64 call per key.
func (r *router) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	g := r.group(keys, nil, nil, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		return s.deleteBatchU64Chunk(g.kbuf[lo:hi])
	})
}

// --- byte batches ---

// fingerprints computes the batch's fingerprints once into a pooled
// buffer; they both route the batch and serve as the shards' index keys.
// Callers return the buffer with putFingerprints when the batch is done.
func (r *router) fingerprints(keys [][]byte) *[]uint64 {
	p, _ := r.fps.Get().(*[]uint64)
	if p == nil {
		p = new([]uint64)
	}
	*p = fingerprints(*p, keys, r.fpSeed)
	return p
}

func (r *router) putFingerprints(p *[]uint64) { r.fps.Put(p) }

// PutBatch applies len(keys) Put operations. Each chunk runs two
// overlapped write streams on its shard: the chunk's records land in the
// value log as one tail-buffered multi-record append (one sequential page
// submission), then its fingerprints and record pointers run through the
// core batched insert pipeline with overlapped flush writes — the
// write-side mirror of GetBatch's two read streams.
func (r *router) PutBatch(ctx context.Context, keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("clam: PutBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	fps := r.fingerprints(keys)
	defer r.putFingerprints(fps)
	g := r.group(*fps, nil, keys, values)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		return s.putBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], g.bvbuf[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. Each chunk runs
// two overlapped I/O streams on its shard: the core batched index pipeline
// resolves fingerprints to record pointers, then the chunk's surviving
// value-log records are fetched as one overlapped batched read.
func (r *router) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	fps := r.fingerprints(keys)
	defer r.putFingerprints(fps)
	g := r.group(*fps, nil, keys, nil)
	defer r.putGroups(g)
	// getBatchRecords fills only the hits, so the result slots start empty.
	g.bvbuf = resize(g.bvbuf, len(keys))
	g.found = resize(g.found, len(keys))
	clear(g.bvbuf)
	clear(g.found)
	err = r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		vals, ok := g.bvbuf[lo:hi], g.found[lo:hi]
		if err := s.getBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], vals, ok); err != nil {
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

// DeleteBatch lazily removes len(keys) byte keys, applying each chunk as
// one batched core delete.
func (r *router) DeleteBatch(ctx context.Context, keys [][]byte) error {
	fps := r.fingerprints(keys)
	defer r.putFingerprints(fps)
	g := r.group(*fps, nil, nil, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		return s.deleteBatchFPs(g.kbuf[lo:hi])
	})
}

// ContainsBatch probes len(keys) byte keys through the batched index
// pipeline, returning per-key existence in input order. No value-log
// records are read (Contains's tradeoff), so each chunk costs exactly its
// overlapped index probes.
func (r *router) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	found := make([]bool, len(keys))
	fps := r.fingerprints(keys)
	defer r.putFingerprints(fps)
	g := r.group(*fps, nil, nil, nil)
	defer r.putGroups(g)
	g.found = resize(g.found, len(keys))
	err := r.runChunked(ctx, g, func(s *shard, lo, hi int) error {
		ok := g.found[lo:hi]
		if err := s.containsBatchFPs(g.kbuf[lo:hi], ok); err != nil {
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
