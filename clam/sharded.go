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
	chunk   int    // batch router task granularity (keys per chunk)
	fpSeed  uint64 // deployment-level byte-key fingerprint seed
	groups  sync.Pool
	gather  sync.Pool // *gatherScratch, per-worker batch buffers
	fps     sync.Pool // *[]uint64, per-batch byte-key fingerprint buffers
}

// gatherScratch is one worker's chunk-sized gather/scatter buffers for the
// batched lookups, pooled so steady batch streams allocate nothing per
// call.
type gatherScratch struct {
	keys []uint64
	res  []core.LookupResult

	bkeys  [][]byte // byte-path gathered keys
	bvals  [][]byte
	bfound []bool
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
	if workers < 1 {
		return nil, fmt.Errorf("clam: WithWorkers(%d): worker count must be positive", workers)
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

// shardGroups is the reusable result of grouping a batch's key indices by
// shard with a counting sort: shard sh owns idx[start[sh]:start[sh+1]], in
// input order. cur is the router's per-shard consumption cursor. Instances
// are pooled on the Sharded because batches run concurrently.
//
// Mutation batches don't need to scatter results back to input positions,
// so groupPairsByShard skips the index layer entirely: keys (and values)
// are bucketed directly into contiguous per-shard runs held in kbuf/vbuf,
// and each router chunk is a zero-copy slice of those runs.
type shardGroups struct {
	idx   []int
	start []int
	cur   []int
	kbuf  []uint64
	vbuf  []uint64
	bkbuf [][]byte
	bvbuf [][]byte
	ws    []*gatherScratch // per-worker gather buffers, bound lazily
}

// groupByShard buckets key indices by owning shard via a two-pass counting
// sort into a pooled shardGroups. For byte batches the caller passes the
// precomputed fingerprints. Callers return the groups with putGroups.
func (s *Sharded) groupByShard(keys []uint64) *shardGroups {
	n := len(s.shards)
	g, _ := s.groups.Get().(*shardGroups)
	if g == nil {
		g = &shardGroups{start: make([]int, n+1), cur: make([]int, n)}
	}
	if cap(g.idx) < len(keys) {
		g.idx = make([]int, len(keys))
	}
	g.idx = g.idx[:len(keys)]
	for i := range g.cur {
		g.cur[i] = 0
	}
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
		g.idx[g.cur[sh]] = i
		g.cur[sh]++
	}
	for i := 0; i < n; i++ {
		g.cur[i] = g.start[i] // rewind: cur becomes the router's cursor
	}
	s.bindWorkers(g)
	return g
}

func (s *Sharded) putGroups(g *shardGroups) {
	// Drop the byte-slice references before pooling: a retained shardGroups
	// must not pin the previous batch's keys and values in memory.
	clear(g.bkbuf)
	clear(g.bvbuf)
	for i, gs := range g.ws {
		if gs != nil {
			s.gather.Put(gs)
			g.ws[i] = nil
		}
	}
	s.groups.Put(g)
}

// bindWorkers sizes g's per-worker scratch table for this batch (the
// gatherScratch instances themselves attach lazily in workerScratch).
func (s *Sharded) bindWorkers(g *shardGroups) {
	if cap(g.ws) < s.workers {
		g.ws = make([]*gatherScratch, s.workers)
	}
	g.ws = g.ws[:s.workers]
}

// groupPairsByShard buckets a mutation batch's keys — and, when values is
// non-nil, the parallel values — directly into per-shard contiguous runs
// (shard sh owns kbuf[start[sh]:start[sh+1]], in input order). Byte
// batches pass their fingerprints as keys and bucket the byte slices
// through bk/bv. One scatter pass replaces the index sort plus the
// per-chunk gather copy of the lookup path, which must keep indices to
// scatter results back.
func (s *Sharded) groupPairsByShard(keys, values []uint64, bk, bv [][]byte) *shardGroups {
	n := len(s.shards)
	g, _ := s.groups.Get().(*shardGroups)
	if g == nil {
		g = &shardGroups{start: make([]int, n+1), cur: make([]int, n)}
	}
	if cap(g.kbuf) < len(keys) {
		g.kbuf = make([]uint64, len(keys))
	}
	g.kbuf = g.kbuf[:len(keys)]
	if values != nil {
		if cap(g.vbuf) < len(values) {
			g.vbuf = make([]uint64, len(values))
		}
		g.vbuf = g.vbuf[:len(values)]
	}
	if bk != nil {
		if cap(g.bkbuf) < len(bk) {
			g.bkbuf = make([][]byte, len(bk))
		}
		g.bkbuf = g.bkbuf[:len(bk)]
	}
	if bv != nil {
		if cap(g.bvbuf) < len(bv) {
			g.bvbuf = make([][]byte, len(bv))
		}
		g.bvbuf = g.bvbuf[:len(bv)]
	}
	for i := range g.cur {
		g.cur[i] = 0
	}
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
	for i := 0; i < n; i++ {
		g.cur[i] = g.start[i] // rewind: cur becomes the router's cursor
	}
	s.bindWorkers(g)
	return g
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
// At most min(Workers(), shards with work) workers run a batch. Chunks are
// the unit of work between scheduler decisions: each chunk is one core
// batched-pipeline call (bounding gather scratch and page-dedupe scope)
// and the router's cancellation point — ctx is checked before every chunk,
// and a canceled batch stops claiming chunks and returns ctx.Err() joined
// with any chunk errors. Work already applied stays applied.
//
// run is called with the claiming worker's id (0 ≤ worker < Workers(), for
// per-worker scratch), the shard, and the chunk's key indices. A chunk
// error stops that shard's remaining chunks; other shards keep going, and
// all errors are joined, so every shard is attempted.
func (s *Sharded) runChunked(ctx context.Context, g *shardGroups, run func(worker, shard int, idxs []int) error) error {
	return s.runChunkedRanges(ctx, g, func(w, shard, lo, hi int) error {
		return run(w, shard, g.idx[lo:hi])
	})
}

// runChunkedRanges is the range form of the router: callbacks receive the
// chunk as a [lo, hi) range of the shard's group, which bucketed mutation
// batches slice directly out of the grouped key/value runs (no index
// layer) and index-based callers resolve through g.idx.
func (s *Sharded) runChunkedRanges(ctx context.Context, g *shardGroups, run func(worker, shard, lo, hi int) error) error {
	var ready []int
	for sh := 0; sh+1 < len(g.start); sh++ {
		if g.start[sh+1] > g.start[sh] {
			ready = append(ready, sh)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	workers := min(s.workers, len(ready))
	if workers == 1 {
		var errs []error
		for _, sh := range ready {
			for g.cur[sh] < g.start[sh+1] {
				if err := ctx.Err(); err != nil {
					return errors.Join(append(errs, err)...)
				}
				lo, hi := g.cur[sh], min(g.cur[sh]+s.chunk, g.start[sh+1])
				g.cur[sh] = hi
				if err := run(0, sh, lo, hi); err != nil {
					errs = append(errs, err)
					break // abandon this shard's remaining chunks
				}
			}
		}
		return errors.Join(errs...)
	}

	var (
		mu       sync.Mutex // guards ready, g.cur, errs, canceled
		errs     []error
		canceled error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
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
					err := run(w, sh, lo, hi)
					mu.Lock()
					if err != nil {
						errs = append(errs, err)
						break
					}
				}
			}
		}(w)
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
	g := s.groupPairsByShard(keys, values, nil, nil)
	defer s.putGroups(g)
	return s.runChunkedRanges(ctx, g, func(_, shard, lo, hi int) error {
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
	if len(keys) == 0 {
		return values, found, nil
	}
	g := s.groupByShard(keys)
	defer s.putGroups(g)
	err = s.runChunked(ctx, g, func(w, shard int, idxs []int) error {
		gs := s.workerScratch(g.ws, w)
		kb := gs.keys[:0]
		for _, i := range idxs {
			kb = append(kb, keys[i])
		}
		gs.keys = kb
		if cap(gs.res) < len(idxs) {
			gs.res = make([]core.LookupResult, max(len(idxs), s.chunk))
		}
		rb := gs.res[:len(idxs)]
		if err := s.shards[shard].getBatchU64Into(kb, rb); err != nil {
			return err
		}
		for j, i := range idxs {
			values[i], found[i] = rb[j].Value, rb[j].Found
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
	g := s.groupPairsByShard(keys, nil, nil, nil)
	defer s.putGroups(g)
	return s.runChunkedRanges(ctx, g, func(_, shard, lo, hi int) error {
		return s.shards[shard].deleteBatchU64Chunk(g.kbuf[lo:hi])
	})
}

// workerScratch lazily binds a pooled gatherScratch to worker w (the
// scratch table lives in the batch's pooled shardGroups; putGroups returns
// the bound instances to the pool). Only the key gather buffer is sized
// eagerly; the other buffers grow on the paths that use them, so
// put/delete batches never allocate lookup scratch.
func (s *Sharded) workerScratch(scratch []*gatherScratch, w int) *gatherScratch {
	gs := scratch[w]
	if gs == nil {
		gs, _ = s.gather.Get().(*gatherScratch)
		if gs == nil || cap(gs.keys) < s.chunk {
			gs = &gatherScratch{keys: make([]uint64, 0, s.chunk)}
		}
		scratch[w] = gs
	}
	return gs
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
	if cap(*p) < len(keys) {
		*p = make([]uint64, len(keys))
	}
	*p = (*p)[:len(keys)]
	for i, k := range keys {
		(*p)[i] = fingerprint(k, s.fpSeed)
	}
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
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	fps := *fpp
	g := s.groupPairsByShard(fps, nil, keys, values)
	defer s.putGroups(g)
	return s.runChunkedRanges(ctx, g, func(_, shard, lo, hi int) error {
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
	if len(keys) == 0 {
		return values, found, nil
	}
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	fps := *fpp
	g := s.groupByShard(fps)
	defer s.putGroups(g)
	err = s.runChunked(ctx, g, func(w, shard int, idxs []int) error {
		gs := s.workerScratch(g.ws, w)
		fb := gs.keys[:0]
		kb := gs.bkeys[:0]
		for _, i := range idxs {
			fb = append(fb, fps[i])
			kb = append(kb, keys[i])
		}
		gs.bkeys = kb
		if cap(gs.bvals) < len(idxs) {
			gs.bvals = make([][]byte, s.chunk)
			gs.bfound = make([]bool, s.chunk)
		}
		vb, ob := gs.bvals[:len(idxs)], gs.bfound[:len(idxs)]
		for j := range vb {
			vb[j], ob[j] = nil, false
		}
		if err := s.shards[shard].getBatchRecords(fb, kb, vb, ob); err != nil {
			return err
		}
		for j, i := range idxs {
			values[i], found[i] = vb[j], ob[j]
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
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	fps := *fpp
	g := s.groupPairsByShard(fps, nil, nil, nil)
	defer s.putGroups(g)
	return s.runChunkedRanges(ctx, g, func(_, shard, lo, hi int) error {
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
	if len(keys) == 0 {
		return found, nil
	}
	fpp := s.fingerprints(keys)
	defer s.putFingerprints(fpp)
	fps := *fpp
	g := s.groupByShard(fps)
	defer s.putGroups(g)
	err := s.runChunked(ctx, g, func(w, shard int, idxs []int) error {
		gs := s.workerScratch(g.ws, w)
		fb := gs.keys[:0]
		for _, i := range idxs {
			fb = append(fb, fps[i])
		}
		gs.keys = fb
		if cap(gs.bfound) < len(idxs) {
			gs.bfound = make([]bool, max(len(idxs), s.chunk))
		}
		ob := gs.bfound[:len(idxs)]
		if err := s.shards[shard].containsBatchFPs(fb, ob); err != nil {
			return err
		}
		for j, i := range idxs {
			found[i] = ob[j]
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
	if s.workers == 1 {
		var errs []error
		for sh := range s.shards {
			if err := run(sh); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
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
