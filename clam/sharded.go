package clam

import (
	"cmp"
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
	chunk   int       // a write batch's task granularity (keys per chunk)
	fpSeed  uint64    // deployment-level byte-key fingerprint seed
	groups  sync.Pool // *shardGroups, per-batch grouping and result slots
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
	if n > 1 && cfg.customDevice != nil {
		return nil, errors.New("clam: WithCustomDevice is incompatible with WithShards; each shard owns its own devices")
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

// Put adds or updates a key → value mapping: the key's fingerprint picks
// the shard, the record is appended to that shard's value log, and the
// fingerprint maps to the record's pointer.
func (r *router) Put(key, value []byte) error {
	fps, keys, values := [1]uint64{fingerprint(key, r.fpSeed)}, [1][]byte{key}, [1][]byte{value}
	return r.shard(fps[0]).putBatchRecords(fps[:], keys[:], values[:])
}

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

// --- maintenance ---

// Flush forces every shard's buffered entries to flash, one shard after
// another. Every shard is attempted regardless of other shards' failures,
// and all errors are joined; each shard charges its own clock, so virtual
// time does not depend on the order.
func (r *router) Flush() error {
	var errs []error
	for _, s := range r.shards {
		if err := s.flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ResetMetrics clears every shard's latency histograms, core counters and
// lent dedupes, typically after a warm-up phase, so the next Stats
// snapshot's latency summaries, Core and LentDedupes cover the
// since-reset window. The device and value-log counters are not reset:
// they stay cumulative since Open (see Store.ResetMetrics).
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
	var hs [3]metrics.Histogram
	for _, s := range r.shards {
		s.addStats(&agg, &hs)
	}
	agg.InsertLatency = hs[0].Summarize()
	agg.LookupLatency = hs[1].Summarize()
	agg.DeleteLatency = hs[2].Summarize()
	return agg
}

// --- batch grouping and the chunked batch router ---

// shardGroups is the reusable result of grouping a batch by shard with a
// counting sort: shard sh owns the grouped slots [start[sh], start[sh+1]),
// one per position, in input order. fps holds a byte batch's fingerprints
// in input order, kbuf the grouped keys (fingerprints, for byte batches),
// vbuf/bkbuf/bvbuf the grouped values and byte keys/values a batch
// carries, and idx[j] the input position of slot j. Every router chunk is
// a contiguous slot range, so a chunk's core call takes zero-copy
// sub-slices of these runs.
//
// Reads also leave their answers in grouped slots — res (U64 lookups),
// bvbuf and found (byte lookups and existence probes) — and scatter them
// back to input order along idx. A read run keeps its repeated keys: the
// shard's core call resolves each distinct key once (see
// core.BufferHash.LookupBatch). cur is the router's per-shard consumption
// cursor. Instances are pooled on the router because batches run
// concurrently.
type shardGroups struct {
	fps   []uint64
	idx   []int
	start []int
	cur   []int
	kbuf  []uint64
	vbuf  []uint64
	bkbuf [][]byte
	bvbuf [][]byte
	res   []core.LookupResult
	found []bool

	// runChunked's schedule, pooled with the groups so a batch allocates
	// none of it: the shards queued and the next one to claim, the
	// chunk errors and the cancellation, guarded by mu. wg waits for the
	// workers, and for the stripes of fingerprints before them.
	mu       sync.Mutex
	ready    []int
	claim    int
	errs     []error
	canceled error
	wg       sync.WaitGroup

	// A U64 read batch's lent dedupe (see lend): the pieces of split runs,
	// in the order they were dealt; per shard the piece it dedupes (-1 for
	// none) and, for an owner, the first slot of its run that no helper
	// took (-1 for a shard whose run is not split) and its pieces not yet
	// forwarded, guarded by mu; per slot of a piece its key's index among
	// the piece's forwarded keys; and the shards in ascending clock order.
	pieces  []lentPiece
	helps   []int
	rest    []int
	left    []int
	via     []int32
	byClock []shardClock
}

// lentPiece is the slots [lo, hi) of owner's read run that helper
// dedupes. Once forwarded, the piece's first fwd slots hold its distinct
// keys in first-occurrence order, and ready is the instant on the
// helper's clock at which their dedupe ended. off is the place of the
// forwarded keys in the owner's lookup call, and start the owner's clock
// when that call began, at or after every ready of its pieces.
type lentPiece struct {
	owner, helper int
	lo, hi        int
	fwd, off      int
	ready, start  time.Duration
}

// shardClock is a shard and its clock reading.
type shardClock struct {
	sh int
	at time.Duration
}

func (a shardClock) cmp(b shardClock) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return a.sh - b.sh
}

// group groups a U64 batch into a pooled shardGroups (see groupInto).
// Callers return the groups with putGroups.
func (r *router) group(keys, values []uint64) *shardGroups {
	return r.groupInto(r.getGroups(), keys, values, nil, nil)
}

// groupBytes fingerprints a byte batch once into the groups' fps
// scratch — the fingerprints both route the batch and serve as the shards'
// index keys — and groups them into a pooled shardGroups, carrying the
// byte keys bk and values bv when non-nil. Callers return the groups with
// putGroups.
func (r *router) groupBytes(keys, bk, bv [][]byte) *shardGroups {
	g := r.getGroups()
	r.fingerprints(g, keys)
	return r.groupInto(g, g.fps, nil, bk, bv)
}

// fingerprints fingerprints a byte batch into g.fps. A batch of at least
// two chunks is hashed in stripes of at least r.chunk keys on up to
// r.workers goroutines, the caller hashing the last stripe itself, so the
// hashing ahead of the grouping is not one serial pass while the batch's
// workers wait. The fingerprints are those of a serial loop.
func (r *router) fingerprints(g *shardGroups, keys [][]byte) {
	g.fps = resize(g.fps, len(keys))
	stripes := min(r.workers, len(keys)/r.chunk)
	if stripes < 2 {
		fingerprintInto(g.fps, keys, r.fpSeed)
		return
	}
	per := len(keys) / stripes
	last := (stripes - 1) * per
	g.wg.Add(stripes - 1)
	for lo := 0; lo < last; lo += per {
		go func() {
			defer g.wg.Done()
			fingerprintInto(g.fps[lo:lo+per], keys[lo:lo+per], r.fpSeed)
		}()
	}
	fingerprintInto(g.fps[last:], keys[last:], r.fpSeed)
	g.wg.Wait()
}

func (r *router) getGroups() *shardGroups {
	if g, ok := r.groups.Get().(*shardGroups); ok {
		return g
	}
	n := len(r.shards)
	return &shardGroups{start: make([]int, n+1), cur: make([]int, n),
		helps: make([]int, n), rest: make([]int, n), left: make([]int, n)}
}

// groupInto buckets a batch into g's per-shard runs with one
// two-pass counting sort over keys: it moves the keys — and, when non-nil,
// the parallel values, byte keys and byte values — into their shard's run,
// and records each slot's input position in idx. The batch starts with no
// lent dedupe.
func (r *router) groupInto(g *shardGroups, keys, values []uint64, bk, bv [][]byte) *shardGroups {
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
	g.pieces = g.pieces[:0]
	for sh := range g.helps {
		g.helps[sh], g.rest[sh], g.left[sh] = -1, -1, 0
	}
	for _, k := range keys {
		g.cur[r.shardIndex(k)]++
	}
	g.start[0] = 0
	for i, n := range g.cur {
		g.start[i+1] = g.start[i] + n
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
// In a U64 read batch whose skewed runs lend their dedupe (see lend), the
// owner of a split run is not queued: the helper that forwards its last
// piece makes its call (see lookupRun), so no worker waits for another.
// The helpers are queued first, a helper with no run of its own as one
// empty chunk, then the other shards, each group in index order, so an
// owner's call starts while other shards still run rather than last. On
// a two-worker get-batch-zipf probe (6,000 batches in one process, the
// two orders alternating, 2 CPUs) index order cost 85.5 to 98.9 ns per
// key and helpers first 80.4 to 93.0, 5 to 7% less in each of 7 runs:
// every batch lent, and in 99% of them the last shard in index order was
// a helper, whose owner's call then ran alone at the batch's end.
//
// At most min(workers, queued shards) worker goroutines run a batch
// while the caller waits. Chunks of at most chunk slots are the unit of
// work between scheduler decisions: each chunk is one core
// batched-pipeline call (bounding the core call and its page-dedupe
// scope) and the router's cancellation point — ctx is checked under the
// queue lock before every chunk and every owner's call, and a canceled
// batch stops claiming chunks and returns ctx.Err() joined with any chunk
// errors. Work already applied stays applied. Writes run in chunks of
// r.chunk keys; a read run is one chunk of up to core.MaxLookupBatch
// keys, so its core call resolves each distinct key once across the whole
// run.
//
// run receives the shard's index and the chunk as a [lo, hi) range of
// grouped slots. A chunk error stops that shard's remaining chunks; other
// shards keep going, and all errors are joined, so every shard is
// attempted.
func (r *router) runChunked(ctx context.Context, g *shardGroups, chunk int, run func(sh, lo, hi int) error) error {
	g.ready, g.claim, g.errs, g.canceled = g.ready[:0], 0, g.errs[:0], nil
	for pass := range 2 {
		helper := pass == 0
		for sh := range g.cur {
			if (g.helps[sh] >= 0) == helper && g.rest[sh] < 0 && (helper || g.start[sh+1] > g.start[sh]) {
				g.ready = append(g.ready, sh)
			}
		}
	}
	workers := min(r.workers, len(g.ready))
	g.wg.Add(workers)
	for range workers {
		go func() {
			defer g.wg.Done()
			g.mu.Lock()
			defer g.mu.Unlock()
			for g.claim < len(g.ready) && g.canceled == nil {
				sh := g.ready[g.claim]
				g.claim++
				// Own sh until drained, failed or canceled; between chunks
				// only the cursor advance needs the queue lock.
				for g.live(ctx) {
					lo, hi := g.cur[sh], min(g.cur[sh]+chunk, g.start[sh+1])
					g.cur[sh] = hi
					g.mu.Unlock()
					err := run(sh, lo, hi)
					g.mu.Lock()
					if err != nil {
						g.errs = append(g.errs, err)
						break
					}
					if hi == g.start[sh+1] {
						break
					}
				}
			}
		}()
	}
	g.wg.Wait()
	if g.canceled != nil {
		g.errs = append(g.errs, g.canceled)
	}
	err := errors.Join(g.errs...)
	clear(g.errs)
	return err
}

// live reports, under mu, whether ctx lets the batch run one more chunk
// or owner's call, and records its error when it does not.
func (g *shardGroups) live(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		g.canceled = err
		return false
	}
	return true
}

// Lent dedupe: under a Zipf-skewed read batch every copy of a hot key
// routes to one shard, whose phase A pays CPU.BatchCoalesce per copy,
// while the light shards' CPUs sit idle in their device waits, so the
// slowest shard sets the makespan. On get-batch-zipf (seed 1, 3 s, before
// lending) shard 2 received 1,973,667 positions and shard 3 713,579, with
// nearly the same distinct keys (554,704 and 536,801) and index busy time
// (1.112 s and 1.104 s), but their clocks advanced 1.797 s and 1.370 s:
// the mean shard was 0.851 of the makespan. Skew-aware splitting (DeWitt,
// Naughton, Schneider and Seshadri, VLDB 1992) lets the shards behind
// dedupe part of the hot run. With the thresholds below the makespan fell
// to 1.566 s (seed 1) and 1.563 s (seed 2), the mean shard 0.952 and 0.954
// of it. Keeping a quarter-mean head, with helpers that take two mean runs
// each, measured 1.561 s and 1.560 s, within 0.3%; charging the lent work
// ahead of the helper's own call, instead of at its first device wait,
// measured 1.832 s and 1.836 s, slower than not lending.
const (
	// A run splits when it holds at least lendSplitQuarters quarters of
	// the mean run and its shard's clock is at or above the mean shard
	// clock.
	lendSplitQuarters = 5
	// The owner keeps the first mean/lendHead positions of its run, and a
	// helper, a shard whose run is below the mean, takes at most one mean
	// run of the rest.
	lendHead = 2
)

// lend plans the lent dedupe of a U64 read batch grouped into g (see
// GetBatchU64): for each split run, from the owner furthest ahead down, it
// keeps the head with the owner and deals the rest in position order to
// helpers taken in ascending clock order, one piece each. Positions no
// helper took stay with the owner. A batch whose runs may exceed one
// lookup call, or whose mean run is under one position, lends nothing.
func (r *router) lend(g *shardGroups) {
	n, total := len(r.shards), g.start[len(r.shards)]
	mean := total / n
	if mean == 0 || total > core.MaxLookupBatch {
		return
	}
	g.byClock = g.byClock[:0]
	var sum time.Duration
	for sh, s := range r.shards {
		at := s.clock.Now()
		sum += at
		g.byClock = append(g.byClock, shardClock{sh, at})
	}
	slices.SortFunc(g.byClock, shardClock.cmp)
	h := 0 // the next shard, in ascending clock order, to consider as a helper
	for i := n - 1; i >= 0; i-- {
		o := g.byClock[i]
		head, end := g.start[o.sh]+mean/lendHead, g.start[o.sh+1]
		if 4*n*(end-g.start[o.sh]) < lendSplitQuarters*total || o.at*time.Duration(n) < sum {
			continue
		}
		lo := head
		for ; lo < end && h < n; h++ {
			sh := g.byClock[h].sh
			if n*(g.start[sh+1]-g.start[sh]) >= total {
				continue
			}
			hi := min(lo+mean, end)
			g.helps[sh] = len(g.pieces)
			g.pieces = append(g.pieces, lentPiece{owner: o.sh, helper: sh, lo: lo, hi: hi})
			g.left[o.sh]++
			lo = hi
		}
		if lo > head {
			g.rest[o.sh] = lo
		}
	}
	if len(g.pieces) > 0 {
		g.via = resize(g.via, total)
	}
}

// lookupRun looks up shard sh's read run, the slots [lo, hi), and writes
// each position's answer to values and found. A helper in the batch's
// lent dedupe (see lend) first dedupes its piece and forwards it; the
// helper that forwards an owner's last piece then makes the owner's call
// (see lookupOwner), unless ctx has ended, after its own call, whether or
// not that failed.
func (r *router) lookupRun(ctx context.Context, g *shardGroups, sh, lo, hi int, values []uint64, found []bool) error {
	s, res := r.shards[sh], g.res[lo:hi]
	i := g.helps[sh]
	if i < 0 {
		err := s.getBatchU64Into(g.kbuf[lo:hi], res)
		if err == nil {
			g.scatter(lo, res, values, found)
		}
		return err
	}
	p := &g.pieces[i]
	fwd, ready, err := s.lendU64(g.kbuf[p.lo:p.hi], g.via[p.lo:p.hi], g.kbuf[lo:hi], res)
	if err == nil {
		g.scatter(lo, res, values, found)
	}
	g.mu.Lock()
	p.fwd, p.ready = fwd, ready
	g.left[p.owner]--
	last := g.left[p.owner] == 0 && g.live(ctx)
	g.mu.Unlock()
	if last {
		err = errors.Join(err, r.lookupOwner(g, p.owner, values, found))
	}
	return err
}

// lookupOwner makes the one lookup call of owner sh's split run, once
// every piece of it is forwarded: its clock first moves up to the latest
// instant a helper's dedupe of one ended, and the call looks up its head,
// the forwarded keys, piece by piece, and the positions no helper took,
// which answers every position of its run.
func (r *router) lookupOwner(g *shardGroups, sh int, values []uint64, found []bool) error {
	lo, hi := g.start[sh], g.start[sh+1]
	res := g.res[lo:hi]
	// Forwarded keys overwrite the slots their pieces held: each piece
	// forwards at most its length, so the call's keys never pass a slot
	// not yet moved.
	var ready time.Duration
	at, head := -1, 0
	for i := range g.pieces {
		if p := &g.pieces[i]; p.owner == sh {
			if at < 0 {
				at, head = p.lo, p.lo
			}
			ready = max(ready, p.ready)
			p.off = at - lo
			at += copy(g.kbuf[at:], g.kbuf[p.lo:p.lo+p.fwd])
		}
	}
	rest, restOff := g.rest[sh], at-lo
	at += copy(g.kbuf[at:], g.kbuf[rest:hi])
	start, err := r.shards[sh].getLentU64(g.kbuf[lo:at], res[:at-lo], ready, hi-lo)
	if err != nil {
		return err
	}
	g.scatter(lo, res[:head-lo], values, found)
	for i := range g.pieces {
		if p := &g.pieces[i]; p.owner == sh {
			p.start = start
			for j := p.lo; j < p.hi; j++ {
				a := res[p.off+int(g.via[j])]
				values[g.idx[j]], found[g.idx[j]] = a.Value, a.Found
			}
		}
	}
	g.scatter(rest, res[restOff:restOff+hi-rest], values, found)
	return nil
}

// scatter writes the answers res of the slots from lo on to their input
// positions.
func (g *shardGroups) scatter(lo int, res []core.LookupResult, values []uint64, found []bool) {
	for j, a := range res {
		values[g.idx[lo+j]], found[g.idx[lo+j]] = a.Value, a.Found
	}
}

// --- U64 batches ---
//
// Every batch op has one shape: fingerprint the keys (byte ops only),
// group the batch into per-shard runs, run each chunk of a run as one
// chunk-helper call on its shard (a read run is one chunk), and — for
// reads — scatter the grouped
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
	g := r.group(keys, values)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, r.chunk, func(sh, lo, hi int) error {
		return r.shards[sh].putBatchU64Chunk(g.kbuf[lo:hi], g.vbuf[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. Each shard's run is one call of the core batched lookup
// pipeline: the in-memory phase answers buffer/Bloom hits with zero I/O
// and resolves each repeated key once, for CPU.BatchCoalesce per repeat,
// and the flash phase dedupes keys on the same page, sorts probes by
// device address, and overlaps them across the device's queue lanes.
// Runs are dispatched by the stealing router, so under a Zipf-skewed
// batch no worker idles while an unclaimed shard remains.
//
// A skewed run lends its dedupe (see lend): when a run holds at least 1.25
// mean runs and its shard's clock is at or above the mean shard clock, the
// owner keeps the first half mean run, and the rest is dealt in position
// order to helpers, shards whose runs are below the mean, in ascending
// clock order, at most one mean run each. A helper's core dedupes its
// piece under the helper's lock and forwards its distinct keys in
// first-occurrence order, and charges CPU.BatchCoalesce per position of
// the piece to the helper's clock, where it overlaps the helper's own
// reads (core.BufferHash.Lend). The helper that forwards an owner's last
// piece makes the owner's call: the owner's clock first moves up to the
// latest instant its helpers' dedupe ended, and its one call looks up its
// head, the forwarded keys and the positions no helper took: every
// distinct key of the run in the same first-occurrence order, so its
// counters, page reads and answers are those of the whole run, and a key
// forwarded twice is an ordinary repeat. Only which shard's clock pays for
// a repeat moves. The owner's call runs even when a helper's own call
// failed, and not when ctx ends before it. Stats.LentDedupes counts the
// positions a shard deduped for another's run; the owner's LookupLatency
// counts every position of its run.
func (r *router) GetBatchU64(ctx context.Context, keys []uint64) ([]uint64, []bool, error) {
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	g := r.group(keys, nil)
	defer r.putGroups(g)
	if err := r.getBatchU64(ctx, g, values, found); err != nil {
		return nil, nil, err
	}
	return values, found, nil
}

// getBatchU64 is GetBatchU64 on a batch grouped into g. It leaves the
// batch's lent dedupe in g.pieces.
func (r *router) getBatchU64(ctx context.Context, g *shardGroups, values []uint64, found []bool) error {
	g.res = resize(g.res, len(g.kbuf))
	r.lend(g)
	return r.runChunked(ctx, g, core.MaxLookupBatch, func(sh, lo, hi int) error {
		return r.lookupRun(ctx, g, sh, lo, hi, values, found)
	})
}

// DeleteBatchU64 lazily removes len(keys) keys, each chunk applied as one
// batched core delete. Deletes perform no I/O; batching amortizes lock and
// clock traffic, with counters identical to one DeleteU64 call per key.
func (r *router) DeleteBatchU64(ctx context.Context, keys []uint64) error {
	g := r.group(keys, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, r.chunk, func(sh, lo, hi int) error {
		return r.shards[sh].deleteBatchU64Chunk(g.kbuf[lo:hi])
	})
}

// --- byte batches ---

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
	g := r.groupBytes(keys, keys, values)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, r.chunk, func(sh, lo, hi int) error {
		return r.shards[sh].putBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], g.bvbuf[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. Each shard's run
// is one call with two overlapped I/O streams: the core batched index
// pipeline resolves fingerprints to record pointers, each distinct
// fingerprint once, and hands its hits to the value log as they become
// final, which fetches their records in overlapped batched reads. Every
// position's key is then verified against the record its fingerprint
// read, so two keys whose fingerprints collide still answer apart, and
// the verified values are copied into one arena per run, once for every
// position they answer (see Store.GetBatch). A pointer to a record the
// value log has since overwritten is a miss that costs no record read:
// the pointer carries the log cycle it was written in (see
// storage.ValueLog). An incarnation whose every pointer is such a record
// has expired and costs no index page read either (see
// shard.expireLapped).
func (r *router) GetBatch(ctx context.Context, keys [][]byte) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	g := r.groupBytes(keys, keys, nil)
	defer r.putGroups(g)
	// getBatchRecords fills only the hits, so the result slots start empty.
	g.bvbuf = resize(g.bvbuf, len(keys))
	g.found = resize(g.found, len(keys))
	clear(g.bvbuf)
	clear(g.found)
	err := r.runChunked(ctx, g, core.MaxLookupBatch, func(sh, lo, hi int) error {
		vals, ok := g.bvbuf[lo:hi], g.found[lo:hi]
		if err := r.shards[sh].getBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], vals, ok); err != nil {
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
	g := r.groupBytes(keys, nil, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, r.chunk, func(sh, lo, hi int) error {
		return r.shards[sh].deleteBatchFPs(g.kbuf[lo:hi])
	})
}

// ContainsBatch probes len(keys) byte keys through the batched index
// pipeline, returning per-key existence in input order. Each shard's run
// is one core call, which resolves each distinct fingerprint once, since
// the answer is one per fingerprint. No value-log records are read (see
// Store.ContainsBatch for the tradeoff: colliding fingerprints and lapped
// records from unexpired incarnations report true), so a run costs
// exactly its overlapped index probes and its repeats' dedupe probes.
func (r *router) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	found := make([]bool, len(keys))
	g := r.groupBytes(keys, nil, nil)
	defer r.putGroups(g)
	g.found = resize(g.found, len(keys))
	err := r.runChunked(ctx, g, core.MaxLookupBatch, func(sh, lo, hi int) error {
		ok := g.found[lo:hi]
		if err := r.shards[sh].containsBatchFPs(g.kbuf[lo:hi], ok); err != nil {
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
