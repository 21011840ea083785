package clam

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
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
	if cfg.customDevice != nil && cfg.valueLogBytes != 0 {
		return nil, errors.New("clam: WithValueLog is incompatible with WithCustomDevice; such a store has no value log")
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
	err = r.shard(key).getBatchU64Into(keys[:], results[:], 0)
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
	err = r.shard(fps[0]).getBatchRecords(fps[:], keys[:], values[:], founds[:], nil, 0)
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

// ResetMetrics clears every shard's latency histograms and core counters,
// typically after a warm-up phase, so the next Stats snapshot's latency
// summaries and Core cover the since-reset window. The device and
// value-log counters are not reset: they stay cumulative since Open (see
// Store.ResetMetrics).
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
// in input order. fps holds a byte batch's fingerprints in input order,
// kbuf the grouped keys (fingerprints, for byte batches), vbuf/bkbuf/bvbuf
// the grouped values and byte keys/values a batch carries, and idx[j] the
// input position of slot j. Every router chunk is a contiguous slot range,
// so a chunk's core call takes zero-copy sub-slices of these runs.
//
// A read batch is coalesced while it is grouped (see groupDistinct): its
// slots hold each distinct key once, at its first occurrence, and answer
// every position that repeats it. next chains the positions of a key,
// starting from idx[j] (-1 ends a chain), and mult[j] counts them for a
// byte lookup. dups[sh] counts the repeated positions shard sh's slots
// absorbed, and seen is the table that finds them. Writes are grouped
// position by position, as sent.
//
// Reads also leave their answers in grouped slots — res (U64 lookups),
// bvbuf and found (byte lookups and existence probes) — and scatter them
// back to input order along idx and next. cur is the router's per-shard
// consumption cursor. Instances are pooled on the router because batches
// run concurrently.
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

	mult []int32
	next []int32
	dups []int
	seen dedupTable

	// runChunked's schedule, pooled with the groups so a batch allocates
	// none of it: the shards with work and the next one to claim, the
	// chunk errors and the cancellation, guarded by mu. wg waits for the
	// workers, and for the stripes of fingerprints before them.
	mu       sync.Mutex
	ready    []int
	claim    int
	errs     []error
	canceled error
	wg       sync.WaitGroup
}

// group groups a U64 write batch into a pooled shardGroups (see
// groupInto). Callers return the groups with putGroups.
func (r *router) group(keys, values []uint64) *shardGroups {
	return r.groupInto(r.getGroups(), keys, values, nil, nil)
}

// groupBytes fingerprints a byte write batch once into the groups' fps
// scratch — the fingerprints both route the batch and serve as the shards'
// index keys — and groups them into a pooled shardGroups, carrying the
// byte keys bk and values bv when non-nil. Callers return the groups with
// putGroups.
func (r *router) groupBytes(keys, bk, bv [][]byte) *shardGroups {
	g := r.getGroups()
	r.fingerprints(g, keys)
	return r.groupInto(g, g.fps, nil, bk, bv)
}

// groupReads coalesces a U64 read batch into a pooled shardGroups (see
// groupDistinct). Callers return the groups with putGroups.
func (r *router) groupReads(keys []uint64) *shardGroups {
	return r.groupDistinct(r.getGroups(), keys, nil)
}

// groupByteReads fingerprints a byte read batch into the groups' fps
// scratch and coalesces it into a pooled shardGroups (see groupDistinct).
// With verify, two positions share a slot only if their keys are equal
// byte for byte, and the slots carry the byte keys; without, equal
// fingerprints suffice, as they do for an existence probe. Callers return
// the groups with putGroups.
func (r *router) groupByteReads(keys [][]byte, verify bool) *shardGroups {
	g := r.getGroups()
	r.fingerprints(g, keys)
	var bk [][]byte
	if verify {
		bk = keys
	}
	return r.groupDistinct(g, g.fps, bk)
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
	return &shardGroups{start: make([]int, n+1), cur: make([]int, n), dups: make([]int, n)}
}

// groupInto buckets a write batch into g's per-shard runs with one
// two-pass counting sort over keys: it moves the keys — and, when non-nil,
// the parallel values, byte keys and byte values — into their shard's run,
// and records each slot's input position in idx.
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
	for _, k := range keys {
		g.cur[r.shardIndex(k)]++
	}
	g.runs()
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

// runs turns the per-shard slot counts in cur into the runs' starts, and
// cur into each run's fill cursor.
func (g *shardGroups) runs() {
	g.start[0] = 0
	for i, n := range g.cur {
		g.start[i+1] = g.start[i] + n
		g.cur[i] = g.start[i]
	}
}

// groupDistinct buckets a read batch into g's per-shard runs as groupInto
// does, with one slot per distinct key: coalesce finds the repeats, and
// the counting sort places the first occurrences alone, in input order.
// With bk non-nil, keys are fingerprints of bk, a position repeats an
// earlier one only if their byte keys are equal, and the slots carry the
// byte keys and their multiplicities.
func (r *router) groupDistinct(g *shardGroups, keys []uint64, bk [][]byte) *shardGroups {
	r.coalesce(g, keys, bk)
	g.runs()
	firsts := g.seen.firsts
	g.idx = resize(g.idx, len(firsts))
	g.kbuf = resize(g.kbuf, len(firsts))
	if bk != nil {
		g.bkbuf = resize(g.bkbuf, len(firsts))
		g.mult = resize(g.mult, len(firsts))
	}
	for _, i := range firsts {
		k := keys[i]
		sh := r.shardIndex(k)
		at := g.cur[sh]
		g.cur[sh]++
		g.idx[at] = int(i)
		g.kbuf[at] = k
		if bk != nil {
			g.bkbuf[at] = bk[i]
			m := int32(1)
			for p := g.next[i]; p >= 0; p = g.next[p] {
				m++
			}
			g.mult[at] = m
		}
	}
	copy(g.cur, g.start) // rewind: cur becomes the router's cursor
	return g
}

// coalesce is groupDistinct's first pass, one dedupe probe per position:
// a position whose key the seen table holds joins the chain of the key's
// first occurrence and counts in its shard's dups; any other becomes a
// first occurrence and counts in its shard's cur.
func (r *router) coalesce(g *shardGroups, keys []uint64, bk [][]byte) {
	t := &g.seen
	t.reset(len(keys))
	g.next = resize(g.next, len(keys))
	clear(g.cur)
	clear(g.dups)
	slots, mask, shift, firsts, next := t.slots, t.mask, t.shift, t.firsts, g.next
	for i, k := range keys {
		for s := int(k * 0x9e3779b97f4a7c15 >> shift); ; s = (s + 1) & mask {
			f := slots[s] - 1
			if f < 0 { // free: k is new
				slots[s] = int32(i) + 1
				firsts = append(firsts, int32(i))
				next[i] = -1
				g.cur[r.shardIndex(k)]++
				break
			}
			if keys[f] == k && (bk == nil || bytes.Equal(bk[f], bk[i])) {
				next[i], next[f] = next[f], int32(i)
				g.dups[r.shardIndex(k)]++
				break
			}
		}
	}
	t.firsts = firsts
}

// absorbed returns the repeated positions to charge to the chunk of shard
// sh that starts at slot lo: all of the shard's, on its first chunk.
func (g *shardGroups) absorbed(sh, lo int) int {
	if lo == g.start[sh] {
		return g.dups[sh]
	}
	return 0
}

// dedupTable is the open-addressed (linear probing) table of a read
// batch's distinct keys, kept at most half full. A slot holds the input
// position of a key's first occurrence plus one, 0 when free, and the
// batch's keys hold the key: a table of 4-byte slots stays in the nearest
// caches. A key's first probe slot is the top bits of its Fibonacci hash,
// so keys that differ only in their low or high bits still spread. firsts
// lists the first occurrences' positions in input order. Positions are
// int32: a batch holds fewer than 2^31 keys.
type dedupTable struct {
	slots  []int32
	firsts []int32
	mask   int
	shift  uint
}

// reset empties the table for a batch of n keys and sizes it to the least
// power of two of at least 2n slots, and at least 16.
func (t *dedupTable) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.slots = resize(t.slots, size)
	clear(t.slots)
	t.firsts = t.firsts[:0]
	t.mask = size - 1
	t.shift = uint(64 - bits.Len(uint(t.mask)))
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
// run receives the shard's index and the chunk as a [lo, hi) range of
// grouped slots. A chunk error stops that shard's remaining chunks; other
// shards keep going, and all errors are joined, so every shard is
// attempted.
func (r *router) runChunked(ctx context.Context, g *shardGroups, run func(sh, lo, hi int) error) error {
	g.ready, g.claim, g.errs, g.canceled = g.ready[:0], 0, g.errs[:0], nil
	for sh := range g.cur {
		if g.start[sh+1] > g.start[sh] {
			g.ready = append(g.ready, sh)
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
				for g.cur[sh] < g.start[sh+1] {
					if err := ctx.Err(); err != nil {
						g.canceled = err
						break
					}
					lo, hi := g.cur[sh], min(g.cur[sh]+r.chunk, g.start[sh+1])
					g.cur[sh] = hi
					g.mu.Unlock()
					err := run(sh, lo, hi)
					g.mu.Lock()
					if err != nil {
						g.errs = append(g.errs, err)
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
	g := r.group(keys, values)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(sh, lo, hi int) error {
		return r.shards[sh].putBatchU64Chunk(g.kbuf[lo:hi], g.vbuf[lo:hi])
	})
}

// GetBatchU64 looks up len(keys) keys and returns per-key results in input
// order. The router coalesces the batch: each distinct key is looked up
// once, and its answer fans out to every position that repeats it. Each
// chunk runs through the core batched lookup pipeline: the in-memory phase
// answers buffer/Bloom hits with zero I/O, and the flash phase dedupes
// keys on the same page, sorts probes by device address, and overlaps
// them across the device's queue lanes. A shard's first chunk also pays
// CPU.BatchCoalesce for each repeated position it absorbed. Chunks are
// dispatched by the stealing router, so under a Zipf-skewed batch no
// worker idles while an unclaimed shard remains.
func (r *router) GetBatchU64(ctx context.Context, keys []uint64) ([]uint64, []bool, error) {
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	g := r.groupReads(keys)
	defer r.putGroups(g)
	g.res = resize(g.res, len(g.kbuf))
	err := r.runChunked(ctx, g, func(sh, lo, hi int) error {
		res := g.res[lo:hi]
		if err := r.shards[sh].getBatchU64Into(g.kbuf[lo:hi], res, g.absorbed(sh, lo)); err != nil {
			return err
		}
		for j, i := range g.idx[lo:hi] {
			for ; i >= 0; i = int(g.next[i]) {
				values[i], found[i] = res[j].Value, res[j].Found
			}
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
	g := r.group(keys, nil)
	defer r.putGroups(g)
	return r.runChunked(ctx, g, func(sh, lo, hi int) error {
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
	return r.runChunked(ctx, g, func(sh, lo, hi int) error {
		return r.shards[sh].putBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], g.bvbuf[lo:hi])
	})
}

// GetBatch looks up len(keys) byte keys in input order. The router
// coalesces the batch as GetBatchU64 does, matching keys on fingerprint
// and then byte for byte, so two keys whose fingerprints collide are still
// verified apart. Each chunk runs two overlapped I/O streams on its shard:
// the core batched index pipeline resolves fingerprints to record
// pointers, then the chunk's surviving value-log records are fetched as
// one overlapped batched read, and their verified values are copied into
// one arena per chunk, once for every position a key answers (see
// Store.GetBatch). A pointer to a record the value log has since
// overwritten is a miss that costs no record read: the pointer carries the
// log cycle it was written in (see storage.ValueLog). An incarnation whose
// every pointer is such a record has expired and costs no index page read
// either (see shard.expireLapped).
func (r *router) GetBatch(ctx context.Context, keys [][]byte) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	g := r.groupByteReads(keys, true)
	defer r.putGroups(g)
	// getBatchRecords fills only the hits, so the result slots start empty.
	g.bvbuf = resize(g.bvbuf, len(g.kbuf))
	g.found = resize(g.found, len(g.kbuf))
	clear(g.bvbuf)
	clear(g.found)
	err := r.runChunked(ctx, g, func(sh, lo, hi int) error {
		vals, ok := g.bvbuf[lo:hi], g.found[lo:hi]
		if err := r.shards[sh].getBatchRecords(g.kbuf[lo:hi], g.bkbuf[lo:hi], vals, ok, g.mult[lo:hi], g.absorbed(sh, lo)); err != nil {
			return err
		}
		// A hit answering m positions holds m copies of its value back
		// to back: each position takes its own.
		for j, i := range g.idx[lo:hi] {
			v := vals[j]
			n := len(v) / int(g.mult[lo+j])
			for ; i >= 0; i = int(g.next[i]) {
				values[i], found[i] = v[:n:n], ok[j]
				v = v[n:]
			}
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
	return r.runChunked(ctx, g, func(sh, lo, hi int) error {
		return r.shards[sh].deleteBatchFPs(g.kbuf[lo:hi])
	})
}

// ContainsBatch probes len(keys) byte keys through the batched index
// pipeline, returning per-key existence in input order. The router
// coalesces the batch on fingerprints alone, since the answer is one per
// fingerprint. No value-log records are read (see Store.ContainsBatch for
// the tradeoff: colliding fingerprints and lapped records from unexpired
// incarnations report true), so each chunk costs exactly its overlapped
// index probes and its shard's coalescing charge.
func (r *router) ContainsBatch(ctx context.Context, keys [][]byte) ([]bool, error) {
	found := make([]bool, len(keys))
	g := r.groupByteReads(keys, false)
	defer r.putGroups(g)
	g.found = resize(g.found, len(g.kbuf))
	err := r.runChunked(ctx, g, func(sh, lo, hi int) error {
		ok := g.found[lo:hi]
		if err := r.shards[sh].containsBatchFPs(g.kbuf[lo:hi], ok, g.absorbed(sh, lo)); err != nil {
			return err
		}
		for j, i := range g.idx[lo:hi] {
			for ; i >= 0; i = int(g.next[i]) {
				found[i] = ok[j]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}
