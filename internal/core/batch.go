package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// The lookup pipeline — the only lookup path; Lookup is its one-key case.
// §5.1.1 reads one flash page per probed incarnation; instead of paying a
// blocking device round-trip per probe per key, a batch runs in three
// phases —
//
//	A (memory):  every key's Bloom query, delete-list check and buffer
//	             probe run with zero I/O, producing a
//	             candidate-incarnation mask per unresolved key. Each key
//	             is charged and counted as a one-key lookup would be, but
//	             a key the batch already gave: a dedupe probe finds each
//	             repeat as phase A reaches it, charges CPU.BatchCoalesce
//	             at that position instead, and the key's first occurrence
//	             answers it, so a hot key's work is done once. In a read
//	             run (see hotcache.go), every distinct key is first checked
//	             against the hot-entry cache (CPU.CacheProbe): a cached key
//	             is a final hit, recorded as a zero-I/O lookup and handed
//	             to the hit hook like any other, and skips the rest of its
//	             lookup; a buffer hit, here, or a flash hit, when its
//	             probing round resolves it, fills the cache
//	             (CPU.CacheFill), so a hot key's work is done once per read
//	             run rather than once per batch. Every other key runs one
//	             order, in every call: its super table's bank of k+1 Bloom
//	             filters (§5.1.3), the k incarnations' and the buffer's,
//	             answers in one query, and the buffer is probed (delete
//	             list, then cuckoo table) only when its filter may hold the
//	             key, or when an incarnation's may and the table has
//	             pending deletes, which must mask that incarnation's entry:
//	             a key no filter may hold is a miss with no probe, deleted
//	             or not (Stats.ScreenedProbes),
//	             and a flash-only key gathers its page right after the
//	             query. A super table with no live incarnation has no
//	             filter to ask: its buffer is probed alone. Phase A
//	             also gathers each unresolved key's first probe (phase B's
//	             round 1) as it goes. In a call of more than one key,
//	             whenever every device timeline is idle at the current
//	             CPU instant and the gathered pages not yet submitted fill
//	             one timeline's share of the queue lanes (Geometry.Lanes
//	             over len(Config.DeviceClock): one SSD's 8 lanes on a
//	             stripe over two), phase A lands its CPU charges, submits
//	             one page per such lane, earliest gathered first, and runs
//	             on, so the reads overlap the rest of phase A and come
//	             back in small groups (a device on the CPU's own clock,
//	             see Config.DeviceClock, is idle at every CPU instant and
//	             completes each read as it is issued). On a stripe over
//	             two SSDs, groups of one SSD's 8 lanes read 6,499,640
//	             virtual ops/s on the get-batch-zipf benchmark (seed 1),
//	             groups of the stripe's 16 read 5,893,388, of 4
//	             5,986,793 and of 2 5,659,521; and submitting while any
//	             one timeline is idle read 741,333 on dedup-ingest,
//	             against 769,208 while every one is.
//	             Every unresolved key joins the round's waiting list as
//	             it gathers its page. A call given a hit hook also
//	             resolves the waiting keys whose reads have completed by
//	             the current CPU instant (phase C, run early), and hands
//	             the hook its final hits, in multiples of the hook
//	             device's lanes, whenever that device is idle (HitHook).
//	B (gather):  each probing round adds every unresolved key's single
//	             newest-candidate page to one page-read set
//	             (storage.PageReads), so keys on the same flash page share
//	             its one read. Phase A submits round 1 in the lane-sized
//	             groups above; phase B submits the round's pages not yet
//	             submitted as one address-sorted device ReadBatch, whose
//	             latency overlaps across the device's queue lanes, and
//	             joins the device: the clock waits for every read of the
//	             round. The reads are view requests (storage.ReadReq.View):
//	             the device hands back its stored page, so no page is
//	             reserved or copied.
//	C (resolve): after the round's join every page is read, so one pass
//	             resolves every key still waiting, in the order it was
//	             queued: each searches its page's view through
//	             resolveProbe — newest-first, stop on hit, one probe
//	             counted per page read on its behalf. Each finished key
//	             retires through one step with phase A's in-memory
//	             results, and the keys still pending gather the next
//	             round's pages and wait again. Nothing writes the device
//	             during a lookup, so the views stay valid while they are
//	             searched.
//
// Keys probe incarnations newest-first and stop at the first hit, so the
// per-key probe sequence — and therefore FlashProbes, SpuriousProbes,
// Lookups, Hits and LookupIOHist — does not depend on how keys are grouped
// into batches or submissions; only the device time model (and the
// physical read count, via page dedupe) does. The exception is a store
// with a hot-entry cache: inside a read run, which keys the cache answers
// depends on which calls filled it, so CacheHits and the probe counters
// do depend on how the run's keys are grouped into calls.

// batchKey is the per-key state of an in-flight batched lookup.
type batchKey struct {
	idx  int // index into the caller's keys/results
	st   *superTable
	kh   uint64
	mask uint64 // candidate window offsets not yet probed
	pid  int32  // the number of the page it probes in the round's page reads
}

// MaxLookupBatch is the most keys one LookupBatch call takes: the router's
// read-run chunk, and so the granularity at which a batched read notices
// its context's cancellation.
const MaxLookupBatch = 1 << 20

// Repeat is a batch position whose key an earlier position of the same
// LookupBatch call holds: the lookup of First answers it.
type Repeat struct{ Pos, First int32 }

// batchScratch is reusable LookupBatch state. BufferHash is single-caller
// by contract (the clam facade serializes), so one scratch per instance
// suffices; everything is grown on demand and reused across calls.
type batchScratch struct {
	pending []batchKey
	hits    []int // final hits not yet handed to LookupBatch's hook

	// The batch's distinct keys, and its repeated positions in order.
	distinct keyTable
	repeats  []Repeat

	// The probing round's waiting list (see resolveEarly): the pending
	// indexes not yet resolved against their pages, and how many of the
	// round's pages had been submitted, and so read, at the last pass
	// over them.
	waiting []int32
	done    int

	// The probing round in progress: its distinct pages, numbered in the
	// order the round's keys gathered them.
	pages storage.PageReads
}

// keyTable is the open-addressed (linear probing) table of a lookup or
// insert batch's distinct keys, kept at most half full. A slot holds the
// batch position of a key's first occurrence plus one, 0 when free, and the
// batch's keys hold the key, so a table of 4-byte slots stays in the
// nearest caches. A key's first probe slot is the top bits of its
// Fibonacci hash, so keys that differ only in their low or high bits
// still spread. It grows on demand, and reset sizes it for as many
// distinct keys as its last batch held (see storage.FitSlots).
type keyTable struct {
	slots []int32
	mask  int
	shift uint
	n     int // distinct keys recorded
}

// reset empties the table, sized for as many keys as it held before.
func (t *keyTable) reset() {
	size := storage.FitSlots(len(t.slots), t.n)
	t.n = 0
	t.resize(size)
}

// resize empties the table and sets its slot count to size, a power of two.
func (t *keyTable) resize(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.mask = size - 1
	t.shift = uint(64 - bits.Len(uint(t.mask)))
}

// first returns the position of keys[i]'s first occurrence in keys[:i],
// or -1 after recording i as that first occurrence. Every call since the
// last reset must pass keys whose prefix holds the keys recorded so far
// at their recorded positions.
func (t *keyTable) first(keys []uint64, i int) int32 {
	if 2*t.n+2 > len(t.slots) {
		t.grow(keys, i)
	}
	k := keys[i]
	for s := int(k * 0x9e3779b97f4a7c15 >> t.shift); ; s = (s + 1) & t.mask {
		f := t.slots[s] - 1
		if f < 0 {
			t.slots[s] = int32(i) + 1
			t.n++
			return -1
		}
		if keys[f] == k {
			return f
		}
	}
}

// grow doubles a table that recording one more key would take past half
// full, and records keys[:i] again.
func (t *keyTable) grow(keys []uint64, i int) {
	t.resize(max(2*len(t.slots), 16))
	t.n = 0
	for j := range i {
		t.first(keys, j)
	}
}

// gather adds pending key pi's newest remaining candidate page to the
// round's page reads: its incarnation's first page plus the key's page in
// the image. All partitions share one probe length, so a probe is fully
// described by its page number.
func (b *BufferHash) gather(pi int) {
	p := &b.batch.pending[pi]
	j := bits.Len64(p.mask) - 1
	p.pid = int32(b.batch.pages.Add(p.st.incs[j].page + uint64(p.st.buf.Placement().Page(p.kh))))
}

// submit issues the round's next n unsubmitted pages as one ReadBatch on
// the device's timeline, without waiting for it.
func (b *BufferHash) submit(n int) error {
	if n == 0 {
		return nil
	}
	b.issueDevice()
	if err := b.batch.pages.Submit(n); err != nil {
		return fmt.Errorf("core: batched incarnation read: %w", err)
	}
	return nil
}

// idle reports whether the device on timelines cs has finished every
// submission on each of them by the current CPU instant: the clock plus
// the charges not yet landed.
func (b *BufferHash) idle(cs ...*vclock.Clock) bool {
	return vclock.Latest(cs) <= b.cfg.Clock.Now()+b.cpuDebt
}

// await queues pending key pi on the round's waiting list, or, when its
// page is one the device had read at resolveEarly's last pass, resolves
// it at once.
func (b *BufferHash) await(pi int, results []LookupResult) {
	bs := &b.batch
	if int(bs.pending[pi].pid) < bs.done {
		bs.probe(pi, results)
		return
	}
	bs.waiting = append(bs.waiting, int32(pi))
}

// resolveEarly resolves the waiting keys whose pages have been read, in
// the order they were queued. It is called only while the device is idle,
// when every page submitted so far has been read: during a hooked call's
// phase A, and after each probing round's join, when it resolves every
// waiting key. It passes over the waiting keys only when pages were
// submitted since its last pass.
func (b *BufferHash) resolveEarly(results []LookupResult) {
	bs := &b.batch
	if bs.done == bs.pages.Sent() {
		return
	}
	bs.done = bs.pages.Sent()
	still := bs.waiting[:0]
	for _, pi := range bs.waiting {
		if int(bs.pending[pi].pid) < bs.done {
			bs.probe(int(pi), results)
		} else {
			still = append(still, pi)
		}
	}
	bs.waiting = still
}

// probe resolves pending key pi against its page, which the device has
// read (phase C), newest-first: it clears the probed candidate, and a key
// that hits has no candidate left and joins the final hits. A key that
// misses goes on to the next round.
func (bs *batchScratch) probe(pi int, results []LookupResult) {
	p := &bs.pending[pi]
	p.mask &^= 1 << (bits.Len64(p.mask) - 1)
	if p.st.resolveProbe(&results[p.idx], bs.pages.View(int(p.pid)), p.kh) {
		p.mask = 0
		bs.hits = append(bs.hits, p.idx)
	}
}

// HitHook is LookupBatch's hit hook. The byte API reads the value-log
// records its hits point at, on the value-log device's own timeline: the
// log keeps one page-read set for the call (see
// storage.ValueLog.EndChunk), and each hand-off submits the log pages
// that no earlier hand-off of the call added to it, so the lane-sized
// hand-offs of phase A split a call's page reads without reading a page
// twice. Phase A meets each buffer hit at its own position, so a hooked
// call can hand it over at once.
type HitHook struct {
	// Read is called with the indexes, ascending, of hits whose results
	// are final; hits is valid only during the call. A non-nil error ends
	// the lookup with that error.
	Read func(hits []int) error
	// Clock is the timeline of the device Read submits to, and Lanes
	// (at least 1) its queue lane count: while phase A runs, LookupBatch
	// hands Read the final hits whenever that device is idle at the
	// current CPU instant and at least Lanes of them wait, in whole
	// multiples of Lanes. For a device striped over several timelines,
	// Clock is the one whose idleness the hand-offs wait for (the clam
	// facade's value log gives its first member's, on SSD B) and Lanes its
	// members' summed.
	Clock *vclock.Clock
	Lanes int
}

// LookupBatch looks up len(keys) keys through the lookup pipeline, writing
// per-key outcomes into results (which must have the same length). Results
// and the structural counters match one-key Lookup calls over the same
// distinct keys key-for-key; virtual time is lower because each probing
// round's flash reads are deduped, sorted and overlapped through the
// device's ReadBatch (on a one-lane device the overlap degenerates to the
// sum of the reads, and the batch still benefits from dedupe and address
// ordering), and because round 1's reads may run while phase A still does:
// phase A submits them one page per lane as the device goes idle. Every
// lookup, one-key or batched, hooked or not, runs one phase-A order: one
// query of its super table's k+1 Bloom filters (§5.1.3) first, then a
// buffer probe only when the buffer's filter may hold the key, or an
// incarnation's may and the table has pending deletes (Stats.ScreenedProbes
// counts the probes skipped), so a flash-only key's page is gathered right
// after its query.
//
// A key given twice is looked up once: phase A finds each repeat with
// one probe of a batch-scoped table of the keys so far (a one-key call
// builds none), charges it CPU.BatchCoalesce, and the repeat's result is
// its first occurrence's, copied when the batch ends. So the counters
// count distinct keys, as one-key calls over them in first-occurrence
// order would, and Repeats lists the repeated positions.
//
// On a store with a hot-entry cache (Config.CacheEntries), a call that no
// write has preceded since the previous call ended is in a read run: it
// checks each distinct key against the cache first, and a cached key is a
// hit with no flash read (FlashReads 0), counted in Stats.CacheHits. Its
// value is the one the skipped lookup would find, but the probe counters
// and LookupIOHist then depend on how the run's keys are grouped into
// calls: splitting a call in two lets the second half hit what the first
// half filled. The call's buffer and flash hits fill the cache. A call
// after a write neither probes nor fills it.
//
// hook is nil or receives every hit once, as soon as its result is final
// (see HitHook). A hit is final when phase A finds it in the cache or the
// buffer, and when its page is searched: after its probing round's join,
// or, for a round-1 key of a call of more than one key, as soon as phase A
// finds its streamed read completed by the current CPU instant (a miss
// there goes on to round 2). While phase A runs, the final hits go to the
// hook in lane multiples whenever its device is idle; the rest go after
// phase A and after each probing round that resolved hits. The byte
// API reads the hits' value-log records on that device while the index
// device probes. A repeated position is never handed over: the record its
// first occurrence's hit points at answers it. U64 callers pass nil.
//
// The dedupe of another shard's positions that Lend did since the last
// call lands on the clock inside this call: at its first probing round's
// device wait, after the round's submission and before the join, so the
// lent work overlaps the call's own reads, or at the call's end when no
// key reaches flash. The owner of those positions looks up the distinct
// keys Lend left, in first-occurrence order, in one call with the rest of
// its run (see clam.Sharded.GetBatchU64), so its counters stay those of
// the whole run.
//
// A batch holds at most MaxLookupBatch keys; a longer one, or one whose
// results differ in length, fails before any state moves. On any other
// error the contents of results are unspecified. Every call starts from
// empty scratch and returns joined to the device, on error too.
func (b *BufferHash) LookupBatch(keys []uint64, results []LookupResult, hook *HitHook) error {
	if len(keys) != len(results) {
		return fmt.Errorf("core: LookupBatch: %d keys, %d results", len(keys), len(results))
	}
	if len(keys) > MaxLookupBatch {
		return fmt.Errorf("core: LookupBatch: %d keys exceed the %d-key batch limit", len(keys), MaxLookupBatch)
	}
	err := b.lookupBatch(keys, results, hook, len(b.cache.sets) > 0 && b.epoch == b.runEpoch)
	b.runEpoch = b.epoch
	b.landLent()
	return err
}

// Lend dedupes keys, positions of another shard's read batch, in place,
// as the clam router's lent dedupe does (see clam.Sharded.GetBatchU64):
// keys' first distinct entries become its distinct keys in
// first-occurrence order, via[j] the index of keys[j]'s key among them,
// and it returns how many there are. It uses the lookup batch's key table
// and charges CPU.BatchCoalesce per position, which the next LookupBatch
// call lands on the clock at its first probing round's device wait, after
// the round's submission and before the join, so the work overlaps the
// call's own reads; a call with no probing round lands it when it ends.
// Lent work moves no counter.
func (b *BufferHash) Lend(keys []uint64, via []int32) (distinct int) {
	t := &b.batch.distinct
	t.reset()
	for j, k := range keys {
		keys[distinct] = k
		f := t.first(keys, distinct)
		if f < 0 {
			f = int32(distinct)
			distinct++
		}
		via[j] = f
	}
	b.lent += time.Duration(len(keys)) * b.cfg.CPU.BatchCoalesce
	b.lending = true
	return distinct
}

// LentReady lands lent work no LookupBatch call has landed, as a plain
// advance of the clock, and returns the clock instant the last lent work
// ended: when the positions it deduped are ready for their owner.
func (b *BufferHash) LentReady() time.Duration {
	b.landLent()
	return b.lentReady
}

// landLent lands the pending lent work, if any, on the clock now.
func (b *BufferHash) landLent() {
	if b.lending {
		b.lentReady = b.cfg.Clock.Advance(b.lent)
		b.lent, b.lending = 0, false
	}
}

// lookupBatch is LookupBatch on validated arguments; run reports that the
// call is in a read run of a store with a hot-entry cache.
func (b *BufferHash) lookupBatch(keys []uint64, results []LookupResult, hook *HitHook, run bool) error {
	bs := &b.batch
	bs.pending, bs.hits, bs.waiting, bs.done = bs.pending[:0], bs.hits[:0], bs.waiting[:0], 0
	bs.repeats = bs.repeats[:0]
	bs.pages.Reset()

	// Phase A: resolve everything the DRAM side can answer, and gather
	// round 1. CPU costs are accrued into one deferred charge and applied
	// to the clock in a single advance — the same virtual total as one-key
	// lookups, without several clock advances per key — except where a
	// batch's submission to an idle device, or a hand-off of hits to an
	// idle hook device, lands them early.
	batch := len(keys) > 1
	early := batch && hook != nil
	if batch {
		bs.distinct.reset()
	}
	for i, key := range keys {
		first := int32(-1)
		if batch {
			first = bs.distinct.first(keys, i)
		}
		switch {
		case first >= 0:
			b.chargeCPU(b.cfg.CPU.BatchCoalesce)
			bs.repeats = append(bs.repeats, Repeat{Pos: int32(i), First: first})
		case run && b.cacheHit(key, &results[i]):
			bs.hits = append(bs.hits, i)
		default:
			st, kh := b.route(key)
			mask, staged := st.query(kh)
			var done bool
			if staged || mask != 0 && len(st.deleteList) > 0 {
				results[i], done = st.probeBuffer(kh)
			} else {
				results[i] = LookupResult{}
				b.stats.ScreenedProbes++
			}
			if !done && mask != 0 {
				bs.pending = append(bs.pending, batchKey{idx: i, st: st, kh: kh, mask: mask})
				b.gather(len(bs.pending) - 1)
				b.await(len(bs.pending)-1, results)
				break
			}
			if results[i].Found {
				bs.hits = append(bs.hits, i)
			}
			b.retire(key, st, kh, results[i], run)
		}
		if batch && (early || bs.pages.Unsent() >= b.lanes) && b.idle(b.cfg.DeviceClock...) {
			if early {
				b.resolveEarly(results)
			}
			if bs.pages.Unsent() >= b.lanes {
				b.settleCPUDebt()
				if err := b.submit(b.lanes); err != nil {
					b.joinDevice()
					return err
				}
			}
		}
		if hook != nil && len(bs.hits) >= hook.Lanes && b.idle(hook.Clock) {
			b.settleCPUDebt()
			if err := bs.handOff(hook, len(bs.hits)-len(bs.hits)%hook.Lanes); err != nil {
				b.joinDevice()
				return err
			}
		}
	}
	b.settleCPUDebt()
	if err := bs.handOff(hook, len(bs.hits)); err != nil {
		b.joinDevice()
		return err
	}

	// Phases B+C: probing rounds. Every round reads at most one page per
	// pending key (its newest remaining candidate), so each key probes
	// newest-first. Phase A gathered round 1; each round gathers the next.
	for len(bs.pending) > 0 {
		// Phase B: submit the round's pages not submitted yet, and wait
		// for the whole round.
		err := b.submit(bs.pages.Unsent())
		b.landLent()
		b.joinDevice()
		if err != nil {
			return err
		}

		// Phase C: every page is read, so every waiting key resolves.
		// Retire the resolved keys and keep the rest for the next round.
		b.resolveEarly(results)
		live := bs.pending[:0]
		for _, p := range bs.pending {
			if p.mask != 0 {
				live = append(live, p)
			} else {
				b.retire(keys[p.idx], p.st, p.kh, results[p.idx], run)
			}
		}
		bs.pending = live
		b.settleCPUDebt()
		if err := bs.handOff(hook, len(bs.hits)); err != nil {
			return err
		}
		bs.pages.Reset()
		bs.done = 0
		for pi := range bs.pending {
			b.gather(pi)
			bs.waiting = append(bs.waiting, int32(pi))
		}
	}
	for _, r := range bs.repeats {
		results[r.Pos] = results[r.First]
	}
	return nil
}

// retire records the lookup of key, st's in-partition key kh, whose
// result res is final, and in a read run fills the hot-entry cache with a
// hit that fillable allows (a buffer hit always: it is buffered).
func (b *BufferHash) retire(key uint64, st *superTable, kh uint64, res LookupResult, run bool) {
	b.stats.recordLookup(res)
	if res.Found && run && b.fillable(st, kh) {
		b.fill(key, res.Value)
	}
}

// Repeats returns the positions of the last LookupBatch call that repeated
// an earlier position's key, ascending, each with the position of the
// key's first occurrence. The slice is valid until the next call.
func (b *BufferHash) Repeats() []Repeat { return b.batch.repeats }

// handOff hands the first n final hits, sorted, to the hook and keeps the
// rest. With no hook it drops them.
func (bs *batchScratch) handOff(hook *HitHook, n int) error {
	var err error
	if hook != nil && n > 0 {
		slices.Sort(bs.hits[:n])
		err = hook.Read(bs.hits[:n])
	}
	bs.hits = bs.hits[:copy(bs.hits, bs.hits[n:])]
	return err
}
