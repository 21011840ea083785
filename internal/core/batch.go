package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/storage"
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
//	             is a final hit, recorded as a zero-I/O lookup, and skips
//	             the rest of its lookup; a buffer hit, here, or a flash
//	             hit, when its probing round resolves it, fills the cache
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
//	             round 1) as it goes, each SSD's pages apart: member m of
//	             the page-read set is the device's SSD m, on timeline
//	             Config.DeviceClock[m], and a device of one timeline is its
//	             one member. In a call of more than one key, whenever some
//	             SSD is idle at the current CPU instant and holds a lane
//	             group of gathered pages not yet submitted (its share of
//	             the queue lanes, Geometry.Lanes over
//	             len(Config.DeviceClock): 8 on a shard's pair), phase A
//	             lands its CPU charges and submits, as one submission, up
//	             to a lane group of the earliest gathered pages of every
//	             SSD idle then, the trigger's and any other idle one's, and
//	             runs on. So the reads overlap the rest of phase A and come
//	             back in small groups, and a busy SSD holds back neither
//	             the other's group nor phase A (a device on the CPU's own
//	             clock, see Config.DeviceClock, is idle at every CPU
//	             instant and completes each read as it is issued). The
//	             per-member counts gate the rule, so phase A reads no
//	             timeline's clock until an SSD holds a group. On timelines
//	             of one lane each (a shard's Transcend pair) a group is one
//	             page, which would go out alone, in a run of its own and
//	             with no hole to read through, so phase A hands nothing
//	             over there and phase B submits all of round 1.
//	B (gather):  each probing round adds every unresolved key's single
//	             newest-candidate page to one page-read set
//	             (storage.PageReads), so keys on the same flash page share
//	             its one read; a page of an image the instance still holds
//	             in DRAM (see WriteBehind) is read there instead, with no
//	             device read. Phase A submits round 1 in the lane groups
//	             above; phase B submits the round's pages not yet
//	             submitted as one address-sorted device ReadBatch, whose
//	             latency overlaps across the device's queue lanes, and
//	             joins the device: the clock waits for every read the
//	             round submitted, on the timelines they reached, and the
//	             CPU does pending put work in that wait (see Wait). The
//	             reads are view requests (storage.ReadReq.View):
//	             the device hands back its stored page, so no page is
//	             reserved or copied. A submission of more pages than the
//	             device's lanes (phase B's, as a rule; a hand-over holds
//	             at most a group per SSD) also reads through the holes of
//	             at most Geometry.ReadGap pages between two of its pages
//	             on one SSD, so the page after such a hole continues a
//	             sequential run instead of paying a run's fixed cost (see
//	             storage.PageReads); the pages read through answer no key.
//	C (resolve): after the round's join every page is read, so one pass
//	             resolves every pending key, in pending order: each
//	             searches its page's view, or its held image's page,
//	             through resolveProbe —
//	             newest-first, stop on hit, one probe counted per page read
//	             on its behalf. A second pass retires each finished key
//	             through the step phase A's in-memory results take, and
//	             the keys still pending gather the next round's pages. Nothing writes the device
//	             during a lookup, so the views stay valid while they are
//	             searched.
//
// Keys probe incarnations newest-first and stop at the first hit, so the
// per-key probe sequence — and therefore FlashProbes, SpuriousProbes,
// Lookups, Hits and LookupIOHist — does not depend on how keys are grouped
// into batches or submissions; only the device time model (and the
// physical read count, via page dedupe and held images) does. The
// exception is a store
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

	// The batch's distinct keys, and its repeated positions in order.
	distinct keyTable
	repeats  []Repeat

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

// heldPID is the page number gather gives a probe whose page lies in a
// held image (see heldPage): it reads nothing from the device.
const heldPID = -1

// gather adds pending key pi's newest remaining candidate page to the
// round's page reads: its incarnation's first page plus the key's page in
// the image. All partitions share one probe length, so a probe is fully
// described by its page number. A candidate whose image is held in DRAM
// is probed there, in the same round, with no device read.
func (b *BufferHash) gather(pi int) {
	p := &b.batch.pending[pi]
	j := bits.Len64(p.mask) - 1
	page := p.st.buf.Placement().Page(p.kh)
	if b.heldPage(p.st, p.st.incs[j].seq, page) != nil {
		p.pid = heldPID
		return
	}
	p.pid = int32(b.batch.pages.Add(p.st.incs[j].page + uint64(page)))
}

// heldPage returns page page of the held image of st's incarnation seq,
// nil when that incarnation's image is not held. Held images are the
// newest incarnations of their super tables, so only a key's first
// candidates can be held.
func (b *BufferHash) heldPage(st *superTable, seq uint64, page int) []byte {
	if !b.held {
		return nil
	}
	for i := range b.staged {
		if w := &b.staged[i]; w.st == st && w.seq == seq {
			return w.buf[page*b.probeN:][:b.probeN]
		}
	}
	return nil
}

// submit issues the round's first n unsubmitted pages of each member of
// the device set in members (see storage.PageReads.Submit) as one
// ReadBatch on the device's timelines, without waiting for it. With no
// page left to submit it does nothing.
func (b *BufferHash) submit(n int, members uint64) error {
	if b.batch.pages.Unsent() == 0 {
		return nil
	}
	b.issueDevice()
	err := b.batch.pages.Submit(n, members)
	b.dev.Reached()
	if err != nil {
		return fmt.Errorf("core: batched incarnation read: %w", err)
	}
	return nil
}

// handOver submits round 1's gathered pages during phase A when one of
// the device's SSDs is idle at the current CPU instant (the clock plus
// the charges not yet landed) and holds at least b.lanes of them not yet
// submitted: it submits up to b.lanes of the first pages of every SSD then
// idle, and the issue lands the charges first. Member m of the page-read set is SSD m, on
// timeline Config.DeviceClock[m]. Phase A calls it only on timelines of
// more than one lane.
func (b *BufferHash) handOver() error {
	pages := &b.batch.pages
	now := b.cfg.Clock.Now() + b.cpuDebt
	var idle uint64
	for m, c := range b.cfg.DeviceClock {
		if pages.UnsentOn(m) >= b.lanes && c.Now() <= now {
			idle = 1 << m
			break
		}
	}
	if idle == 0 {
		return nil
	}
	for m, c := range b.cfg.DeviceClock {
		if pages.UnsentOn(m) > 0 && c.Now() <= now {
			idle |= 1 << m
		}
	}
	return b.submit(b.lanes, idle)
}

// probe resolves pending key p against its page, which the device has
// read or a held image holds (phase C), newest-first: it clears the
// probed candidate, and a key that hits has no candidate left. A key that
// misses goes on to the next round.
func (b *BufferHash) probe(p *batchKey, results []LookupResult) {
	j := bits.Len64(p.mask) - 1
	p.mask &^= 1 << j
	var view []byte
	if p.pid == heldPID {
		b.stats.PendingProbes++
		view = b.heldPage(p.st, p.st.incs[j].seq, p.st.buf.Placement().Page(p.kh))
	} else {
		view = b.batch.pages.View(int(p.pid))
	}
	if p.st.resolveProbe(&results[p.idx], view, p.kh) {
		p.mask = 0
	}
}

// LookupBatch looks up len(keys) keys through the lookup pipeline, writing
// per-key outcomes into results (which must have the same length). Results
// and the structural counters match one-key Lookup calls over the same
// distinct keys key-for-key; virtual time is lower because each probing
// round's flash reads are deduped, sorted and overlapped through the
// device's ReadBatch (on a one-lane device the overlap degenerates to the
// sum of the reads, and the batch still benefits from dedupe and address
// ordering), and because round 1's reads may run while phase A still does:
// phase A hands each SSD a lane group of its pages as soon as it holds one
// while idle (see the pipeline comment above). Every
// lookup, one-key or batched, runs one phase-A order: one
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
// The dedupe of another shard's positions that Lend did since the last
// call lands on the clock inside this call: at its first probing round's
// device wait, after the round's submission and before the join, so the
// lent work overlaps the call's own reads, or at the call's end when no
// key reaches flash. The owner of those positions looks up the distinct
// keys Lend left, in first-occurrence order, in one call with the rest of
// its run (see clam.Sharded.GetBatchU64), so its counters stay those of
// the whole run.
//
// A probe of an incarnation whose image is still held in DRAM (see
// WriteBehind) reads the image's page there, with no device read: it
// counts as a flash probe, and in Stats.PendingProbes.
//
// A batch holds at most MaxLookupBatch keys; a longer one, or one whose
// results differ in length, fails before any state moves. On any other
// error the contents of results are unspecified. Every call starts from
// empty scratch and returns joined to the submissions it made, on error
// too; it issues no write.
func (b *BufferHash) LookupBatch(keys []uint64, results []LookupResult) error {
	if len(keys) != len(results) {
		return fmt.Errorf("core: LookupBatch: %d keys, %d results", len(keys), len(results))
	}
	if len(keys) > MaxLookupBatch {
		return fmt.Errorf("core: LookupBatch: %d keys exceed the %d-key batch limit", len(keys), MaxLookupBatch)
	}
	err := b.lookupBatch(keys, results, len(b.cache.sets) > 0 && b.epoch == b.runEpoch)
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
func (b *BufferHash) lookupBatch(keys []uint64, results []LookupResult, run bool) error {
	bs := &b.batch
	bs.pending, bs.repeats = bs.pending[:0], bs.repeats[:0]
	bs.pages.Reset()

	// Phase A: resolve everything the DRAM side can answer, and gather
	// round 1. CPU costs are accrued into one deferred charge and applied
	// to the clock in a single advance — the same virtual total as one-key
	// lookups, without several clock advances per key — except where a
	// batch's submission to an idle device lands them early.
	batch := len(keys) > 1
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
				break
			}
			b.retire(key, st, kh, results[i], run)
		}
		if batch && b.lanes > 1 && bs.pages.Unsent() >= b.lanes {
			if err := b.handOver(); err != nil {
				b.Wait(b.dev.Due())
				return err
			}
		}
	}
	b.settleCPUDebt()

	// Phases B+C: probing rounds. Every round reads at most one page per
	// pending key (its newest remaining candidate), so each key probes
	// newest-first. Phase A gathered round 1; each round gathers the next.
	for len(bs.pending) > 0 {
		// Phase B: submit the round's pages not submitted yet, and wait
		// for the whole round.
		err := b.submit(bs.pages.Unsent(), storage.AllMembers)
		b.landLent()
		b.Wait(b.dev.Due())
		if err != nil {
			return err
		}

		// Phase C: every page is read, so every pending key resolves.
		// Retire the resolved keys and keep the rest for the next round.
		for pi := range bs.pending {
			b.probe(&bs.pending[pi], results)
		}
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
		bs.pages.Reset()
		for pi := range bs.pending {
			b.gather(pi)
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
