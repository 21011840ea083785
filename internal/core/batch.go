package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/hashutil"
	"repro/internal/storage"
)

// The lookup pipeline — the only lookup path; Lookup is its one-key case.
// §5.1.1 reads one flash page per probed incarnation; instead of paying a
// blocking device round-trip per probe per key, a batch runs in three
// phases —
//
//	A (memory):  every key's delete-list check, buffer probe and Bloom
//	             query run back to back with zero I/O, producing a
//	             candidate-incarnation mask per unresolved key. Each key
//	             is charged and counted as a one-key lookup would be; the
//	             clam router coalesces a read batch's repeated keys before
//	             they reach core, so a hot key's work is done once. Phase A
//	             also gathers each unresolved key's first probe (phase B's
//	             round 1) as it goes. On a device with a timeline of its
//	             own (Config.DeviceClock), whenever the device is idle at
//	             the current CPU instant and the gathered pages not yet
//	             submitted fill its queue lanes (Geometry.Lanes), phase A
//	             lands its CPU charges, submits those pages and runs on, so
//	             the reads overlap the rest of phase A.
//	B (gather):  each probing round collects every unresolved key's single
//	             newest-candidate page probe, dedupes keys that land on the
//	             same flash page (a page is read once per round, and every
//	             key on it uses that read), sorts the probes by device
//	             address, and issues them as one device ReadBatch
//	             submission whose virtual latency overlaps across the
//	             device's queue lanes — in round 1, the pages phase A has
//	             not submitted yet. The round then joins the device: the
//	             clock waits for every read of the round. The probes are
//	             view requests (storage.ReadReq.View): each carries only
//	             its page's range and the device hands back its stored
//	             page, so no page is reserved or copied.
//	C (resolve): each key searches its page image through resolveProbe —
//	             newest-first, stop on hit, one probe counted per page read
//	             on its behalf. Nothing writes the device during a lookup,
//	             so the views stay valid while they are searched.
//
// Keys probe incarnations newest-first and stop at the first hit, so the
// per-key probe sequence — and therefore FlashProbes, SpuriousProbes,
// Lookups, Hits and LookupIOHist — does not depend on how keys are grouped
// into batches or submissions; only the device time model (and the
// physical read count, via page dedupe) does.

// batchKey is the per-key state of an in-flight batched lookup.
type batchKey struct {
	idx  int // index into the caller's keys/results
	st   *superTable
	kh   uint64
	mask uint64 // candidate window offsets not yet probed
	read int32  // index into the round's reads of the page it probes
	slot int32  // its page's slot in the page index (streamed round 1)
}

// pendBits is the width of the pending-index field packed into a sorted
// probe word; LookupBatch takes at most 2^pendBits keys so the field fits.
const pendBits = 20

// batchScratch is reusable LookupBatch state. BufferHash is single-caller
// by contract (the clam facade serializes), so one scratch per instance
// suffices; everything is grown on demand and reused across calls.
type batchScratch struct {
	pending []batchKey
	hits    []int // one step's newly resolved hits, for LookupBatch's resolved hook

	// The probing round in progress: its probe words, one per pending
	// key, and its reads in submission order. A round 1 that phase A
	// streams to the device also keeps its distinct pages in gather
	// order, pages[sent:] awaiting submission, and the index that dedupes
	// them across submissions.
	packed []uint64 // pageNo<<pendBits | pendingIndex
	reqs   []storage.ReadReq
	pages  []uint64
	sent   int
	seen   pageIndex
}

// pageIndex maps the pages phase A gathers to the reads that serve them:
// open addressing over page+1 keys, 0 marking a free slot, kept at most
// half full. A page not yet submitted maps to read -1.
type pageIndex struct {
	keys  []uint64
	reads []int32
}

// reset empties the index and sizes it for n pages.
func (m *pageIndex) reset(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(m.keys) < size {
		m.keys, m.reads = make([]uint64, size), make([]int32, size)
		return
	}
	m.keys, m.reads = m.keys[:size], m.reads[:size]
	clear(m.keys)
}

// slot returns page's slot, adding page unsubmitted if it is absent, and
// reports whether it was.
func (m *pageIndex) slot(page uint64) (int, bool) {
	mask := uint64(len(m.keys) - 1)
	k := page + 1
	for i := hashutil.Mix64(page) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case 0:
			m.keys[i], m.reads[i] = k, -1
			return int(i), true
		case k:
			return int(i), false
		}
	}
}

// gather adds pending key pi's newest remaining candidate page to the
// round, and, when phase A streams the round, its page to the round's
// distinct pages. All partitions share one probe length, so a probe is
// fully described by its page number; New rejects devices whose page
// numbers would not fit a packed probe word.
func (b *BufferHash) gather(pi int, stream bool) {
	bs := &b.batch
	p := &bs.pending[pi]
	j := bits.Len64(p.mask) - 1
	page := uint64(b.probeAddr(p.st, p.st.incs[j], p.kh)) / uint64(b.probeN)
	bs.packed = append(bs.packed, page<<pendBits|uint64(pi))
	if stream {
		i, fresh := bs.seen.slot(page)
		if fresh {
			bs.pages = append(bs.pages, page)
		}
		p.slot = int32(i)
	}
}

// streamGroup submits the pages phase A gathered since its last
// submission as one address-sorted read submission, without waiting for
// it, and records the read of each page in the index.
func (b *BufferHash) streamGroup() error {
	bs := &b.batch
	group := bs.pages[bs.sent:]
	bs.sent = len(bs.pages)
	slices.Sort(group)
	first := len(bs.reqs)
	for _, page := range group {
		i, _ := bs.seen.slot(page)
		bs.seen.reads[i] = int32(len(bs.reqs))
		bs.reqs = append(bs.reqs, b.probeReq(page))
	}
	return b.read(bs.reqs[first:])
}

// probeReq is the view request of the probe page numbered page.
func (b *BufferHash) probeReq(page uint64) storage.ReadReq {
	return storage.ReadReq{Off: int64(page) * int64(b.probeN), N: b.probeN, View: true}
}

// read issues reqs as one ReadBatch on the device's timeline, without
// waiting for it.
func (b *BufferHash) read(reqs []storage.ReadReq) error {
	if len(reqs) == 0 {
		return nil
	}
	b.issueDevice()
	if _, err := b.cfg.Device.ReadBatch(reqs); err != nil {
		return fmt.Errorf("core: batched incarnation read: %w", err)
	}
	return nil
}

// deviceIdle reports whether the device has finished every submission by
// the current CPU instant: the clock plus the charges not yet landed.
func (b *BufferHash) deviceIdle() bool {
	return b.cfg.DeviceClock.Now() <= b.cfg.Clock.Now()+b.cpuDebt
}

// LookupBatch looks up len(keys) keys through the lookup pipeline, writing
// per-key outcomes into results (which must have the same length). Results
// and the structural counters match one-key Lookup calls over the same
// distinct keys key-for-key; virtual time is lower because each probing
// round's flash reads are deduped, sorted and overlapped through the
// device's ReadBatch (on a one-lane device the overlap degenerates to the
// sum of the reads, and the batch still benefits from dedupe and address
// ordering), and, on a device with its own timeline, because round 1's
// reads start while phase A still runs.
//
// A key given twice is looked up twice, each occurrence on its own (under
// LRU, one-key calls would find the second occurrence re-inserted in the
// buffer instead). The clam router coalesces a batch's repeated keys
// before they reach core, so its calls hold distinct keys, two byte keys
// with one fingerprint aside.
//
// resolved is nil or is called after phase A and after each probing round
// that resolved hits, with the indexes, ascending, of the keys that step
// resolved as hits; their results are final, and hits is valid only
// during the call. The byte API reads a round's value-log records on that
// device while the next round probes the index device. A non-nil error
// from resolved ends the lookup with that error. U64 callers pass nil.
//
// A batch holds at most 2^pendBits keys, so that a pending index fits its
// packed probe word; a longer one, or one whose results differ in length,
// fails before any state moves. On any other error the contents of
// results are unspecified. Every call starts from empty scratch and
// returns joined to the device, on error too.
func (b *BufferHash) LookupBatch(keys []uint64, results []LookupResult, resolved func(hits []int) error) error {
	if len(keys) != len(results) {
		return fmt.Errorf("core: LookupBatch: %d keys, %d results", len(keys), len(results))
	}
	if len(keys) > 1<<pendBits {
		return fmt.Errorf("core: LookupBatch: %d keys exceed the %d-key batch limit", len(keys), 1<<pendBits)
	}
	bs := &b.batch
	bs.pending, bs.hits = bs.pending[:0], bs.hits[:0]
	bs.packed, bs.reqs, bs.pages, bs.sent = bs.packed[:0], bs.reqs[:0], bs.pages[:0], 0

	// Phase A: resolve everything the DRAM side can answer, and gather
	// round 1. CPU costs are accrued into one deferred charge and applied
	// to the clock in a single advance — the same virtual total as one-key
	// lookups, without several clock advances per key — except where a
	// submission to an idle device of its own lands them early.
	stream := b.cfg.DeviceClock != b.cfg.Clock
	if stream {
		bs.seen.reset(len(keys))
	}
	for i, key := range keys {
		st, kh := b.route(key)
		res, mask, done := st.lookupMem(kh)
		results[i] = res
		if !done && mask != 0 {
			bs.pending = append(bs.pending, batchKey{idx: i, st: st, kh: kh, mask: mask})
			b.gather(len(bs.pending)-1, stream)
		} else {
			b.stats.recordLookup(res)
			if resolved != nil && res.Found {
				bs.hits = append(bs.hits, i)
			}
		}
		if stream && len(bs.pages)-bs.sent >= b.lanes && b.deviceIdle() {
			b.settleCPUDebt()
			if err := b.streamGroup(); err != nil {
				b.joinDevice()
				return err
			}
		}
	}
	b.settleCPUDebt()
	if err := bs.report(resolved); err != nil {
		b.joinDevice()
		return err
	}

	// Phases B+C: probing rounds. Every round reads at most one page per
	// pending key (its newest remaining candidate), so each key probes
	// newest-first. Phase A gathered round 1; each round gathers the next.
	for len(bs.pending) > 0 {
		// Phase B: sort the probes by page and give each key its page's
		// read: the one a phase-A submission issued, or a new one, one
		// per page. Submit the new reads and wait for the whole round.
		slices.Sort(bs.packed)
		first := len(bs.reqs)
		last, ri := ^uint64(0), int32(0) // no page number reaches last
		for _, w := range bs.packed {
			p := &bs.pending[w&(1<<pendBits-1)]
			if page := w >> pendBits; page != last {
				last, ri = page, -1
				if bs.sent > 0 {
					ri = bs.seen.reads[p.slot]
				}
				if ri < 0 {
					ri = int32(len(bs.reqs))
					bs.reqs = append(bs.reqs, b.probeReq(page))
				}
			}
			p.read = ri
		}
		err := b.read(bs.reqs[first:])
		b.joinDevice()
		if err != nil {
			return err
		}

		// Phase C: resolve each probe against its (deduped) page image,
		// the slice the device handed back, in page order.
		for _, w := range bs.packed {
			p := &bs.pending[w&(1<<pendBits-1)]
			j := bits.Len64(p.mask) - 1
			p.mask &^= 1 << j
			if p.st.resolveProbe(&results[p.idx], bs.reqs[p.read].P, p.kh) {
				p.mask = 0 // found: stop probing this key
			}
		}
		// Retire resolved keys, keep the rest for the next round.
		live := bs.pending[:0]
		for _, p := range bs.pending {
			if p.mask != 0 {
				live = append(live, p)
				continue
			}
			b.stats.recordLookup(results[p.idx])
			if resolved != nil && results[p.idx].Found {
				bs.hits = append(bs.hits, p.idx)
			}
		}
		bs.pending = live
		if err := bs.report(resolved); err != nil {
			return err
		}
		bs.packed, bs.reqs, bs.sent = bs.packed[:0], bs.reqs[:0], 0
		for pi := range bs.pending {
			b.gather(pi, false)
		}
	}
	return nil
}

// report hands the step's hits, if any, to resolved.
func (bs *batchScratch) report(resolved func(hits []int) error) error {
	if len(bs.hits) == 0 {
		return nil
	}
	err := resolved(bs.hits)
	bs.hits = bs.hits[:0]
	return err
}
