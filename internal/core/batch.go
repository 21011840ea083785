package core

import (
	"fmt"
	"math/bits"
	"slices"

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
//	             they reach core, so a hot key's work is done once.
//	B (gather):  each probing round collects every unresolved key's single
//	             newest-candidate page probe, dedupes keys that land on the
//	             same flash page, sorts the probes by device address, and
//	             issues them as one device ReadBatch submission whose
//	             virtual latency overlaps across the device's queue lanes.
//	             The probes are view requests (storage.ReadReq.View): each
//	             carries only its page's range and the device hands back
//	             its stored page, so no page is reserved or copied.
//	C (resolve): each key searches its page image through resolveProbe —
//	             newest-first, stop on hit, one probe counted per page read
//	             on its behalf. Nothing writes the device between B and C,
//	             so the views stay valid while they are searched.
//
// Keys probe incarnations newest-first and stop at the first hit, so the
// per-key probe sequence — and therefore FlashProbes, SpuriousProbes,
// Lookups, Hits and LookupIOHist — does not depend on how keys are grouped
// into batches; only the device time model (and the physical read count,
// via page dedupe) does.

// batchKey is the per-key state of an in-flight batched lookup.
type batchKey struct {
	idx  int // index into the caller's keys/results
	st   *superTable
	kh   uint64
	mask uint64 // candidate window offsets not yet probed
}

// pendBits is the width of the pending-index field packed into a sorted
// probe word; LookupBatch takes at most 2^pendBits keys so the field fits.
const pendBits = 20

// batchScratch is reusable LookupBatch state. BufferHash is single-caller
// by contract (the clam facade serializes), so one scratch per instance
// suffices; everything is grown on demand and reused across calls.
type batchScratch struct {
	pending []batchKey
	packed  []uint64 // probe words: pageNo<<pendBits | pendingIndex
	reqs    []storage.ReadReq
	hits    []int // one step's newly resolved hits, for LookupBatch's resolved hook
}

// LookupBatch looks up len(keys) keys through the lookup pipeline, writing
// per-key outcomes into results (which must have the same length). Results
// and the structural counters match one-key Lookup calls over the same
// distinct keys key-for-key; virtual time is lower because each probing
// round's flash reads are deduped, sorted and overlapped through the
// device's ReadBatch (on a one-lane device the overlap degenerates to the
// sum of the reads, and the batch still benefits from dedupe and address
// ordering).
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
// results are unspecified.
func (b *BufferHash) LookupBatch(keys []uint64, results []LookupResult, resolved func(hits []int) error) error {
	if len(keys) != len(results) {
		return fmt.Errorf("core: LookupBatch: %d keys, %d results", len(keys), len(results))
	}
	if len(keys) > 1<<pendBits {
		return fmt.Errorf("core: LookupBatch: %d keys exceed the %d-key batch limit", len(keys), 1<<pendBits)
	}
	bs := &b.batch
	bs.pending = bs.pending[:0]

	// Phase A: resolve everything the DRAM side can answer. CPU costs are
	// accrued into one deferred charge and applied to the clock in a single
	// advance — the same virtual total as one-key lookups, without several
	// clock advances per key.
	for i, key := range keys {
		st, kh := b.route(key)
		res, mask, done := st.lookupMem(kh)
		results[i] = res
		if !done && mask != 0 {
			bs.pending = append(bs.pending, batchKey{idx: i, st: st, kh: kh, mask: mask})
			continue
		}
		b.stats.recordLookup(res)
		if resolved != nil && res.Found {
			bs.hits = append(bs.hits, i)
		}
	}
	b.settleCPUDebt()
	if err := bs.report(resolved); err != nil {
		return err
	}
	if len(bs.pending) == 0 {
		return nil
	}

	// All partitions share one probe length, so a probe is fully described
	// by its page number; New rejects devices whose page numbers would not
	// fit a packed probe word.
	probeN := b.probeN

	// Phases B+C: probing rounds. Every round reads at most one page per
	// pending key (its newest remaining candidate), so each key probes
	// newest-first.
	for len(bs.pending) > 0 {
		// Phase B: gather, sort, dedupe, issue.
		bs.packed = bs.packed[:0]
		for pi := range bs.pending {
			p := &bs.pending[pi]
			j := bits.Len64(p.mask) - 1
			addr := b.probeAddr(p.st, p.st.incs[j], p.kh)
			bs.packed = append(bs.packed, uint64(addr)/uint64(probeN)<<pendBits|uint64(pi))
		}
		slices.Sort(bs.packed)
		bs.reqs = bs.reqs[:0]
		lastPage := uint64(1)<<63 | 1 // sentinel no page number reaches
		for _, w := range bs.packed {
			page := w >> pendBits
			if page == lastPage {
				continue
			}
			lastPage = page
			bs.reqs = append(bs.reqs, storage.ReadReq{Off: int64(page) * int64(probeN), N: probeN, View: true})
		}
		if _, err := b.cfg.Device.ReadBatch(bs.reqs); err != nil {
			return fmt.Errorf("core: batched incarnation read: %w", err)
		}

		// Phase C: resolve each probe against its (deduped) page image,
		// the slice the device handed back.
		// bs.packed and bs.reqs share the address sort, so a linear merge
		// pairs them without a map.
		ri := 0
		for _, w := range bs.packed {
			addr := int64(w>>pendBits) * int64(probeN)
			for bs.reqs[ri].Off != addr {
				ri++
			}
			p := &bs.pending[w&(1<<pendBits-1)]
			j := bits.Len64(p.mask) - 1
			p.mask &^= 1 << j
			if p.st.resolveProbe(&results[p.idx], bs.reqs[ri].P, p.kh) {
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
