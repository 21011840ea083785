package core

import (
	"fmt"
	"time"

	"repro/internal/cuckoo"
)

// entry is a (key, value) pair staged for re-insertion during partial
// discard.
type entry struct {
	k, v uint64
}

// incarnation is the in-memory metadata for one in-flash incarnation: its
// flash address (kept "along with their Bloom filters", §5.2) and a global
// sequence number used by the shared-log layout to match log slots to
// incarnations.
type incarnation struct {
	addr int64
	seq  uint64
}

// superTable is one partition of BufferHash (§5.1): an in-memory buffer, k
// in-flash incarnations, their Bloom filters, and a delete list.
type superTable struct {
	owner *BufferHash
	idx   int

	buf  *cuckoo.Table
	bank filterBank // nil when Bloom filters are disabled

	// incs[j] is the incarnation at Bloom-bank window offset j; only
	// offsets j ≥ k-live hold live incarnations (j = k-live is the
	// oldest, j = k-1 the newest).
	incs []incarnation
	live int
	// dead marks window offsets whose incarnation write failed (see
	// dropFailedImage); they are never probed or scanned, and shift out
	// with the window.
	dead uint64

	// deleteList implements lazy deletion (§5.1.1): key → flush
	// generation at deletion time. Entries older than k flushes cannot
	// exist in any incarnation and are pruned.
	deleteList map[uint64]uint64
	flushGen   uint64
}

func newSuperTable(owner *BufferHash, idx int) *superTable {
	st := &superTable{
		owner: owner,
		idx:   idx,
		buf:   cuckoo.New(owner.tableParams(idx)),
		incs:  make([]incarnation, owner.cfg.NumIncarnations),
	}
	if !owner.cfg.DisableBloom {
		m := owner.cfg.FilterBits()
		h := owner.cfg.filterHashes()
		if owner.cfg.DisableBitslice {
			st.bank = newNaiveBank(m, owner.cfg.NumIncarnations, h)
		} else {
			st.bank = owner.newSliceBank(m, h)
		}
	}
	return st
}

// validMask returns the bitmask of window offsets holding live, readable
// incarnations.
func (st *superTable) validMask() uint64 {
	k := st.owner.cfg.NumIncarnations
	if st.live == 0 {
		return 0
	}
	var all uint64
	if k == 64 {
		all = ^uint64(0)
	} else {
		all = 1<<k - 1
	}
	return all &^ (1<<(k-st.live) - 1) &^ st.dead
}

// oldest returns the window offset of the oldest live incarnation.
func (st *superTable) oldest() int { return st.owner.cfg.NumIncarnations - st.live }

// evictOldestExternal is called by the shared-log layout when the log head
// overwrites this super table's oldest incarnation (global FIFO, §5.2).
// seq identifies the slot being reclaimed; a mismatch means the incarnation
// was already rotated out locally and nothing remains to do.
func (st *superTable) evictOldestExternal(seq uint64) {
	if st.live == 0 {
		return
	}
	if st.incs[st.oldest()].seq != seq {
		return
	}
	st.live--
	st.owner.stats.Evictions++
}

// lookupMem is the in-memory phase of a lookup (phase A of the pipeline):
// every step that needs no flash I/O. It charges the CPU costs, consults
// the delete list, the buffer and the Bloom bank, and returns the
// candidate-incarnation mask for the flash phase (bit j set = window offset
// j may hold the key). done reports the lookup resolved without I/O; a zero
// mask with done == false is a clean miss (Bloom filters excluded every
// incarnation).
func (st *superTable) lookupMem(kh uint64) (res LookupResult, mask uint64, done bool) {
	cfg := &st.owner.cfg
	st.owner.chargeCPU(cfg.CPU.BufferLookup)

	if _, deleted := st.deleteList[kh]; deleted {
		return res, 0, true
	}
	if v, ok := st.buf.Get(kh); ok {
		return LookupResult{Value: v, Found: true}, 0, true
	}
	if st.live == 0 {
		return res, 0, true
	}
	valid := st.validMask()
	if cfg.DisableBloom {
		return res, valid, false
	}
	if cfg.DisableBitslice {
		st.owner.chargeCPU(cfg.CPU.BloomQueryNaive)
	} else {
		st.owner.chargeCPU(cfg.CPU.BloomQuery)
	}
	return res, st.bank.Query(kh) & valid, false
}

// resolveProbe is the probe-resolution step of the lookup pipeline (phase
// C): account one incarnation page probe, search the page image for kh,
// and on a hit apply the LRU re-insertion semantics. It reports whether
// the key was found.
func (st *superTable) resolveProbe(res *LookupResult, pageImage []byte, kh uint64) bool {
	st.owner.stats.FlashProbes++
	res.FlashReads++
	v, ok := st.owner.tableParams(st.idx).LookupInPage(pageImage, kh)
	if !ok {
		res.Spurious++
		return false
	}
	res.Value, res.Found = v, true
	if st.owner.cfg.Policy == LRU {
		st.reinsertLRU(kh, v)
	}
	return true
}

// reinsertLRU re-inserts an item used from flash so it survives the next
// FIFO eviction (§5.1.2). Per the paper this happens asynchronously without
// blocking lookups, so no latency is charged here; the cost materializes as
// more frequent buffer flushes. If the buffer is full the re-insertion is
// skipped (the item merely loses its recency boost).
func (st *superTable) reinsertLRU(kh, v uint64) {
	if st.buf.Full() {
		return
	}
	if st.buf.Insert(kh, v) == nil {
		if st.bank != nil {
			st.bank.AddStaging(kh)
		}
		st.owner.stats.LRUReinserts++
	}
}

// insert implements §5.1.1: values go to the buffer; a full buffer is
// flushed to flash as a new incarnation first.
func (st *superTable) insert(kh, v uint64) error {
	cfg := &st.owner.cfg
	st.owner.chargeCPU(cfg.CPU.BufferInsert)
	delete(st.deleteList, kh) // a fresh insert revives a deleted key

	err := st.buf.Insert(kh, v)
	if err == cuckoo.ErrFull {
		if err := st.flush(); err != nil {
			return err
		}
		err = st.buf.Insert(kh, v)
	}
	if err != nil {
		return fmt.Errorf("core: buffer insert: %w", err)
	}
	if st.bank != nil {
		st.owner.chargeCPU(cfg.CPU.BloomAdd)
		st.bank.AddStaging(kh)
	}
	return nil
}

// del implements lazy deletion (§5.1.1): remove from the buffer if still
// there, and record the key in the in-memory delete list consulted before
// every lookup.
func (st *superTable) del(kh uint64) {
	cfg := &st.owner.cfg
	st.owner.chargeCPU(cfg.CPU.BufferInsert)
	st.buf.Delete(kh)
	if st.deleteList == nil {
		st.deleteList = make(map[uint64]uint64)
	}
	st.deleteList[kh] = st.flushGen
}

// pruneDeletes drops delete-list entries old enough that no incarnation can
// still hold the key (the flash space was "reclaimed during incarnation
// eviction", §5.1.1).
func (st *superTable) pruneDeletes() {
	if len(st.deleteList) == 0 {
		return
	}
	k := uint64(st.owner.cfg.NumIncarnations)
	for key, gen := range st.deleteList {
		if st.flushGen-gen >= k {
			delete(st.deleteList, key)
		}
	}
}

// flush writes the full buffer to flash as a new incarnation, evicting the
// oldest incarnation if the super table already holds k (§5.1.2). Partial
// discard policies re-insert retained entries into the fresh buffer, which
// can cascade into further evictions (§7.4); after trying all k
// incarnations the oldest is force-discarded wholesale, exactly as the
// paper specifies.
func (st *superTable) flush() error {
	cfg := &st.owner.cfg
	var pending []entry
	forceFull := false
	tried := 0
	for iter := 0; ; iter++ {
		if iter > 2*cfg.NumIncarnations+4 {
			return fmt.Errorf("core: flush did not converge after %d iterations", iter)
		}
		if st.live == cfg.NumIncarnations {
			scanned, err := st.evictOldest(forceFull)
			if err != nil {
				return err
			}
			pending = append(pending, scanned...)
			tried++
			if tried >= cfg.NumIncarnations {
				forceFull = true
			}
		}
		if err := st.writeBufferAsIncarnation(); err != nil {
			return err
		}
		// Refill the fresh buffer with retained entries. Entries whose key
		// already has a newer version in the buffer are dropped.
		n := 0
		for n < len(pending) && !st.buf.Full() {
			e := pending[n]
			if _, ok := st.buf.Get(e.k); !ok {
				if err := st.buf.Insert(e.k, e.v); err != nil {
					break
				}
				if st.bank != nil {
					st.bank.AddStaging(e.k)
				}
				st.owner.stats.Reinserted++
			}
			n++
		}
		pending = pending[n:]
		// Done only when nothing is left to re-insert AND the buffer has
		// room for the insert that triggered this flush; a buffer exactly
		// filled by retained entries cascades into evicting the next
		// oldest incarnation (§7.4).
		if len(pending) == 0 && !st.buf.Full() {
			if tried > 0 {
				st.owner.stats.recordCascade(tried)
			}
			return nil
		}
		st.owner.stats.Cascades++
	}
}

// evictOldest removes the oldest incarnation. With full discard (FIFO, LRU,
// or a forced cascade cutoff) this is free of I/O. Partial discard reads
// the incarnation image back from flash, scans every entry, and returns the
// ones to retain (§5.1.2).
func (st *superTable) evictOldest(forceFull bool) ([]entry, error) {
	cfg := &st.owner.cfg
	j0 := st.oldest()
	inc := st.incs[j0]
	st.live--
	st.owner.stats.Evictions++

	// A dead incarnation's slot holds whatever an older write left there,
	// so it is discarded without a scan.
	full := forceFull || cfg.Policy == FIFO || cfg.Policy == LRU || st.dead&(1<<j0) != 0
	if full {
		return nil, nil
	}

	image, err := st.owner.readImage(inc.addr)
	if err != nil {
		return nil, err
	}
	defer st.owner.releaseImage(image)
	params := st.owner.tableParams(st.idx)
	newerMask := st.validMask() // offsets newer than j0 (live already decremented)
	var retained []entry
	entries := 0
	params.DecodeImage(image, func(k, v uint64) bool {
		entries++
		// Only a live entry may be retained: one not deleted and not
		// superseded by a newer version. Re-inserting a dead one would
		// shadow its newer version or resurrect its deleted key.
		if _, deleted := st.deleteList[k]; deleted {
			return true
		}
		if _, inBuf := st.buf.Get(k); inBuf {
			return true
		}
		if st.bank != nil {
			st.owner.chargeCPU(cfg.CPU.BloomQuery)
			if st.bank.Query(k)&newerMask != 0 || st.bank.QueryStaging(k) {
				// Possibly updated; discard. False positives evict a
				// live item (paper footnote 2) — semantically FIFO-safe.
				return true
			}
		}
		// UpdateBased retains every live entry, PriorityBased the live
		// entries Retain approves.
		if cfg.Policy == UpdateBased || cfg.Retain(k, v) {
			retained = append(retained, entry{k, v})
		}
		return true
	})
	st.owner.chargeCPU(time.Duration(entries) * cfg.CPU.EvictScanEntry)
	st.owner.stats.PartialScans++
	return retained, nil
}

// writeBufferAsIncarnation serializes the buffer into a pooled image
// buffer, stages its write at a layout-chosen address for the operation's
// closing WriteBatch, rotates the Bloom bank, and resets the buffer.
func (st *superTable) writeBufferAsIncarnation() error {
	cfg := &st.owner.cfg
	st.owner.chargeCPU(cfg.CPU.FlushSerialize)
	addr, seq, err := st.owner.placeImage(st)
	if err != nil {
		return err
	}
	img := st.owner.acquireImage()
	st.buf.Serialize(img)
	st.owner.stageWrite(stagedWrite{buf: img, addr: addr, st: st, seq: seq})
	if st.bank != nil {
		st.bank.Rotate()
	}
	copy(st.incs, st.incs[1:])
	st.incs[cfg.NumIncarnations-1] = incarnation{addr: addr, seq: seq}
	st.dead >>= 1
	if st.live < cfg.NumIncarnations {
		st.live++
	}
	st.buf.Reset()
	st.flushGen++
	st.owner.stats.Flushes++
	st.pruneDeletes()
	return nil
}

// dropFailedImage undoes what a lost incarnation write would expose. The
// incarnation, if still live, is marked dead: its slot holds an older
// image's bytes, which must never be probed or scanned. Every key of the
// lost image that has no newer version in the buffer is shadowed through
// the delete list at the current flush generation, because an older
// version may still sit in an older incarnation; pruneDeletes retires the
// entry once k further flushes have evicted all of those. A shadowed key
// reads as a miss until it is inserted again.
func (st *superTable) dropFailedImage(img []byte, seq uint64) {
	for j := st.oldest(); j < st.owner.cfg.NumIncarnations; j++ {
		if st.incs[j].seq == seq {
			st.dead |= 1 << j
		}
	}
	if st.deleteList == nil {
		st.deleteList = make(map[uint64]uint64)
	}
	st.owner.tableParams(st.idx).DecodeImage(img, func(kh, _ uint64) bool {
		if _, ok := st.buf.Get(kh); !ok {
			st.deleteList[kh] = st.flushGen
		}
		return true
	})
}
