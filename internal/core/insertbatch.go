package core

import (
	"fmt"

	"repro/internal/storage"
)

// The insert pipeline — the write-side twin of the lookup pipeline in
// batch.go, and the only insert path: Insert is its one-key case. Instead
// of one blocking incarnation write per flush, an insert batch runs in
// two phases:
//
//	A (apply):   every key's buffer update — delete-list revival, cuckoo
//	             insert, Bloom staging — and every flush's *bookkeeping*
//	             (eviction cascades, slot placement, filter-bank rotation,
//	             buffer reset, counters) run in input order, with CPU
//	             charges accrued into one deferred clock advance. Only the
//	             flush's device write is withheld: the image is serialized
//	             into a pooled buffer and staged. Duplicate keys whose first
//	             occurrence is still in the buffer are memoized: the
//	             occurrence collapses to a last-write-wins value overwrite,
//	             skipping the delete-list probe and the (idempotent) Bloom
//	             staging add while still charging a full insert's CPU costs
//	             and counters.
//	B (write):   the deferred CPU debt lands on the clock in one advance;
//	             then the staged images — every flush the batch triggered —
//	             are address-sorted and issued as one device WriteBatch
//	             submission, overlapping their service across the device's
//	             queue lanes (SSD NCQ channels, disk elevator), and
//	             the image buffers return to the pool.
//	             Shared-log layouts allocate consecutive slots, so a
//	             batch's flushes form sequential runs that pay the fixed
//	             write cost once.
//
// Phase A applies keys in *input order* rather than super-table order, and
// that is a correctness requirement, not a convenience: the shared-log
// layout assigns flush slots from one global cursor and reclaims them FIFO
// across all super tables, so the global interleaving of flushes decides
// which incarnations survive. Reordering keys by super table would replay
// the same per-table flush sequences against a different global slot
// history and diverge from one-key inserts in both eviction counters and
// post-state lookups. Applying in input order makes every structural
// counter and every subsequent lookup identical to one-key Insert calls
// over the same keys (the differential oracles pin this); only the device
// time model — and the physical write pattern, via sorting and same-slot
// collapsing — improves.
//
// Partial-discard policies may need to scan an incarnation whose write is
// still staged (a cascade, or a slot ring that wrapped within one batch);
// readImage serves those addresses from the staged buffers, so the scan
// sees exactly the bytes the device will eventually hold.

// insertMemo caches one distinct key's buffer residency so duplicates
// collapse to a value overwrite. An entry is valid only while its super
// table's flushGen is unchanged — a flush moves the buffered entry into an
// incarnation, and the next occurrence must take the full insert path.
type insertMemo struct {
	key      uint64
	epoch    uint32
	table    int32
	flushGen uint64
}

const memoSlots = 512 // power of two

// insertScratch is reusable InsertBatch state, grown on demand and reused
// across calls (BufferHash is single-caller by contract).
type insertScratch struct {
	memo  []insertMemo // direct-mapped, memoSlots entries
	epoch uint32
	reqs  []storage.WriteReq // flushStaged submission scratch
}

// InsertBatch applies len(keys) inserts through the insert pipeline.
// State, structural counters and all subsequent lookups match one-key
// Insert calls over the same (key, value) sequence exactly; virtual time is
// lower because the batch's flush writes are issued as one address-sorted
// overlapped submission and its CPU charges land on the clock in one
// advance. On error the batch may be partially applied; any writes already
// staged are still issued so the device matches the structure's
// bookkeeping, and a failed submission drops its images (see flushStaged).
//
// displaced is nil or has len(keys): displaced[i] receives the value word
// key i's insert overwrote in its DRAM buffer, 0 when the key was not
// buffered (a key whose value flushed is overwritten silently). The byte
// API retires the value-log record a displaced pointer addressed. Keys
// the batch did not reach on error keep their displaced word.
func (b *BufferHash) InsertBatch(keys, values, displaced []uint64) error {
	if len(keys) != len(values) || displaced != nil && len(displaced) != len(keys) {
		return fmt.Errorf("core: InsertBatch: %d keys, %d values, %d displaced", len(keys), len(values), len(displaced))
	}
	b.epoch++
	is := &b.insert
	if is.memo == nil {
		is.memo = make([]insertMemo, memoSlots)
	}
	is.epoch++
	if is.epoch == 0 { // wrapped: stale entries could look current
		clear(is.memo)
		is.epoch = 1
	}
	cfg := &b.cfg

	// Phase A: apply every key in input order with writes deferred. The
	// first key skips the memo probe and the last key the memo record.
	var applyErr error
	last := len(keys) - 1
	for i, key := range keys {
		st, kh := b.route(key)
		b.stats.Inserts++
		slot := &is.memo[key&(memoSlots-1)]
		if i > 0 && slot.epoch == is.epoch && slot.key == key &&
			int(slot.table) == st.idx && slot.flushGen == st.flushGen {
			// Duplicate within the current flush epoch: the key is still in
			// the buffer, so this occurrence is a pure last-write-wins
			// overwrite — it cannot fill the buffer, its delete-list entry
			// was removed by the first occurrence, and re-adding it to the
			// Bloom staging filter would set the same bits. Charge what a
			// full insert would and overwrite the value.
			b.chargeCPU(cfg.CPU.BufferInsert)
			old, err := st.buf.Insert(kh, values[i])
			if err != nil {
				applyErr = fmt.Errorf("core: buffer insert: %w", err)
				break
			}
			if displaced != nil {
				displaced[i] = old
			}
			if st.bank != nil {
				b.chargeCPU(cfg.CPU.BloomAdd)
			}
			continue
		}
		old, err := st.insert(kh, values[i])
		if err != nil {
			applyErr = err
			break
		}
		if displaced != nil {
			displaced[i] = old
		}
		if i < last {
			*slot = insertMemo{key: key, epoch: is.epoch, table: int32(st.idx), flushGen: st.flushGen}
		}
	}

	// Phase B: one clock advance for the whole batch's memory work, then
	// every staged flush write, overlapped.
	b.settleCPUDebt()
	writeErr := b.flushStaged()
	if applyErr != nil {
		return applyErr
	}
	return writeErr
}

// DeleteBatch applies len(keys) lazy deletes (§5.1.1). Deletes perform no
// I/O, so batching only amortizes the CPU clock charges into one advance;
// counters and state match one-key Delete calls exactly. displaced is nil
// or has len(keys), and receives each key's removed buffer word as in
// InsertBatch.
func (b *BufferHash) DeleteBatch(keys, displaced []uint64) error {
	if displaced != nil && len(displaced) != len(keys) {
		return fmt.Errorf("core: DeleteBatch: %d keys, %d displaced", len(keys), len(displaced))
	}
	b.epoch++
	for i, key := range keys {
		st, kh := b.route(key)
		b.stats.Deletes++
		old := st.del(kh)
		if displaced != nil {
			displaced[i] = old
		}
	}
	b.settleCPUDebt()
	return nil
}
