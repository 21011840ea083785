package core

import (
	"fmt"
	"slices"

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
//	             into a pooled buffer and staged. A flush first writes the
//	             images an earlier call left held (see B), so an instance
//	             holds at most one set. A batch of more than one
//	             key finds its repeated keys with the lookup pipeline's
//	             batch-scoped key table, and a repeat whose super table
//	             has not flushed since its key's latest full insert finds
//	             the key buffered: it collapses to a last-write-wins value
//	             overwrite, skipping the delete-list delete and the
//	             (idempotent) Bloom staging add while still charging a full
//	             insert's CPU costs and counters.
//	B (write):   the deferred CPU debt lands on the clock in one advance.
//	             On a device on the CPU's own clock (the default
//	             Config.DeviceClock) the staged images — every flush the
//	             batch triggered — are then address-sorted and issued as
//	             one device WriteBatch submission, overlapping their
//	             service across the device's queue lanes (SSD NCQ
//	             channels, disk elevator); the call waits for it, and the
//	             image buffers return to the pool. Each key's cuckoo
//	             insert, CPU.BufferInsert, and each flush's serialization,
//	             CPU.FlushSerialize, are in the call's debt.
//	             On a device with timelines of its own the debt holds
//	             only the Bloom staging adds and the rest of phase A's
//	             bookkeeping, and the call acknowledges once it lands:
//	             every key is in its staging filter, and its
//	             CPU.BufferInsert is pending work the instance owes (see
//	             pendingWork), a pending set a lookup that probes the
//	             buffer pays CPU.BatchCoalesce to check. The call writes
//	             nothing either: the staged images stay held in DRAM, the
//	             incarnations they become are live at once (a lookup reads
//	             their pages in the held buffers), and their serialization
//	             is owed work, queued after the inserts before the flush
//	             and ahead of those after it. Each later wait for the
//	             device (Wait: a lookup's probing rounds, and the clam
//	             facade's value-log reads and appends) does the work in
//	             that order in the gap the CPU would idle through, as much
//	             as fits, and the first call to close (WriteBehind) once
//	             none is owed issues the held images as one address-sorted
//	             WriteBatch, without waiting for it: later submissions to
//	             the SSDs it reaches queue behind it. The next InsertBatch,
//	             DeleteBatch and Flush first land the inserts left as a
//	             plain advance. A second flush, and Flush, land the owed
//	             work left as a plain advance and write the held set
//	             first, the second flush without waiting for it, Flush
//	             waiting.
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
// sees exactly the bytes the device will eventually hold. A held set is
// written before any flush scans, so a scan never meets a held image.

// insertScratch is reusable InsertBatch state, grown on demand and reused
// across calls (BufferHash is single-caller by contract).
type insertScratch struct {
	// The batch's distinct keys, and for each first occurrence's
	// position, its super table's flushGen after the key's latest full
	// insert.
	distinct keyTable
	gen      []uint64
	reqs     []storage.WriteReq // writeStaged submission scratch
}

// InsertBatch applies len(keys) inserts through the insert pipeline.
// State, structural counters and all subsequent lookups match one-key
// Insert calls over the same (key, value) sequence exactly; virtual time is
// lower because the batch's flush writes are issued as one address-sorted
// overlapped submission and its CPU charges land on the clock in one
// advance. On a device with timelines of its own the keys' buffer inserts
// are pending work and the flushes' images are held instead, done in
// later device waits and written behind a later call (see pendingWork
// and WriteBehind). On error
// the batch may be partially applied; any writes already staged are still
// issued, or held, so the device matches the structure's bookkeeping, and
// a failed submission drops its images (see writeStaged).
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
	b.landInserts()
	is := &b.insert
	batch := len(keys) > 1
	if batch {
		is.distinct.reset()
		is.gen = slices.Grow(is.gen[:0], len(keys))[:len(keys)]
	}

	// Phase A: apply every key in input order with writes deferred. A
	// repeat whose table has not flushed since its key's latest full
	// insert finds the key buffered: its insert is a pure overwrite.
	var applyErr error
	for i, key := range keys {
		st, kh := b.route(key)
		b.stats.Inserts++
		f := i
		if batch {
			if first := is.distinct.first(keys, i); first >= 0 {
				f = int(first)
			}
		}
		old, err := st.insert(kh, values[i], f < i && is.gen[f] == st.flushGen)
		if err != nil {
			applyErr = err
			break
		}
		if displaced != nil {
			displaced[i] = old
		}
		if batch {
			is.gen[f] = st.flushGen
		}
	}

	// Phase B: one clock advance for the whole batch's memory work, then
	// every staged flush write, overlapped, or on a device with timelines
	// of its own the staged images held for the write-behind.
	b.settleCPUDebt()
	var writeErr error
	if b.behind {
		b.held = len(b.staged) > 0
	} else {
		writeErr = b.writeStaged(true)
	}
	if applyErr != nil {
		return applyErr
	}
	return writeErr
}

// DeleteBatch applies len(keys) lazy deletes (§5.1.1). Deletes perform no
// I/O, so batching only amortizes the CPU clock charges into one advance;
// counters and state match one-key Delete calls exactly. The pending
// inserts land first (see pendingWork), so a delete applies after them. displaced is nil
// or has len(keys), and receives each key's removed buffer word as in
// InsertBatch.
func (b *BufferHash) DeleteBatch(keys, displaced []uint64) error {
	if displaced != nil && len(displaced) != len(keys) {
		return fmt.Errorf("core: DeleteBatch: %d keys, %d displaced", len(keys), len(displaced))
	}
	b.epoch++
	b.landInserts()
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
