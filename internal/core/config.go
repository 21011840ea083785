// Package core implements BufferHash, the paper's primary contribution
// (§5): a flash-friendly hash table built from partitioned super tables,
// each holding an in-DRAM cuckoo-hash buffer, a circular table of k in-flash
// incarnations, and per-incarnation Bloom filters organized bit-sliced with
// a sliding window.
//
// BufferHash is not safe for concurrent use; the clam facade serializes
// access.
//
// # Time model
//
// The package operates in virtual time, and this section is the one
// statement of its rules; the pipelines, fields and functions follow it.
// Every operation accrues its CPU charges (Config.CPU) into a CPU debt,
// which lands on the configured vclock.Clock in one advance before the
// operation's next device submission or at its end, so callers measure an
// operation by reading the clock around the call (the clam package does
// exactly that). The device runs on timelines of its own,
// Config.DeviceClock, one per SSD it spans, each serving its share of a
// submission; the instance keeps them, with its issue and join
// bookkeeping, as one vclock.Timelines.
//
//   - Issue lands the debt. A submission cannot start before the CPU work
//     that issued it: every issue first lands the operation's CPU debt on
//     the clock, then moves every timeline up to the clock
//     (vclock.Timelines.Issue), and records where the submission ended on
//     the timelines it reached (Timelines.Reached).
//   - Join. An operation that uses a submission's result waits for it
//     (Wait, until Timelines.Due): the clock moves up to the latest end
//     among the timelines its submissions since the last join reached, and
//     no further. A timeline busy with work the operation did not reach
//     holds it back only where one of its submissions queued behind it.
//   - Put work runs in waits. Each buffer insert's CPU.BufferInsert and
//     each flush's CPU.FlushSerialize is queued as pending work, in the
//     order the CPU does it (see pendingWork). A wait does as much of it as
//     fits in the gap the CPU would idle through, in that order
//     (Stats.InsertCPUHidden, FlushCPUHidden): first the work owed before
//     the held set's write (the inserts queued before its flush, then its
//     serialization), then the inserts after it. The next
//     InsertBatch, DeleteBatch or Flush first lands every pending insert
//     as a plain advance (Stats.InsertCPULanded), so deletes apply after
//     inserts and an instance owes at most one call's inserts; a held set's
//     serialization stays owed until its write.
//   - Only where the charges land moves. The host applies every insert and
//     serializes every image at once, so answers, counters and device
//     requests are those of the blocking model below.
//
// On a device on the CPU's own clock (Config.DeviceClock nil) device time
// and CPU time add up: the device is idle at every CPU instant and
// completes each submission as it is issued, so a join is immediate and a
// wait has no gap to fill. This is the paper's design point that flash
// I/Os are blocking operations (§5.2): every write, image read and probing
// round waits for the device, and InsertBatch lands its queued put work,
// then writes its flushes' images and waits for them, in its own call,
// with nothing held or pending afterwards.
//
// On a device with timelines of its own the CPU and the device overlap:
//
//   - A lookup batch's first probing round may start while phase A runs:
//     phase A hands each idle SSD its pages a lane group at a time (see
//     batch.go).
//   - InsertBatch acknowledges once its keys are in their staging Bloom
//     filters (it pays CPU.BloomAdd per key): the (key, value) pairs wait
//     in DRAM for the CPU to apply them, 16 B each in
//     MemoryFootprint.PendingBytes. A lookup that probes a buffer while
//     inserts are pending also pays CPU.BatchCoalesce to check that pending
//     set; a key its staging filter rules out cannot be in it.
//   - Flushes leave the call: their images are the held set, kept in DRAM
//     (MemoryFootprint.PendingBytes), where lookups read their pages
//     (Stats.PendingProbes). The first call to close once the work owed
//     before the write is done issues it as one address-sorted WriteBatch
//     and does not wait for it (WriteBehind); later submissions to the
//     SSDs it reaches queue behind it. A second flush, which may need a
//     held image's slot, and Flush land the owed work left as a plain
//     advance (Stats.FlushCPULanded) and write the held set first, so an
//     instance holds at most one, and Flush waits for every write.
//
// This is how an LSM store applies a memtable's updates and flushes an
// immutable memtable in the background (O'Neil et al., "The
// Log-Structured Merge-Tree", 1996).
//
// # Pipelines
//
// Each operation kind has one pipeline, and the per-key calls are its
// one-key case. A lookup (§5.1.1: buffer, Bloom filters, then newest-first
// page probes) runs through LookupBatch: phase A answers every key's
// in-memory portion with zero I/O and gathers the first probing round,
// each SSD's pages apart, and hands an SSD that is idle a lane group of
// its pages, one page per queue lane, earliest gathered first, as soon as
// it holds one, together with the pages of every other idle SSD. Every
// lookup runs phase A in one order: one query of its super table's k+1
// Bloom filters (§5.1.3), the k incarnations' and the buffer's, and then a
// buffer probe only when the buffer's filter may hold the key, or an
// incarnation's may and the table has pending deletes, so a key no filter
// may hold is a miss with no probe and a flash-only key gathers its page
// right after the query. Each
// probing round reads its keys' pages through one page-read set
// (storage.PageReads), each distinct page once: phase B submits those not
// yet submitted as one address-sorted device ReadBatch, whose virtual
// latency overlaps across the device's queue lanes (one of more pages than
// the lanes also reads through small holes between them, see
// storage.PageReads), and phase C resolves
// the round's keys against their pages' views, newest-first, stopping at
// the first hit. Lookup is a one-key LookupBatch; see batch.go.
//
// A store may spend part of its DRAM on a hot-entry cache
// (Config.CacheEntries): in a read run, a lookup call that no write has
// preceded since the previous one ended, phase A checks every distinct
// key against it before the delete list, buffer and Bloom filters, and a
// cached key is a final hit with no further work. Every write bumps a
// write epoch and an entry answers only at the epoch it was filled in, so
// the cache answers exactly what the lookup it skips would, and a
// workload that writes between its lookups never probes, fills or pays
// for it. See hotcache.go.
//
// An insert (a buffer write that may flush the full buffer as a new
// incarnation) runs through InsertBatch: keys apply in input order with
// every flush's image staged in a pooled buffer (a repeated key still
// buffered is overwritten in place), and the staged images are then
// issued as one address-sorted device WriteBatch submission, or held for
// a later call to write behind. Insert is a one-key InsertBatch and Delete
// a one-key DeleteBatch; Flush stages and writes one super table at a
// time. See insertbatch.go.
//
// A batch of n keys leaves the same state, counters and results as n
// one-key calls (a lookup batch, as n calls over distinct keys, on a store
// without a hot-entry cache, whose hits depend on how a read run's keys
// are grouped into calls); only virtual time and the physical I/O count
// (page dedupe, same-slot write collapse, probes of held images) differ.
//
// Two consequences of the single pipeline are part of the model:
//
//   - Eviction cascades overlap. When a partial-discard flush cascades
//     (re-inserted survivors refill the fresh buffer and the next oldest
//     incarnation is evicted, §7.4), every image of the cascade is staged
//     and written as one overlapped submission, even under a one-key
//     Insert, instead of paying each image's full write in turn. Counters
//     and lookups are unchanged; the cascading insert finishes sooner in
//     virtual time.
//   - A failed write submission drops every image it carried (see
//     writeStaged): their incarnations are never probed or scanned, and
//     their keys read as misses until written again or until every older
//     incarnation has been evicted, even when the write ran behind a later
//     call, after the inserts were acknowledged. A lookup may miss after a
//     device write fault, but never returns a value older than the latest
//     acknowledged one.
package core

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hashutil"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// EvictionPolicy selects what happens to the oldest incarnation when space
// is needed (§5.1.2).
type EvictionPolicy int

// Eviction policies.
const (
	// FIFO evicts the oldest incarnation wholesale (full discard). This is
	// the paper's default and the policy commercial WAN optimizers use.
	FIFO EvictionPolicy = iota
	// LRU is FIFO plus re-insertion of items on every flash hit, so
	// recently used items survive in newer incarnations.
	LRU
	// UpdateBased is partial discard retaining only live entries: those
	// not deleted and not superseded by a newer version (checked against
	// the delete list and the in-memory Bloom filters).
	UpdateBased
	// PriorityBased is partial discard retaining the live entries (as
	// UpdateBased judges them) that the Retain callback approves (e.g.
	// priority above a threshold).
	PriorityBased
)

// String returns the policy name.
func (p EvictionPolicy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	case UpdateBased:
		return "update"
	case PriorityBased:
		return "priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Layout selects how incarnations are placed on the device (§5.2).
type Layout int

// Layouts.
const (
	// AutoLayout picks by eviction policy: SharedLog under FIFO and LRU,
	// PartitionedRegions under UpdateBased and PriorityBased, whose
	// eviction scan runs inside the evicting super table.
	AutoLayout Layout = iota
	// SharedLog writes incarnations from all super tables sequentially
	// into one device-wide circular log, the paper's SSD strategy: it
	// avoids interleaving per-partition write streams, which SSD FTLs
	// handle poorly. Eviction is FIFO over the whole key space.
	SharedLog
	// PartitionedRegions statically assigns each super table a circular
	// region of NumIncarnations slots, rewritten in place as the ring
	// wraps: the paper's file-per-partition implementation (§7.1).
	PartitionedRegions
)

// CPUCosts models the in-memory computation costs charged to the virtual
// clock. Defaults are calibrated so that the paper's headline averages
// (≈0.006 ms inserts, ≈0.06 ms lookups at 40% LSR on the Intel SSD, §7.2.1)
// are reproduced.
type CPUCosts struct {
	BufferInsert    time.Duration // cuckoo insert incl. partition hashing
	BufferLookup    time.Duration // cuckoo get + delete-list check
	BloomAdd        time.Duration // staging filter update
	BloomQuery      time.Duration // bit-sliced query over all incarnations
	BloomQueryNaive time.Duration // query without bit-slicing (§7.3.1 ablation)
	FlushSerialize  time.Duration // serialize + reset one buffer
	EvictScanEntry  time.Duration // per-entry partial-discard scan work
	BatchCoalesce   time.Duration // LookupBatch's dedupe probe that finds a key the batch already gave
	CacheProbe      time.Duration // a read run's hot-cache probe of one distinct key
	CacheFill       time.Duration // a read run's hot-cache fill with one hit
}

// DefaultCPUCosts returns the calibrated cost model.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		BufferInsert:    3 * time.Microsecond,
		BufferLookup:    1500 * time.Nanosecond,
		BloomAdd:        300 * time.Nanosecond,
		BloomQuery:      500 * time.Nanosecond,
		BloomQueryNaive: 2500 * time.Nanosecond,
		FlushSerialize:  1500 * time.Microsecond,
		EvictScanEntry:  150 * time.Nanosecond,
		// The host cost of one dedupe probe over that of one phase-A
		// lookup (BenchmarkCoalesceProbe over BenchmarkPhaseA, 18.8 /
		// 72.2 ns when the probe ran in the clam router over a whole
		// batch), times the 2.0 µs phase A is charged. Per shard run in
		// phase A the probe reads 13.9 / 71.3 ns (about 390 ns); the price
		// stays, so that moving the probe moved only where it is charged.
		BatchCoalesce: 520 * time.Nanosecond,
		// The hot-entry cache's host costs over phase A's, times phase
		// A's 2.0 µs: BenchmarkHotCache against BenchmarkPhaseA, medians
		// of 16 alternating runs. A fill reads 8.5 / 68.2 ns (250 ns). A
		// read run's probe loop reads 23.1 ns per key with 0.278 fills
		// per key; less those fills, a probe is 20.7 / 68.2 ns (610 ns).
		CacheProbe: 610 * time.Nanosecond,
		CacheFill:  250 * time.Nanosecond,
	}
}

// Config assembles a BufferHash instance.
type Config struct {
	// Device stores the incarnation tables. Its capacity must hold
	// NumSuperTables() × NumIncarnations images of BufferBytes each.
	Device storage.Device
	// Clock is the virtual clock the CPU charges land on, and the one a
	// caller reads to time an operation.
	Clock *vclock.Clock
	// DeviceClock is the set of clocks Device was built on, the device's
	// timelines: one for a single SSD, one per member SSD for a stripe
	// over several (storage.Stripe), each of which serves its own share of
	// a submission. With several timelines, Device must be a
	// storage.MemberDevice of as many members, member m on DeviceClock[m].
	// nil means Clock, a device on the CPU's own clock. The package doc's
	// time model says how submissions are issued and joined on them, and
	// what the instance does while it waits.
	DeviceClock []*vclock.Clock

	// PartitionBits is k1: the number of super tables is 2^k1 (§5.2).
	PartitionBits uint
	// BufferBytes is B′, the per-super-table buffer size. It must be a
	// multiple of the device page size; the paper's default is 128 KB
	// (§6.4: match the flash block size).
	BufferBytes int
	// NumIncarnations is k, the incarnations per super table; the paper's
	// configuration yields k = F/B = 16 (§7.1.1).
	NumIncarnations int

	// FilterBitsPerEntry sizes each incarnation's Bloom filter as
	// FilterBitsPerEntry × (entries per buffer). 16 bits/entry matches the
	// paper's candidate configuration. Ignored if DisableBloom.
	FilterBitsPerEntry int
	// FilterHashes overrides the number of hash functions; 0 = optimal
	// h = (m/n)·ln2 (§6.2).
	FilterHashes int

	// CacheEntries sizes the hot-entry cache (see hotcache.go): 0 for
	// none, else a power of two of at least 2. Each entry takes
	// CacheEntryBytes of DRAM.
	CacheEntries int

	// Policy is the eviction policy; Retain is consulted by
	// PriorityBased eviction (return true to keep the entry).
	Policy EvictionPolicy
	Retain func(key, value uint64) bool

	// Layout selects device placement; AutoLayout is recommended.
	Layout Layout

	// Seed makes hashing deterministic.
	Seed uint64

	// CPU is the in-memory cost model; zero value = DefaultCPUCosts.
	CPU CPUCosts

	// DisableBloom turns off Bloom filters (§7.3.1 ablation): every live
	// incarnation is probed until the key is found. Partial discard then
	// cannot tell a live entry from a superseded one and discards every
	// scanned entry.
	DisableBloom bool
	// DisableBitslice prices every Bloom query at CPU.BloomQueryNaive,
	// the cost of probing k+1 separate filters, instead of CPU.BloomQuery
	// (§7.3.1 ablation). The bank stays bit-sliced, so answers, counters
	// and memory are unchanged; only the clock runs further.
	DisableBitslice bool
}

// NumSuperTables returns 2^PartitionBits.
func (c Config) NumSuperTables() int { return 1 << c.PartitionBits }

// EntriesPerBuffer returns n′, the entry capacity of one buffer at the 50%
// cuckoo utilization cap.
func (c Config) EntriesPerBuffer() int {
	return c.BufferBytes / hashutil.EntrySize / 2
}

// FilterBits returns m′, the Bloom bits per incarnation filter.
func (c Config) FilterBits() uint64 {
	return uint64(c.FilterBitsPerEntry) * uint64(c.EntriesPerBuffer())
}

// filterHashes resolves the hash count.
func (c Config) filterHashes() int {
	if c.FilterHashes > 0 {
		return c.FilterHashes
	}
	return costmodel.OptimalHashes(c.FilterBits(), c.EntriesPerBuffer())
}

func (c *Config) validate() error {
	if c.Device == nil || c.Clock == nil {
		return fmt.Errorf("core: Device and Clock are required")
	}
	if c.PartitionBits > 24 {
		return fmt.Errorf("core: PartitionBits %d too large", c.PartitionBits)
	}
	if c.NumIncarnations < 1 || c.NumIncarnations > 64 {
		return fmt.Errorf("core: NumIncarnations %d out of [1,64]", c.NumIncarnations)
	}
	g := c.Device.Geometry()
	if c.BufferBytes <= 0 || c.BufferBytes%g.PageSize != 0 {
		return fmt.Errorf("core: BufferBytes %d must be a positive multiple of the device page size %d",
			c.BufferBytes, g.PageSize)
	}
	if !c.DisableBloom && c.FilterBitsPerEntry <= 0 {
		return fmt.Errorf("core: FilterBitsPerEntry must be positive (got %d)", c.FilterBitsPerEntry)
	}
	if c.CacheEntries != 0 && (c.CacheEntries < 2 || c.CacheEntries&(c.CacheEntries-1) != 0) {
		return fmt.Errorf("core: CacheEntries %d is neither 0 nor a power of two of at least 2", c.CacheEntries)
	}
	if c.Policy < FIFO || c.Policy > PriorityBased {
		return fmt.Errorf("core: unknown eviction policy %d", int(c.Policy))
	}
	if c.Policy == PriorityBased && c.Retain == nil {
		return fmt.Errorf("core: PriorityBased eviction requires a Retain callback")
	}
	need := int64(c.NumSuperTables()) * int64(c.NumIncarnations) * int64(c.BufferBytes)
	if need > g.Capacity {
		return fmt.Errorf("core: device capacity %d < required %d (%d super tables × %d incarnations × %d B)",
			g.Capacity, need, c.NumSuperTables(), c.NumIncarnations, c.BufferBytes)
	}
	if c.CPU == (CPUCosts{}) {
		c.CPU = DefaultCPUCosts()
	}
	if len(c.DeviceClock) == 0 {
		c.DeviceClock = []*vclock.Clock{c.Clock}
	}
	return nil
}

// layout resolves AutoLayout. FIFO/LRU use the shared circular log of
// §5.2; the partial-discard policies use per-partition rings, because
// their eviction scan must run in the evicting super table — this matches
// the paper's actual implementation, which kept "each partition in a
// separate file with all its incarnations" (§7.1).
func (c Config) layout() Layout {
	if c.Layout != AutoLayout {
		return c.Layout
	}
	if c.Policy == UpdateBased || c.Policy == PriorityBased {
		return PartitionedRegions
	}
	return SharedLog
}
