package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/cuckoo"
	"repro/internal/hashutil"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// LookupResult reports the outcome of a lookup and its flash I/O footprint,
// the quantity behind Table 2 of the paper.
type LookupResult struct {
	Value uint64
	Found bool
	// FlashReads is the number of incarnation pages read from flash.
	FlashReads int
	// Spurious counts reads that found nothing (Bloom false positives).
	Spurious int
}

// BufferHash is the partitioned data structure of §5.2: 2^k1 super tables,
// each owning a buffer, k incarnations and Bloom filters. Not safe for
// concurrent use.
type BufferHash struct {
	cfg    Config
	layout Layout
	parts  []*superTable
	params []cuckoo.Params // per-partition cuckoo parameters
	stats  Stats

	// routeSeed is Mix64(Config.Seed), the seed route folds into every key.
	routeSeed uint64
	// probeN is the byte length of one incarnation page probe, the same
	// for every partition (pages are sized by the device geometry).
	probeN int
	// lanes is the device's queue lane count over its timelines (at least
	// 1), one SSD's lanes for a stripe over two: a lane group, the pages
	// of its own an idle SSD must hold for LookupBatch's phase A to hand
	// it pages, and the most it hands each idle SSD at a time.
	lanes int

	// Shared-log layout state (§5.2: "uses the entire SSD as a single
	// circular list"): slot i holds the image written at seq slotSeq[i] by
	// partition slotOwner[i].
	slotOwner []int32
	slotSeq   []uint64
	nextSlot  int64
	seq       uint64

	imageSize int
	imgPool   [][]byte // free image-sized buffers (flush serialization, eviction scans)
	batch     batchScratch
	insert    insertScratch

	// staged holds the incarnation writes not issued yet: those of the
	// operation in progress, or, between calls, the held set (see held).
	// writeStaged issues them as one address-sorted, overlapped WriteBatch
	// submission. While a write is staged, readImage serves its address
	// from the staged buffer, so partial-discard scans see the bytes the
	// device will eventually hold, and a lookup probes a held image's
	// pages in DRAM (see gather).
	staged []stagedWrite

	// Write-behind (see insertbatch.go), on a device with timelines of its
	// own (behind): held reports that staged is the held set, the images
	// of the last InsertBatch call that flushed, whose write has not been
	// issued yet, and work is the CPU work put calls left that is not done
	// yet. Wait does it while the instance waits for the device.
	behind bool
	held   bool
	work   pendingWork

	// cpuDebt accrues the operation's CPU charges; settleCPUDebt lands
	// them on the clock in one advance.
	cpuDebt time.Duration

	// due is the instant at which the device submissions the operation
	// made and has not waited for yet end: the latest end among the
	// timelines each of them reached (see issueDevice and joinDevice).
	due time.Duration
	// issuedAt is issueDevice's scratch: the timelines' readings when the
	// last submission was issued.
	issuedAt []time.Duration

	// Lent dedupe (see Lend): the charge not landed yet, whether one is
	// pending, and the clock instant the last landed one ended.
	lent      time.Duration
	lending   bool
	lentReady time.Duration

	// cache is the hot-entry cache (it has no sets when
	// Config.CacheEntries is 0). epoch is the write epoch, bumped by every change of state but an LRU re-insertion, and
	// runEpoch the epoch the last lookup call ended at: a lookup call
	// that starts at runEpoch is in a read run (see hotcache.go).
	cache    hotCache
	epoch    uint64
	runEpoch uint64
}

// pendingWork is the CPU work an instance on a device with timelines of
// its own owes, in the order its CPU does it. The owed part comes first
// and must be done before the held set's write is issued: the buffer
// inserts (CPU.BufferInsert each) queued up to the held set's last
// serialization, then the serializations (CPU.FlushSerialize each). The
// inserts queued after that serialization follow, and delay no write.
// Wait does the work in this order; a write call first lands every
// insert, owed or not (see landInserts). The host applies every insert and serializes every image at once, so
// only where the charges land moves: the pending inserts model a put
// call's keys waiting in DRAM for the CPU to apply them, which its
// staging filters already cover (see superTable.probeBuffer).
type pendingWork struct {
	owedInserts time.Duration
	serialize   time.Duration
	inserts     time.Duration
}

// owed is the work to do before the held set's write is issued.
func (w *pendingWork) owed() time.Duration { return w.owedInserts + w.serialize }

// insertWork is the buffer-insert work not done yet, owed or not.
func (w *pendingWork) insertWork() time.Duration { return w.owedInserts + w.inserts }

// stagedWrite is one deferred incarnation write: the image, its address,
// and the incarnation it becomes (owning table and sequence number).
type stagedWrite struct {
	buf  []byte
	addr int64
	st   *superTable
	seq  uint64
}

// New builds a BufferHash over the configured device. The configuration is
// validated eagerly.
func New(cfg Config) (*BufferHash, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &BufferHash{
		cfg:       cfg,
		layout:    cfg.layout(),
		imageSize: cfg.BufferBytes,
		routeSeed: hashutil.Mix64(cfg.Seed),
		epoch:     1,
		behind:    len(cfg.DeviceClock) > 1 || cfg.DeviceClock[0] != cfg.Clock,
		issuedAt:  make([]time.Duration, len(cfg.DeviceClock)),
	}
	if cfg.CacheEntries > 0 {
		b.cache = newHotCache(cfg.CacheEntries)
	}
	nt := cfg.NumSuperTables()
	b.params = make([]cuckoo.Params, nt)
	g := cfg.Device.Geometry()
	b.lanes = max(g.Lanes/len(cfg.DeviceClock), 1)
	pageSlots := g.PageSize / hashutil.EntrySize
	for i := range b.params {
		b.params[i] = cuckoo.Params{
			NSlots:    cfg.BufferBytes / hashutil.EntrySize,
			PageSlots: pageSlots,
			Seed:      hashutil.Hash64Seed(uint64(i), cfg.Seed),
		}
		if err := b.params[i].Validate(); err != nil {
			return nil, err
		}
	}
	_, b.probeN = b.params[0].PageByteRange(0)
	pages, err := storage.NewPageReads(cfg.Device, b.probeN, len(cfg.DeviceClock) > 1)
	if err != nil {
		return nil, fmt.Errorf("core: probe pages: %w", err)
	}
	if n := len(cfg.DeviceClock); n > 1 && pages.Members() != n {
		return nil, fmt.Errorf("core: %d device timelines, but the device has %d members", n, pages.Members())
	}
	b.batch.pages = pages
	b.parts = make([]*superTable, nt)
	for i := range b.parts {
		b.parts[i] = newSuperTable(b, i)
	}
	if b.layout == SharedLog {
		slots := int64(nt) * int64(cfg.NumIncarnations)
		b.slotOwner = make([]int32, slots)
		b.slotSeq = make([]uint64, slots)
		for i := range b.slotOwner {
			b.slotOwner[i] = -1
		}
	}
	return b, nil
}

// Config returns the (validated) configuration.
func (b *BufferHash) Config() Config { return b.cfg }

// tableParams returns the cuckoo parameters of partition idx.
func (b *BufferHash) tableParams(idx int) cuckoo.Params { return b.params[idx] }

// maxPooledImages caps how many free image buffers are retained between
// batches; beyond that, buffers are dropped to the garbage collector so a
// pathological cascade's high-water mark is not held forever.
const maxPooledImages = 16

// acquireImage returns an image-sized buffer from the pool (or a fresh
// one). Flush serialization and eviction scans each own a distinct buffer
// until they release it, so a flush can never alias a scan in progress.
func (b *BufferHash) acquireImage() []byte {
	if n := len(b.imgPool); n > 0 {
		img := b.imgPool[n-1]
		b.imgPool = b.imgPool[:n-1]
		return img
	}
	return make([]byte, b.imageSize)
}

// releaseImage returns an image buffer to the pool.
func (b *BufferHash) releaseImage(img []byte) {
	if len(b.imgPool) < maxPooledImages {
		b.imgPool = append(b.imgPool, img)
	}
}

// stageWrite defers an incarnation write until the end of the operation.
// A second image staged at the same address replaces the first: the slot
// was recycled within the operation, so the earlier image is dead and
// nothing can read it anymore.
func (b *BufferHash) stageWrite(w stagedWrite) {
	for i := range b.staged {
		if b.staged[i].addr == w.addr {
			b.releaseImage(b.staged[i].buf)
			b.staged[i] = w
			return
		}
	}
	b.staged = append(b.staged, w)
}

// writeStaged issues every staged incarnation write as one device
// WriteBatch submission, waits for it when wait is set, and recycles the
// image buffers. The images are sorted by address first, as the device
// requires: shared-log slots wrap, and partitioned regions flush in table
// order. Staged addresses are unique (see stageWrite), so the order is
// total. A failed submission may have written any subset of its images,
// so every staged image is dropped as lost (see
// superTable.dropFailedImage): a lookup may then miss, but it never reads
// a slot that still holds an older incarnation's bytes, and never falls
// through to an older version of a key the lost image held. A write that
// succeeds changes no answer, so it moves no write epoch.
func (b *BufferHash) writeStaged(wait bool) error {
	b.held = false
	if len(b.staged) == 0 {
		return nil
	}
	slices.SortFunc(b.staged, func(x, y stagedWrite) int { return cmp.Compare(x.addr, y.addr) })
	is := &b.insert
	is.reqs = is.reqs[:0]
	for _, s := range b.staged {
		is.reqs = append(is.reqs, storage.WriteReq{P: s.buf, Off: s.addr})
	}
	issued := b.issueDevice()
	_, err := b.cfg.Device.WriteBatch(is.reqs)
	if wait {
		b.reached(&issued)
		b.joinDevice()
	}
	for _, s := range b.staged {
		if err != nil {
			s.st.dropFailedImage(s.buf, s.seq)
		}
		b.releaseImage(s.buf)
	}
	b.staged = b.staged[:0]
	if err != nil {
		return fmt.Errorf("core: batched incarnation write: %w", err)
	}
	return nil
}

// writeHeld writes the held set now, if there is one: the work owed before
// its write (see pendingWork) lands on the clock as a plain advance, after
// the operation's CPU charges, then its write is issued, and waited for
// when wait is set. A second flush, which may need a held image's slot,
// and Flush write the held set first, so an instance holds at most one.
func (b *BufferHash) writeHeld(wait bool) error {
	if !b.held {
		return nil
	}
	b.landOwed()
	return b.writeStaged(wait)
}

// WriteBehind closes a call on a device with timelines of its own: once
// the instance's device waits have done all the work owed before the held
// set's write (see Wait), it issues that write and returns without
// waiting for it. Later submissions to the SSDs it reaches queue behind
// it. A failed write drops its images as writeStaged does and fails the
// call that issued it, though their puts were acknowledged. It does
// nothing while owed work remains, and on a device on the CPU's own
// clock, which holds nothing.
func (b *BufferHash) WriteBehind() error {
	if !b.held || b.work.owed() > 0 {
		return nil
	}
	if err := b.writeStaged(false); err != nil {
		return fmt.Errorf("core: write-behind: %w", err)
	}
	return nil
}

// chargeCPU accrues a CPU cost into the operation's deferred charge.
func (b *BufferHash) chargeCPU(d time.Duration) { b.cpuDebt += d }

// chargeInsert charges one buffer insert, CPU.BufferInsert: into the
// operation's CPU debt on a device on the CPU's own clock, which has no
// wait to do it in, and into the pending work otherwise.
func (b *BufferHash) chargeInsert() {
	c := b.cfg.CPU.BufferInsert
	if b.behind {
		b.work.inserts += c
		return
	}
	b.stats.InsertCPULanded += c
	b.chargeCPU(c)
}

// chargeFlush charges one flush's serialization, CPU.FlushSerialize: into
// the operation's CPU debt on a device on the CPU's own clock, and into
// the owed work otherwise, behind every insert queued before it.
func (b *BufferHash) chargeFlush() {
	c := b.cfg.CPU.FlushSerialize
	if b.behind {
		w := &b.work
		w.owedInserts += w.inserts
		w.inserts = 0
		w.serialize += c
		return
	}
	b.stats.FlushCPULanded += c
	b.chargeCPU(c)
}

// landOwed lands the operation's CPU charges, then the work owed before
// the held set's write, on the clock as plain advances.
func (b *BufferHash) landOwed() {
	b.settleCPUDebt()
	b.land(&b.work.owedInserts, &b.stats.InsertCPULanded)
	b.land(&b.work.serialize, &b.stats.FlushCPULanded)
}

// landInserts opens a write call (InsertBatch, DeleteBatch, Flush): every
// pending insert, owed or not, lands on the clock as a plain advance, so
// the call's writes apply after every earlier put's keys and an instance
// owes at most one call's inserts. A held set's serialization stays owed
// for later waits: it reads a buffer the inserts after it do not touch,
// and only its own write waits for it.
func (b *BufferHash) landInserts() {
	b.land(&b.work.owedInserts, &b.stats.InsertCPULanded)
	b.land(&b.work.inserts, &b.stats.InsertCPULanded)
}

// land advances the clock by the pending work *d, counts it in *landed,
// and clears it.
func (b *BufferHash) land(d, landed *time.Duration) {
	if *d > 0 {
		*landed += *d
		b.cfg.Clock.Advance(*d)
		*d = 0
	}
}

// hide does as much of the pending work *d as fits in a wait's gap, counts
// it in *hidden and returns the gap left.
func hide(d, hidden *time.Duration, gap time.Duration) time.Duration {
	n := min(*d, gap)
	*d -= n
	*hidden += n
	return gap - n
}

// settleCPUDebt lands the accumulated CPU charges on the clock in one
// advance (every pipeline's closing step before its staged writes).
func (b *BufferHash) settleCPUDebt() {
	if d := b.cpuDebt; d > 0 {
		b.cpuDebt = 0
		b.cfg.Clock.Advance(d)
	}
}

// issueDevice readies the device's timelines for a submission issued now:
// it cannot start before it is issued, so every timeline moves up to the
// clock. Each then advances by its own share (see Config.DeviceClock),
// and reached records where the submission ended.
func (b *BufferHash) issueDevice() vclock.Issued {
	return vclock.Issue(b.cfg.DeviceClock, b.cfg.Clock.Now(), b.issuedAt)
}

// reached records the end of the submission issued at issued on the
// timelines it reached, for the operation's next joinDevice.
func (b *BufferHash) reached(issued *vclock.Issued) { b.due = max(b.due, issued.End()) }

// joinDevice makes the operation wait for the submissions it made since
// it last joined: the clock moves up to the latest end among the timelines
// they reached, and no further. A timeline the operation did not reach,
// busy with work another operation issued, holds it back only where one of
// its submissions queued behind that work. For a device on Clock itself
// the submission already moved the clock, and the join does nothing.
func (b *BufferHash) joinDevice() {
	b.Wait(b.due)
	b.due = 0
}

// Wait makes the instance wait until t, the instant at which submissions its
// caller made end, or another event it waits for: the clock moves up to t.
// The CPU would idle until then, so it first does the pending work (see
// pendingWork) in the gap, as much as fits and in order: the work owed
// before the held set's write, then the inserts after it. The clam
// facade waits for its value-log submissions and for a split read run's
// helpers through it, as the core waits for its own submissions.
func (b *BufferHash) Wait(t time.Duration) {
	if gap := t - b.cfg.Clock.Now(); gap > 0 {
		w := &b.work
		gap = hide(&w.owedInserts, &b.stats.InsertCPUHidden, gap)
		gap = hide(&w.serialize, &b.stats.FlushCPUHidden, gap)
		hide(&w.inserts, &b.stats.InsertCPUHidden, gap)
	}
	b.cfg.Clock.AdvanceTo(t)
}

// route hashes a user key to (super table, in-partition key). The first
// k1 bits of the hash select the partition; the rest form the in-partition
// key (§5.2), normalized to be non-zero for the cuckoo tables.
func (b *BufferHash) route(key uint64) (*superTable, uint64) {
	h := hashutil.Mix64(key ^ b.routeSeed)
	p, rest := hashutil.Split(h, b.cfg.PartitionBits)
	if rest == 0 {
		rest = 1
	}
	return b.parts[p], rest
}

// Insert adds or updates a (key, value) mapping: a one-key InsertBatch.
func (b *BufferHash) Insert(key, value uint64) error {
	keys, values := [1]uint64{key}, [1]uint64{value}
	return b.InsertBatch(keys[:], values[:], nil)
}

// Delete lazily removes a key (§5.1.1): it is dropped from the buffer if
// still there and recorded in the in-memory delete list; flash space is
// reclaimed at eviction time. It is a one-key DeleteBatch.
func (b *BufferHash) Delete(key uint64) error {
	keys := [1]uint64{key}
	return b.DeleteBatch(keys[:], nil)
}

// Lookup returns the latest value for key: a one-key LookupBatch.
func (b *BufferHash) Lookup(key uint64) (LookupResult, error) {
	keys, results := [1]uint64{key}, [1]LookupResult{}
	err := b.LookupBatch(keys[:], results[:])
	return results[0], err
}

// Flush forces every super table with buffered entries to write its buffer
// to flash, after the pending inserts and the held set, if any (see
// WriteBehind). Each write is its own operation — flush, land the CPU
// charges and the serialization work, issue the staged writes and wait
// for them — so tables are written one after another, as a sequence of
// per-key inserts would, and Flush returns with nothing held or pending.
// Mainly useful in tests and when quiescing.
func (b *BufferHash) Flush() error {
	b.epoch++
	b.landInserts()
	if err := b.writeHeld(true); err != nil {
		return err
	}
	for _, st := range b.parts {
		if st.buf.Len() == 0 {
			continue
		}
		err := st.flush()
		b.landOwed()
		if werr := b.writeStaged(true); err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readImage reads a whole incarnation image (partial-discard scan path)
// into a pooled buffer owned by the caller, who returns it with
// releaseImage when the scan is done. Each call gets a distinct buffer, so
// an image stays valid across interleaved flushes and further reads. An
// address whose write is still staged is served from the staged buffer —
// the bytes the device will hold once the operation issues its writes —
// without a device read.
func (b *BufferHash) readImage(addr int64) ([]byte, error) {
	img := b.acquireImage()
	for i := range b.staged {
		if b.staged[i].addr == addr {
			copy(img, b.staged[i].buf)
			return img, nil
		}
	}
	issued := b.issueDevice()
	_, err := b.cfg.Device.ReadAt(img, addr)
	b.reached(&issued)
	b.joinDevice()
	if err != nil {
		b.releaseImage(img)
		return nil, fmt.Errorf("core: image read: %w", err)
	}
	return img, nil
}

// placeImage allocates the flash address for a new incarnation of st.
func (b *BufferHash) placeImage(st *superTable) (addr int64, seq uint64, err error) {
	b.seq++
	switch b.layout {
	case SharedLog:
		slot := b.nextSlot
		b.nextSlot = (b.nextSlot + 1) % int64(len(b.slotOwner))
		// Reclaim the slot from its previous owner: global FIFO eviction.
		if prev := b.slotOwner[slot]; prev >= 0 {
			b.parts[prev].evictOldestExternal(b.slotSeq[slot])
		}
		b.slotOwner[slot] = int32(st.idx)
		b.slotSeq[slot] = b.seq
		return slot * int64(b.imageSize), b.seq, nil
	case PartitionedRegions:
		// Recycle the region circularly, overwriting in place (the
		// paper's file-per-partition implementation, §7.1).
		k := int64(b.cfg.NumIncarnations)
		region := int64(st.idx) * k * int64(b.imageSize)
		slot := int64(st.flushGen) % k
		return region + slot*int64(b.imageSize), b.seq, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown layout %d", b.layout)
	}
}

// Seq returns the flush sequence: the sequence number of the newest
// incarnation written, rising by one per flush across all super tables.
func (b *BufferHash) Seq() uint64 { return b.seq }

// ExpireThrough expires every live incarnation with a sequence number at
// or below seq: lookups treat it as absent, so its Bloom column is never
// probed, and eviction discards it without a scan. A caller expires
// incarnations whose entries can no longer answer a lookup, such as
// pointers to value-log records the log has overwritten. Sequence numbers
// rise in flush order, so every older incarnation of a super table
// expires with a newer one, and no older version of a key can show
// through. Each expiration counts in Stats.Expirations.
func (b *BufferHash) ExpireThrough(seq uint64) {
	b.epoch++
	for _, st := range b.parts {
		for j := st.oldest(); j < len(st.incs); j++ {
			if st.incs[j].seq <= seq && st.dead&(1<<j) == 0 {
				st.dead |= 1 << j
				b.stats.Expirations++
			}
		}
	}
}

// MemoryFootprint reports the DRAM consumed by the structure, split by
// component (used to validate the §6.4 memory budget).
type MemoryFootprint struct {
	BufferBytes     int64 // all cuckoo buffers
	BloomBytes      int64 // all filter banks (incl. their staging filters)
	DeleteListBytes int64 // approximate
	MetadataBytes   int64 // incarnation bookkeeping
	CacheBytes      int64 // the hot-entry cache
	// PendingBytes is the held images, whose write has not been issued
	// (see WriteBehind), and 16 B for each key whose insert work is
	// pending (see pendingWork): its (key, value) pair.
	PendingBytes int64
}

// Add accumulates another footprint into m (sharded aggregation).
func (m *MemoryFootprint) Add(o MemoryFootprint) {
	m.BufferBytes += o.BufferBytes
	m.BloomBytes += o.BloomBytes
	m.DeleteListBytes += o.DeleteListBytes
	m.MetadataBytes += o.MetadataBytes
	m.CacheBytes += o.CacheBytes
	m.PendingBytes += o.PendingBytes
}

// MemoryFootprint computes the current DRAM footprint.
func (b *BufferHash) MemoryFootprint() MemoryFootprint {
	m := MemoryFootprint{
		CacheBytes:   int64(len(b.cache.sets)) * 2 * CacheEntryBytes,
		PendingBytes: int64(len(b.staged))*int64(b.imageSize) + 16*b.pendingKeys(),
	}
	for _, st := range b.parts {
		m.BufferBytes += int64(b.cfg.BufferBytes)
		if st.bank != nil {
			m.BloomBytes += int64(st.bank.MemoryBits() / 8)
		}
		m.DeleteListBytes += int64(len(st.deleteList)) * 16
		m.MetadataBytes += int64(len(st.incs)) * 16
	}
	return m
}

// pendingKeys is the number of inserts whose work is not done yet, one
// partly done included.
func (b *BufferHash) pendingKeys() int64 {
	c := b.cfg.CPU.BufferInsert
	if c <= 0 {
		return 0
	}
	return int64((b.work.insertWork() + c - 1) / c)
}

// Stats returns a snapshot of operation counters.
func (b *BufferHash) Stats() Stats { return b.stats }

// ResetStats zeroes the counters (latency histograms are owned by callers).
func (b *BufferHash) ResetStats() { b.stats = Stats{} }
