package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitslice"
	"repro/internal/cuckoo"
	"repro/internal/hashutil"
	"repro/internal/storage"
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

	// Shared-log layout state (§5.2: "uses the entire SSD as a single
	// circular list"): slot i holds the image written at seq slotSeq[i] by
	// partition slotOwner[i].
	slotOwner []int32
	slotSeq   []uint64
	nextSlot  int64
	seq       uint64

	imageSize int
	imgPool   [][]byte // free image-sized buffers (flush serialization, eviction scans)
	pageBuf   []byte
	batch     batchScratch
	insert    insertScratch

	// deferWrites redirects incarnation writes into `staged` instead of the
	// device (InsertBatch phase B); staged images are address-sorted and
	// issued as one overlapped BatchWriter submission at the end of the
	// batch. While a write is staged, readImage serves its address from the
	// staged buffer, so partial-discard scans inside the same batch see the
	// bytes the device will eventually hold.
	deferWrites bool
	staged      []stagedWrite

	// deferCPU batches chargeCPU calls into cpuDebt (see LookupBatch).
	// cpuDebt is atomic — the "deferred-clock accumulator" — because a
	// parallel phase A charges it from several lanes at once; the serial
	// paths pay an uncontended atomic add for the same code.
	deferCPU bool
	cpuDebt  atomic.Int64

	// Phase-A partitioner state (see phasea.go): an optional runner that
	// spreads a batch's memory-resolution phase over cooperating workers,
	// and the per-lane private scratch.
	parWidth int
	parRun   PhaseRunner
	lanes    []*phaseLane
}

// stagedWrite is one deferred incarnation write.
type stagedWrite struct {
	buf  []byte
	addr int64
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
	}
	nt := cfg.NumSuperTables()
	b.params = make([]cuckoo.Params, nt)
	pageSlots := cfg.Device.Geometry().PageSize / hashutil.EntrySize
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
	b.pageBuf = make([]byte, cfg.Device.Geometry().PageSize)
	return b, nil
}

// Config returns the (validated) configuration.
func (b *BufferHash) Config() Config { return b.cfg }

// tableParams returns the cuckoo parameters of partition idx.
func (b *BufferHash) tableParams(idx int) cuckoo.Params { return b.params[idx] }

// newSliceBank builds the bit-sliced Bloom bank for one super table.
func (b *BufferHash) newSliceBank(m uint64, h int) filterBank {
	return bitslice.NewBank(m, b.cfg.NumIncarnations, h)
}

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

// stageWrite defers an incarnation write until the end of the insert
// batch. A second image staged at the same address replaces the first: the
// slot was recycled within the batch, so the earlier image is dead, nothing
// can read it anymore, and on raw flash the slot's erase has already been
// issued for the newer image.
func (b *BufferHash) stageWrite(img []byte, addr int64) {
	for i := range b.staged {
		if b.staged[i].addr == addr {
			b.releaseImage(b.staged[i].buf)
			b.staged[i].buf = img
			return
		}
	}
	b.staged = append(b.staged, stagedWrite{buf: img, addr: addr})
}

// flushStaged issues every staged incarnation write as one address-sorted
// overlapped submission through the device's BatchWriter (plain devices
// fall back to a sorted serial loop) and recycles the image buffers.
func (b *BufferHash) flushStaged() error {
	if len(b.staged) == 0 {
		return nil
	}
	is := &b.insert
	is.reqs = is.reqs[:0]
	for _, s := range b.staged {
		is.reqs = append(is.reqs, storage.WriteReq{P: s.buf, Off: s.addr})
	}
	var err error
	if bw, ok := b.cfg.Device.(storage.BatchWriter); ok {
		_, err = bw.WriteBatch(is.reqs)
	} else {
		_, err = storage.WriteBatchFallback(b.cfg.Device, is.reqs)
	}
	for _, s := range b.staged {
		b.releaseImage(s.buf)
	}
	b.staged = b.staged[:0]
	if err != nil {
		return fmt.Errorf("core: batched incarnation write: %w", err)
	}
	return nil
}

// chargeCPU advances the virtual clock by a CPU cost. During a batched
// pipeline's memory phase the charges accrue into one deferred advance
// (same virtual total, far fewer clock advances). The accumulator is
// atomic so a parallel phase A's lanes can charge concurrently; addition
// commutes, so the settled total is byte-identical to the serial order.
func (b *BufferHash) chargeCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	if b.deferCPU {
		b.cpuDebt.Add(int64(d))
		return
	}
	b.cfg.Clock.Advance(d)
}

// settleCPUDebt lands the accumulated deferred CPU charges on the clock in
// one advance (the batched pipelines' phase-C closing step).
func (b *BufferHash) settleCPUDebt() {
	if d := b.cpuDebt.Swap(0); d > 0 {
		b.cfg.Clock.Advance(time.Duration(d))
	}
}

// routeHash is the pure half of route: it hashes a user key to (partition
// index, in-partition key) without touching the structure. The first k1
// bits of the hash select the partition; the rest form the in-partition key
// (§5.2), normalized to be non-zero for the cuckoo tables. Being a pure
// bijection, it is safe to precompute from parallel phase-A lanes.
func (b *BufferHash) routeHash(key uint64) (part int, kh uint64) {
	h := hashutil.Mix64(key ^ hashutil.Mix64(b.cfg.Seed))
	p, rest := hashutil.Split(h, b.cfg.PartitionBits)
	if rest == 0 {
		rest = 1
	}
	return int(p), rest
}

// route hashes a user key to (super table, in-partition key).
func (b *BufferHash) route(key uint64) (*superTable, uint64) {
	p, kh := b.routeHash(key)
	return b.parts[p], kh
}

// Insert adds or updates a (key, value) mapping.
func (b *BufferHash) Insert(key, value uint64) error {
	st, kh := b.route(key)
	b.stats.Inserts++
	return st.insert(kh, value)
}

// Update is insertion with lazy-update semantics (§5.1.1): the new value
// shadows older versions because lookups probe incarnations newest-first.
// It is an alias of Insert; both are provided to mirror the paper's API.
func (b *BufferHash) Update(key, value uint64) error {
	return b.Insert(key, value)
}

// Delete lazily removes a key (§5.1.1): it is dropped from the buffer if
// still there and recorded in the in-memory delete list; flash space is
// reclaimed at eviction time.
func (b *BufferHash) Delete(key uint64) error {
	st, kh := b.route(key)
	b.stats.Deletes++
	st.del(kh)
	return nil
}

// Lookup returns the latest value for key.
func (b *BufferHash) Lookup(key uint64) (LookupResult, error) {
	st, kh := b.route(key)
	res, err := st.lookup(kh)
	if err != nil {
		return res, err
	}
	b.stats.recordLookup(res)
	return res, nil
}

// Flush forces every super table with buffered entries to write its buffer
// to flash. Mainly useful in tests and when quiescing.
func (b *BufferHash) Flush() error {
	for _, st := range b.parts {
		if st.buf.Len() > 0 {
			if err := st.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeAddr returns the device address and length of the single flash page
// that can hold kh within an incarnation of st (§5.1.1). Both the serial
// and batched lookup paths compute probe targets through here.
func (b *BufferHash) probeAddr(st *superTable, inc incarnation, kh uint64) (addr int64, n int) {
	params := b.params[st.idx]
	page := params.PageIndex(kh)
	off, n := params.PageByteRange(page)
	return inc.addr + int64(off), n
}

// readProbe reads kh's page of one incarnation image into the shared page
// buffer (serial lookup path; the batched path reads through a
// storage.BatchReader instead).
func (b *BufferHash) readProbe(st *superTable, inc incarnation, kh uint64) ([]byte, error) {
	addr, n := b.probeAddr(st, inc, kh)
	buf := b.pageBuf[:n]
	if _, err := b.cfg.Device.ReadAt(buf, addr); err != nil {
		return nil, fmt.Errorf("core: incarnation read: %w", err)
	}
	return buf, nil
}

// readImage reads a whole incarnation image (partial-discard scan path)
// into a pooled buffer owned by the caller, who returns it with
// releaseImage when the scan is done. Each call gets a distinct buffer, so
// an image stays valid across interleaved flushes and further reads.
// During a batched insert, an address whose write is still staged is
// served from the staged buffer — the bytes the device will hold once the
// batch issues — without a device read.
func (b *BufferHash) readImage(addr int64) ([]byte, error) {
	img := b.acquireImage()
	if b.deferWrites {
		for i := range b.staged {
			if b.staged[i].addr == addr {
				copy(img, b.staged[i].buf)
				return img, nil
			}
		}
	}
	if _, err := b.cfg.Device.ReadAt(img, addr); err != nil {
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
		k := int64(b.cfg.NumIncarnations)
		region := int64(st.idx) * k * int64(b.imageSize)
		slot := int64(st.flushGen) % k
		addr = region + slot*int64(b.imageSize)
		// Recycle the region circularly. Raw flash requires an erase
		// before rewrite once the ring has wrapped; SSDs and disks are
		// simply overwritten in place (the paper's file-per-partition
		// implementation, §7.1).
		if st.flushGen >= uint64(k) {
			if eraser, ok := b.cfg.Device.(storage.Eraser); ok {
				if _, err := eraser.Erase(addr, int64(b.imageSize)); err != nil {
					return 0, 0, fmt.Errorf("core: region erase: %w", err)
				}
			}
		}
		return addr, b.seq, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown layout %d", b.layout)
	}
}

// Len returns the total number of entries currently buffered in DRAM (the
// in-flash population is bounded by super tables × k × entries/incarnation).
func (b *BufferHash) Len() int {
	n := 0
	for _, st := range b.parts {
		n += st.buf.Len()
	}
	return n
}

// MemoryFootprint reports the DRAM consumed by the structure, split by
// component (used to validate the §6.4 memory budget).
type MemoryFootprint struct {
	BufferBytes     int64 // all cuckoo buffers
	BloomBytes      int64 // all filter banks (incl. sliding-window slack and staging filter)
	DeleteListBytes int64 // approximate
	MetadataBytes   int64 // incarnation bookkeeping
}

// Total returns the footprint sum.
func (m MemoryFootprint) Total() int64 {
	return m.BufferBytes + m.BloomBytes + m.DeleteListBytes + m.MetadataBytes
}

// Add accumulates another footprint into m (sharded aggregation).
func (m *MemoryFootprint) Add(o MemoryFootprint) {
	m.BufferBytes += o.BufferBytes
	m.BloomBytes += o.BloomBytes
	m.DeleteListBytes += o.DeleteListBytes
	m.MetadataBytes += o.MetadataBytes
}

// MemoryFootprint computes the current DRAM footprint.
func (b *BufferHash) MemoryFootprint() MemoryFootprint {
	var m MemoryFootprint
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

// Stats returns a snapshot of operation counters.
func (b *BufferHash) Stats() Stats { return b.stats }

// ResetStats zeroes the counters (latency histograms are owned by callers).
func (b *BufferHash) ResetStats() { b.stats = Stats{} }
