package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// ValueLog is a circular append-only log of variable-length (key, value)
// records on a Device — the slow-storage half of the byte-keyed CAM API.
// The hash table maps a key's fingerprint to a tagged pointer word (offset,
// length and the log cycle the record was appended in) into this log; the
// record stores the full key bytes, so every read is verified against the
// key the caller asked for and fingerprint collisions or overwritten
// (wrapped-over) records surface as misses, never as wrong values.
//
// Every cycle ends at capacity: a wrap pads the tail with zeros out to the
// end of the log and writes it, so each cycle rewrites every byte and
// records die strictly in append order. The padding is less than the
// record that did not fit; a record of at most one page always closes its
// cycle within the last page, as page alignment alone would. The pointer's
// cycle then lets the log answer a record it has provably overwritten as a
// miss without reading it. With c the current cycle and head the append
// head, a pointer appended in cycle r is read when r ≡ c (mod
// 2^valuePtrCycleBits), and when r ≡ c-1 only if its offset is at or past
// the head; every other record lies in a range cycle c-1 or c rewrote, and
// costs no device request (ValueLogStats.SkippedReads). The rule only
// skips rewritten records. One could still verify only if the rewrite
// repeated its bytes: a later record of the same key at the same offset
// with the same length, whose newer pointer the index returns first, or
// new bytes over its start that happen to equal the old ones. The miss
// answered then is one the lookup contract allows. A tag aliased from
// 2^valuePtrCycleBits cycles back reads as the cycle it aliases, where key
// verification decides as before.
//
// A mark (Mark) is an append position, cycle·capacity + head. Lapped(m)
// reports that the position has moved a whole capacity past m, so the
// rule answers every record appended before m as overwritten and an
// index entry made before m can only point at a record that is gone.
// Records whose tag aliases the current or the previous cycle's are read
// even under a lapped mark: their bytes were rewritten, and key
// verification decides as before.
//
// Writes come in whole write units: records accumulate in a tail buffer
// of one unit, and the moment a record fills it, the unit is written to
// the device as one sequential submission, aligned to the unit
// (sequential I/O, the access pattern every medium in this repository
// likes best), and the record's rest starts the next. The unit is the
// device's erase block (Geometry.EraseBlock), as §6.4 sizes a flush to
// one: each write then replaces whole blocks, and an SSD's FTL reclaims
// the blocks the previous cycle wrote without relocating a page. A device
// without one writes about 64 KB at a time, or a quarter of a smaller log,
// and its capacity rounds down to whole units; any other capacity rounds
// down to whole pages, and a cycle's last unit ends at the capacity, short
// when the capacity is no whole number of units. Records still buffered in
// the tail are served from memory. Over a Stripe, whose EraseBlock is a
// unit on each member, each write unit is whole erase blocks on every
// member, all written in the same submission, and a read or write
// submission becomes one per member; the log is the same either way.
//
// Record reads go to the device by the page, as §5.1.1 reads the index:
// each call adds the device pages its records' device bytes lie in to a
// PageReads set and submits them as one address-sorted ReadBatch of
// whole-page view requests, so two records in one page cost one request,
// records on adjacent pages chain into one sequential run, and the
// requests overlap across the device's queue lanes. The clam facade reads
// a batched Get's records in one such call after its index lookup, on the
// value-log device's own timelines, one per member of a striped log. A
// single-record read is the one-page case.
//
// A ValueLog is not safe for concurrent use; the clam facade serializes
// access under the same lock as the hash table.
type ValueLog struct {
	dev       Device
	pageShift uint  // log2 of the device's page size
	capacity  int64 // usable bytes: whole pages, whole units without an erase block
	unit      int   // write unit: the device's erase block, or about 64 KB

	head     int64  // next append offset
	bufStart int64  // device offset of buf[0]; unit-aligned
	buf      []byte // bytes [bufStart, head) not yet written to the device; cap one unit

	stats ValueLogStats

	// Space accounting (live vs dead record bytes) is tracked per fixed-size
	// log region: appends allocate into a region, MarkDead moves allocated
	// bytes to the dead side, and when the append head re-enters a region on
	// a later cycle the region's remaining bytes are lapped — destroyed by
	// the circular overwrite, live or not. Totals are maintained
	// incrementally so Stats() is O(1).
	regionSize int64
	regAlloc   []int64  // record bytes appended into the region this cycle
	regDead    []int64  // of those, bytes marked dead
	regCycle   []uint64 // cycle the region's counters belong to
	cycle      uint64   // current append cycle (increments at each wrap)
	allocTotal int64
	deadTotal  int64

	// ReadRecordsBatch's scratch: the device pages one call reads, and
	// where each request's record lies.
	pages PageReads
	recs  []recLoc
}

// recLoc is where ReadRecordsBatch found a request's record: its log
// range, n 0 when it reads none, and the number of the one device page
// holding it, -1 when the record is copied into the arena instead.
type recLoc struct {
	off     int64
	n, page int32
}

// ValueLogStats counts log activity, including the live/dead space
// accounting: delete is index-only and overwrite is append-only, so dead
// records keep occupying log space until the head laps them. LiveBytes and
// DeadBytes partition the un-lapped record bytes; their sum over Capacity
// is the log occupancy.
//
// Dead-marking is driven by the clam facade, which can only observe a
// record dying while its pointer is still in the DRAM buffer (an overwrite
// or delete of a flushed key dies silently), so the split is approximate:
// LiveBytes overcounts for unobserved deaths. Region clamping keeps the
// totals within [0, capacity]. The counters are accounting only — no
// reclaim yet.
type ValueLogStats struct {
	// Records is the number of records appended.
	Records uint64
	// AppendedBytes is the total record bytes appended (headers included).
	AppendedBytes uint64
	// Wraps counts how many times the append head wrapped to offset 0,
	// overwriting the oldest records (the log's FIFO eviction).
	Wraps uint64
	// BufferedBytes is the current tail-buffer occupancy.
	BufferedBytes int64

	// Capacity is the usable log capacity in bytes (summed across shards).
	Capacity int64
	// LiveBytes is the record bytes appended and not yet marked dead or
	// lapped by the circular overwrite.
	LiveBytes int64
	// DeadBytes is the record bytes marked dead (deleted or overwritten
	// while still observable) but not yet lapped.
	DeadBytes int64
	// LappedBytes is the total record bytes reclaimed by the head lapping
	// old regions.
	LappedBytes uint64
	// LappedLiveBytes is the subset of LappedBytes never marked dead — the
	// log's silent FIFO data loss.
	LappedLiveBytes uint64
	// SkippedReads counts record reads answered as misses because the log
	// had provably overwritten the record, with no device request.
	SkippedReads uint64
}

// Add accumulates another log's stats (sharded aggregation). BufferedBytes
// sums to the fleet-wide tail-buffer occupancy; Capacity and the space
// counters sum to the fleet-wide view, so occupancy stays meaningful.
func (s *ValueLogStats) Add(o ValueLogStats) {
	s.Records += o.Records
	s.AppendedBytes += o.AppendedBytes
	s.Wraps += o.Wraps
	s.BufferedBytes += o.BufferedBytes
	s.Capacity += o.Capacity
	s.LiveBytes += o.LiveBytes
	s.DeadBytes += o.DeadBytes
	s.LappedBytes += o.LappedBytes
	s.LappedLiveBytes += o.LappedLiveBytes
	s.SkippedReads += o.SkippedReads
}

// recordHeaderSize is the per-record header: uint32 key length, uint32
// value length, little-endian.
const recordHeaderSize = 8

// Record pointers: the byte-keyed CAM maps a key's fingerprint to a 64-bit
// value word holding a tagged pointer to the key's record in this log,
//
//	bit  63     tag: 1 = value-log pointer, 0 = inline value
//	bits 62..57 the log cycle the record was appended in, mod 2^6 (valuePtrCycleBits)
//	bits 56..36 record length in bytes (valuePtrLenBits)
//	bits 35..0  record byte offset in the log (valuePtrOffBits)
//
// so a record holds at most 2 MiB - 1 bytes and a log at most 64 GiB. The
// log fills pointer words in AppendBatch and reads them in
// ReadRecordsBatch and MarkDead; nothing outside it decodes them. The hash
// table stores value words opaquely, so the U64 fast path's inline values
// share the same slots; an inline value with bit 63 set decodes as a
// pointer, which is safe because every record read is verified against
// the full key bytes stored in the record.
const (
	valuePtrTag       = uint64(1) << 63
	valuePtrCycleBits = 6
	valuePtrLenBits   = 21
	valuePtrOffBits   = 36

	cycleMask = 1<<valuePtrCycleBits - 1

	// MaxValueRecordBytes caps one record (header + key + value) so its
	// length fits a pointer's length field.
	MaxValueRecordBytes = 1<<valuePtrLenBits - 1
	// MaxValueLogBytes caps the log capacity so every record offset fits a
	// pointer's offset field.
	MaxValueLogBytes = int64(1) << valuePtrOffBits
)

// encodeValuePtr packs a record location and the cycle it was appended in
// (kept mod 2^valuePtrCycleBits) into a tagged value word. It reports
// ok=false when the location is out of range (a negative value, an offset
// at or past MaxValueLogBytes, or a length over MaxValueRecordBytes).
func encodeValuePtr(off int64, n int, cycle uint64) (word uint64, ok bool) {
	if off < 0 || off >= MaxValueLogBytes || n < 0 || n > MaxValueRecordBytes {
		return 0, false
	}
	return valuePtrTag | (cycle&cycleMask)<<(valuePtrLenBits+valuePtrOffBits) |
		uint64(n)<<valuePtrOffBits | uint64(off), true
}

// decodeValuePtr unpacks a value word as a record pointer. ok=false means
// the word is an untagged inline value.
func decodeValuePtr(word uint64) (off int64, n int, cycle uint64, ok bool) {
	if !IsValuePtr(word) {
		return 0, 0, 0, false
	}
	off = int64(word & (1<<valuePtrOffBits - 1))
	n = int(word >> valuePtrOffBits & (1<<valuePtrLenBits - 1))
	cycle = word >> (valuePtrLenBits + valuePtrOffBits) & cycleMask
	return off, n, cycle, true
}

// IsValuePtr reports whether a value word carries the pointer tag, as
// every word AppendBatch fills does, rather than an inline value.
func IsValuePtr(word uint64) bool { return word&valuePtrTag != 0 }

// RecordSize returns the on-log size of a (key, value) record.
func RecordSize(keyLen, valLen int) int {
	return recordHeaderSize + keyLen + valLen
}

// NewValueLog builds a log over dev, using its whole capacity. The
// device's page size must be a power of two. The usable capacity is
// rounded down to whole pages, or on a device without an erase block to
// whole write units (see ValueLog), and must hold at least eight pages.
func NewValueLog(dev Device) (*ValueLog, error) {
	g := dev.Geometry()
	if g.PageSize <= 0 || g.PageSize&(g.PageSize-1) != 0 {
		return nil, fmt.Errorf("storage: value log needs a power-of-two page size, got %d", g.PageSize)
	}
	capacity := g.Capacity / int64(g.PageSize) * int64(g.PageSize)
	if capacity > MaxValueLogBytes {
		return nil, fmt.Errorf("storage: value log capacity %d exceeds the %d pointer-encoding limit",
			capacity, MaxValueLogBytes)
	}
	unit := g.EraseBlock
	if unit <= 0 {
		unit = 64 << 10
		unit -= unit % g.PageSize
		if int64(unit) > capacity/4 {
			unit = int(capacity/4) / g.PageSize * g.PageSize
		}
		unit = max(unit, g.PageSize)
		capacity -= capacity % int64(unit)
	}
	if capacity < 8*int64(g.PageSize) {
		return nil, fmt.Errorf("storage: value log needs at least 8 pages, got %d bytes", capacity)
	}
	pages, err := NewPageReads(dev, g.PageSize, false)
	if err != nil {
		return nil, err
	}
	// Space accounting resolution: ~256 regions, page-aligned, at least one
	// page each.
	regionSize := (capacity/256 + int64(g.PageSize) - 1) / int64(g.PageSize) * int64(g.PageSize)
	if regionSize < int64(g.PageSize) {
		regionSize = int64(g.PageSize)
	}
	nRegions := (capacity + regionSize - 1) / regionSize
	return &ValueLog{
		dev:        dev,
		pageShift:  uint(bits.TrailingZeros(uint(g.PageSize))),
		pages:      pages,
		capacity:   capacity,
		unit:       unit,
		regionSize: regionSize,
		regAlloc:   make([]int64, nRegions),
		regDead:    make([]int64, nRegions),
		regCycle:   make([]uint64, nRegions),
		cycle:      1, // regCycle starts at 0, so every region laps empty on first touch
	}, nil
}

// Device returns the backing device.
func (l *ValueLog) Device() Device { return l.dev }

// Stats returns a snapshot of the log counters.
func (l *ValueLog) Stats() ValueLogStats {
	s := l.stats
	s.BufferedBytes = int64(len(l.buf))
	s.Capacity = l.capacity
	s.LiveBytes = l.allocTotal - l.deadTotal
	s.DeadBytes = l.deadTotal
	return s
}

// allocSpan charges the record bytes [off, off+n) to their regions' live
// side, lapping any region the head re-enters on a new cycle: whatever the
// region still held from the previous cycle is destroyed by the circular
// overwrite, live or not.
func (l *ValueLog) allocSpan(off int64, n int) {
	end := off + int64(n)
	for off < end {
		r := off / l.regionSize
		if l.regCycle[r] != l.cycle {
			l.stats.LappedBytes += uint64(l.regAlloc[r])
			l.stats.LappedLiveBytes += uint64(l.regAlloc[r] - l.regDead[r])
			l.allocTotal -= l.regAlloc[r]
			l.deadTotal -= l.regDead[r]
			l.regAlloc[r], l.regDead[r] = 0, 0
			l.regCycle[r] = l.cycle
		}
		span := min((r+1)*l.regionSize, end) - off
		l.regAlloc[r] += span
		l.allocTotal += span
		off += span
	}
}

// MarkDead records that the record a pointer word addresses no longer
// backs a live key (its index entry was deleted or overwritten). A word
// that is no pointer, or addresses no record region, is ignored, and so is
// a record the log has provably overwritten (see ValueLog): the lap
// accounting has counted it, nothing is left to debit. So is a record at
// or past the head whose region the head already re-entered this cycle.
// What remains is debited from its regions, clamped to what each still
// holds, so totals stay within [0, capacity]. Counters only; the space is
// reclaimed by the circular overwrite as usual.
func (l *ValueLog) MarkDead(word uint64) {
	off, n, read, _ := l.locate(word)
	if !read || off >= l.head && l.regCycle[off/l.regionSize] == l.cycle {
		return
	}
	end := off + int64(n)
	for off < end {
		r := off / l.regionSize
		regEnd := (r + 1) * l.regionSize
		span := min(regEnd, end) - off
		// Clamp to what the region still holds: a pointer whose record was
		// already lapped must not drive the region's live count negative.
		if avail := l.regAlloc[r] - l.regDead[r]; span > avail {
			span = avail
		}
		l.regDead[r] += span
		l.deadTotal += span
		off = min(regEnd, end)
	}
}

// appendRecord stages one record in the tail buffer (see stage) and
// returns its pointer word. A record the log refuses (too large, or a
// wrap whose write failed) returns word 0 and the error; a unit write
// that fails leaves the record staged, and returns its word and the
// write's error.
func (l *ValueLog) appendRecord(key, value []byte) (word uint64, err error) {
	n := RecordSize(len(key), len(value))
	if int64(n) > l.capacity {
		return 0, fmt.Errorf("storage: value record of %d bytes exceeds log capacity %d", n, l.capacity)
	}
	if n > MaxValueRecordBytes {
		return 0, fmt.Errorf("storage: value record of %d bytes exceeds the %d record limit", n, MaxValueRecordBytes)
	}
	if l.buf == nil {
		l.buf = make([]byte, 0, l.unit)
	}
	if l.head+int64(n) > l.capacity {
		if err := l.wrap(); err != nil {
			return 0, err
		}
	}
	off := l.head
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(value)))
	for _, p := range [...][]byte{hdr[:], key, value} {
		if e := l.stage(p); err == nil {
			err = e
		}
	}
	l.head += int64(n)
	l.stats.Records++
	l.stats.AppendedBytes += uint64(n)
	l.allocSpan(off, n)
	// The capacity and record checks above keep the location encodable.
	word, _ = encodeValuePtr(off, n, l.cycle)
	return word, err
}

// stage copies p to the tail buffer, a unit's end at a time. Each time
// the tail reaches the end of a write unit, it writes the tail's whole
// units (see flushUnits), so the tail never holds more than one unit; a
// failed write keeps them in the tail, which grows past a unit until a
// later write succeeds, and the first error is returned once p is staged.
func (l *ValueLog) stage(p []byte) (err error) {
	for len(p) > 0 {
		head := l.bufStart + int64(len(l.buf))
		end := min((head/int64(l.unit)+1)*int64(l.unit), l.capacity)
		k := min(int64(len(p)), end-head)
		l.buf, p = append(l.buf, p[:k]...), p[k:]
		if head+k == end {
			if e := l.flushUnits(); err == nil {
				err = e
			}
		}
	}
	return err
}

// AppendBatch appends len(keys) records as one tail-buffered multi-record
// append, filling ptrs[i] (ptrs must have len(keys)) with each record's
// tagged pointer word: offset, total length and the cycle it was appended
// in. A pointer becomes invalid once the head wraps past it: a read of it
// then costs no device request, or self-invalidates via key verification
// (see ValueLog). Record offsets, wrap points, tail-served reads and the
// device writes are exactly what one-record calls would produce: each
// write unit reaches the device as one submission the moment a record
// fills it. A unit whose write fails stays in the tail, and the next unit
// the log fills writes both; the batch still appends every record, fills
// every pointer and returns the first write's error. A record the log
// refuses ends the batch with its error, the records before it appended.
func (l *ValueLog) AppendBatch(keys, values [][]byte, ptrs []uint64) error {
	if len(keys) != len(values) || len(ptrs) != len(keys) {
		return fmt.Errorf("storage: AppendBatch length mismatch: %d keys, %d values, %d ptrs",
			len(keys), len(values), len(ptrs))
	}
	var werr error
	for i := range keys {
		word, err := l.appendRecord(keys[i], values[i])
		if word == 0 {
			return err
		}
		ptrs[i] = word
		if werr == nil {
			werr = err
		}
	}
	return werr
}

// flushUnits writes the tail buffer's whole write units, a cycle's short
// last unit included, to the device as one submission and keeps the
// remainder buffered. bufStart stays unit-aligned.
func (l *ValueLog) flushUnits() error {
	p := len(l.buf) - len(l.buf)%l.unit
	if l.bufStart+int64(len(l.buf)) == l.capacity {
		p = len(l.buf)
	}
	if p == 0 {
		return nil
	}
	if err := l.writeBuf(p); err != nil {
		return err
	}
	rest := copy(l.buf, l.buf[p:])
	l.buf = l.buf[:rest]
	l.bufStart += int64(p)
	return nil
}

// wrap pads the log with zeros out to its capacity through the tail
// buffer, so each unit is written as it fills (see stage), and moves the
// append head back to offset 0, beginning a new overwrite cycle. On a
// failed write, the padding units written before it stay written, and the
// head moves past them; the rest of the padding is dropped again, so the
// buffer still ends at the head.
func (l *ValueLog) wrap() error {
	var err error
	for pad := l.capacity - l.head; pad > 0 && err == nil; {
		k := min(pad, int64(len(zeros)))
		err, pad = l.stage(zeros[:k]), pad-k
	}
	if err == nil {
		err = l.flushUnits()
	}
	if err != nil {
		l.head = max(l.head, l.bufStart)
		l.buf = l.buf[:l.head-l.bufStart]
		return err
	}
	l.head, l.bufStart = 0, 0
	l.cycle++
	l.stats.Wraps++
	return nil
}

// zeros is the padding wrap stages, a piece at a time.
var zeros [4 << 10]byte

// writeBuf writes buf[:p] at bufStart.
func (l *ValueLog) writeBuf(p int) error {
	if _, err := l.dev.WriteAt(l.buf[:p], l.bufStart); err != nil {
		return fmt.Errorf("storage: value log write: %w", err)
	}
	return nil
}

// ValueReadReq is one record read of a batched value-log fetch. Ptr is
// the record's pointer word, as AppendBatch filled it; Rec receives the
// record bytes or stays nil when the word is no pointer, addresses no
// record region, or addresses a record the log has provably overwritten
// (see ValueLog). Rec is either a sub-slice of the read-only page the
// device handed back for a view request (see ReadReq.View), valid until
// the device's next write, or a copy in the arena ReadRecordsBatch
// returns. It must not be written through.
type ValueReadReq struct {
	Ptr uint64
	Rec []byte
}

// locate decodes a pointer word into its record range and reports whether
// a read can find the record there. read is false for a word that is no
// pointer or addresses no record region (one reaching past the capacity,
// or past the head of a log that never wrapped, was never written). It is
// false too for a record the log has provably overwritten, which sets
// overwritten: one tagged neither with the current cycle nor, at or past
// the head, with the previous one (see ValueLog). A record that is read
// may still be gone (an aliased tag): key verification decides.
func (l *ValueLog) locate(word uint64) (off int64, n int, read, overwritten bool) {
	off, n, r, ok := decodeValuePtr(word)
	if !ok || n < recordHeaderSize || off+int64(n) > l.capacity {
		return off, n, false, false
	}
	if l.cycle == 1 {
		return off, n, off+int64(n) <= l.head, false
	}
	overwritten = r != l.cycle&cycleMask && (r != (l.cycle-1)&cycleMask || off < l.head)
	return off, n, !overwritten, overwritten
}

// Mark returns the current append position, cycle·capacity + head: every
// record appended so far lies before it.
func (l *ValueLog) Mark() uint64 { return l.cycle*uint64(l.capacity) + uint64(l.head) }

// Lapped reports whether the append position has moved a whole capacity
// past m. Every record appended before m is then one the log answers as
// overwritten, with no device request (see ValueLog), so no pointer word
// filled before m can read a record.
func (l *ValueLog) Lapped(m uint64) bool { return l.Mark() >= m+uint64(l.capacity) }

// split returns where the log range [off, end) meets the tail buffer:
// [off, lo) lies on the device before the flush frontier, [lo, hi) in the
// tail buffer, and [hi, end) on the device past the head, where a
// wrapped-over pointer may still address stale bytes; key verification
// sorts live records from overwritten ones.
func (l *ValueLog) split(off, end int64) (lo, hi int64) {
	head := l.bufStart + int64(len(l.buf))
	return min(max(off, l.bufStart), end), min(max(off, head), end)
}

// ReadRecordsBatch resolves every request's record bytes. The device pages
// holding the records' device bytes are gathered, deduped and read as one
// address-sorted ReadBatch submission of whole-page view requests, so a
// batch of record fetches pays each page once, adjacent pages as one
// sequential run, and the overlapped service time, not the serial sum.
// Requests that locate no record leave Rec nil and add no page; those the
// log has provably overwritten count as SkippedReads.
//
// A record that lies on the device inside one page is served as a
// sub-slice of that page's view. Records that cross a page, overlap the
// tail buffer or reach past the head are copied into arena, the caller's
// scratch, their device bytes from the page views and their buffered
// bytes from the tail: the call carves them from its start, grows it at
// most once, and returns it holding exactly the copied records, which
// stay valid until the arena's next use.
func (l *ValueLog) ReadRecordsBatch(reqs []ValueReadReq, arena []byte) ([]byte, error) {
	l.pages.Reset()
	l.recs = l.recs[:0]
	copied := 0
	for i := range reqs {
		reqs[i].Rec = nil
		off, n, read, overwritten := l.locate(reqs[i].Ptr)
		if overwritten {
			l.stats.SkippedReads++
		}
		loc := recLoc{page: -1}
		if read {
			end := off + int64(n)
			lo, hi := l.split(off, end)
			first := l.addPages(off, lo)
			if last := l.addPages(hi, end); first < 0 {
				first = last
			}
			loc.off, loc.n = off, int32(n)
			if lo == hi && off>>l.pageShift == (end-1)>>l.pageShift {
				loc.page = int32(first)
			} else {
				copied += n
			}
		}
		l.recs = append(l.recs, loc)
	}
	if err := l.pages.Submit(l.pages.Unsent(), AllMembers); err != nil {
		return arena, fmt.Errorf("storage: value log read: %w", err)
	}
	arena = slices.Grow(arena[:0], copied)[:copied]
	next := 0 // where the next copied record is carved
	for i, loc := range l.recs {
		off, n := loc.off, int64(loc.n)
		switch {
		case n == 0:
		case loc.page >= 0:
			lo := off & (1<<l.pageShift - 1)
			reqs[i].Rec = l.pages.View(int(loc.page))[lo : lo+n : lo+n]
		default:
			rec := arena[next : next+int(n) : next+int(n)]
			reqs[i].Rec, next = rec, next+int(n)
			end := off + n
			lo, hi := l.split(off, end)
			l.copyPages(rec[:lo-off], off)
			if lo < hi {
				copy(rec[lo-off:hi-off], l.buf[lo-l.bufStart:hi-l.bufStart])
			}
			l.copyPages(rec[hi-off:], hi)
		}
	}
	return arena, nil
}

// addPages adds the device pages [off, end) touches to the call's and
// returns the number of the first, or -1 for an empty range.
func (l *ValueLog) addPages(off, end int64) int {
	first := -1
	for p := off >> l.pageShift; off < end && p <= (end-1)>>l.pageShift; p++ {
		if id := l.pages.Add(uint64(p)); first < 0 {
			first = id
		}
	}
	return first
}

// copyPages fills p with the device bytes at off from the views of the
// pages read.
func (l *ValueLog) copyPages(p []byte, off int64) {
	for len(p) > 0 {
		k := copy(p, l.pages.View(l.pages.Add(uint64(off >> l.pageShift)))[off&(1<<l.pageShift-1):])
		p, off = p[k:], off+int64(k)
	}
}

// VerifyRecord parses rec as a (key, value) record and returns the value
// bytes — aliasing rec — iff the stored key matches key exactly and the
// lengths are consistent with the record size. A mismatch means the
// fingerprint collided or the record was overwritten after a wrap; both
// read as a miss.
func VerifyRecord(rec, key []byte) (value []byte, ok bool) {
	if len(rec) < recordHeaderSize {
		return nil, false
	}
	kl := int(binary.LittleEndian.Uint32(rec[0:4]))
	vl := int(binary.LittleEndian.Uint32(rec[4:8]))
	if kl != len(key) || kl < 0 || vl < 0 || RecordSize(kl, vl) != len(rec) {
		return nil, false
	}
	if string(rec[recordHeaderSize:recordHeaderSize+kl]) != string(key) {
		return nil, false
	}
	return rec[recordHeaderSize+kl:], true
}
