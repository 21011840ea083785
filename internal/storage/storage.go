// Package storage defines the block-device abstraction shared by all
// simulated media (SSD, magnetic disk) and the sparse byte store backing
// them. Device's methods are the whole contract between the store and a
// medium: nothing above this package asserts a device to another
// interface.
//
// Devices operate in virtual time: every I/O returns the simulated service
// latency and advances the device's vclock.Clock by it. Devices that share
// a clock serialize; a device on a clock of its own keeps its own
// timeline, which its owner joins where it needs the device's results
// (the clam facade runs each shard's two SSDs that way). A Stripe is a
// device over member devices, each on its own clock: it deals its
// erase-block units over them, RAID-0 style, and splits every submission
// into one per member (the clam facade stripes each shard's index and its
// value log over its two SSDs, so each SSD holds one partition of the
// index and one of the log). Devices store real bytes, so data
// integrity is verified end to end by the tests — the latency model and
// the data path are exercised together.
//
// Every device services reads and writes as queued submissions: ReadBatch
// and WriteBatch serve many requests in the ascending address order the
// caller sorted them into, with sequential runs paying the fixed command
// cost once and service times overlapped across the device's internal
// parallelism (SSD channels). ReadAt and WriteAt are the
// one-request case, which pays the fixed cost plus the transfer (§6.1).
// The batched lookup pipeline in internal/core feeds coalesced flash
// probes through ReadBatch, and the batched insert pipeline feeds the
// incarnation images its flushes produce through WriteBatch; see ReadReq
// and WriteReq for the precise three-step overlap model. Queue is its one
// implementation: every simulated device serves its submissions through a
// Queue — the address-order check, request checks, the fault hook, run
// detection, lane overlap, the SparseStore data movement, Counters and the
// clock charge — and supplies only the pricing of one request and the
// state only its medium has.
//
// The lookup pipeline and the value log read pages through PageReads,
// whose requests set ReadReq.View: such a request carries only its range,
// the caller reserves no buffer for it, and the device hands back a
// read-only slice — a simulated device's SparseStore page. A view is valid
// until the device's next write or trim and must never be written
// through. Time and Counters do not depend on it. A PageReads submission
// that holds more pages than the device has lanes also reads through
// small holes: it fills each hole of at most Geometry.ReadGap pages
// between two of its pages with read-through requests (ReadReq.Through)
// whose bytes nobody reads, so the page after the hole continues a
// sequential run instead of paying the fixed cost of a new one. The
// device model prices them as any other request; Counters.ReadThrough
// counts them.
package storage

import (
	"errors"
	"fmt"
	"time"
)

// Op identifies a device operation for fault injection and accounting.
type Op int

// Device operations.
const (
	OpRead Op = iota
	OpWrite
)

// FaultFunc is a fault-injection hook. If it returns a non-nil error for an
// operation, the device fails that operation with the error (after charging
// no latency). Tests use this to exercise error paths.
type FaultFunc func(op Op, off int64, n int) error

// Geometry describes a device's addressing structure.
type Geometry struct {
	// Capacity is the usable size in bytes.
	Capacity int64
	// PageSize is the smallest write unit in bytes (the SSD or disk
	// sector).
	PageSize int
	// Lanes is the number of queue lanes a submission's requests overlap
	// across (an SSD's channels, 1 for a single-actuator disk); 1 or less
	// serializes them.
	Lanes int
	// EraseBlock is the medium's erase unit in bytes (an SSD's flash
	// block, a multiple of PageSize), or 0 where there is none. Writes that cover whole, aligned
	// erase blocks let the FTL reclaim the blocks they replace without
	// relocating live pages (§6.4 sizes the flush unit B′ to it for this
	// reason); the value log writes in these units.
	EraseBlock int
	// ReadGap is the most whole pages a read may skip between two pages
	// whose transfer still costs less than starting a new sequential run
	// after them: a host that reads through a hole of at most ReadGap
	// pages (see ReadReq.Through) turns the run after it into the
	// continuation of the run before. An SSD derives it from its pricing,
	// a Stripe reports the least of its members', and 0, a disk's (whose
	// cost to skip depends on seek distance), means reading through never
	// pays.
	ReadGap int
}

// Counters accumulates I/O accounting for a device.
type Counters struct {
	// Reads and BytesRead count every read request served, read-through
	// ones included; ReadThrough counts the read-through ones alone (see
	// ReadReq.Through), so Reads − ReadThrough is the requests whose bytes
	// a caller asked for.
	Reads        uint64
	ReadThrough  uint64
	Writes       uint64
	Erases       uint64
	BytesRead    uint64
	BytesWritten uint64
	// PagesMoved counts garbage-collection relocations (SSD FTL).
	PagesMoved uint64
	// GCRuns counts synchronous garbage-collection episodes (SSD FTL).
	GCRuns uint64
	// BusyTime is the total simulated service time. ReadBusy and
	// WriteBusy split it by the submission that was charged: a write's
	// synchronous garbage collection counts as write time, a read's as
	// read time. They always sum to BusyTime.
	BusyTime  time.Duration
	ReadBusy  time.Duration
	WriteBusy time.Duration
}

// Add accumulates another device's counters into c. Sharded deployments sum
// the per-shard device counters into one fleet-wide view, and a Stripe its
// members'; BusyTime becomes the total service time across all devices.
// Shard clocks are independent, and within a shard each of the two SSDs,
// each holding a partition of the index and one of the log, serves on its
// own timeline, overlapping the other and CPU work, so the sum can exceed
// any single clock's advance — even one shard's index and value-log
// BusyTime together can.
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.ReadThrough += o.ReadThrough
	c.Writes += o.Writes
	c.Erases += o.Erases
	c.BytesRead += o.BytesRead
	c.BytesWritten += o.BytesWritten
	c.PagesMoved += o.PagesMoved
	c.GCRuns += o.GCRuns
	c.BusyTime += o.BusyTime
	c.ReadBusy += o.ReadBusy
	c.WriteBusy += o.WriteBusy
}

// Device is a virtual-time block storage device.
//
// Offsets and lengths must respect the device's page alignment; devices
// return an error otherwise. All methods advance the device's clock by the
// returned latency.
type Device interface {
	// ReadAt reads len(p) bytes at off and returns the simulated latency.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// WriteAt writes len(p) bytes at off and returns the simulated latency.
	WriteAt(p []byte, off int64) (time.Duration, error)
	// ReadBatch serves reqs as one queued submission and returns its
	// overlapped service time (see ReadReq). reqs must ascend by Off
	// (ties allowed) and are served in the order given; a descending pair
	// fails the submission with ErrUnsorted before any state moves.
	ReadBatch(reqs []ReadReq) (time.Duration, error)
	// WriteBatch serves reqs as one queued submission and returns its
	// overlapped service time (see WriteReq). reqs must ascend by Off, as
	// for ReadBatch, and are served in the order given.
	WriteBatch(reqs []WriteReq) (time.Duration, error)
	// Geometry returns the device's addressing structure.
	Geometry() Geometry
	// Counters returns a snapshot of the device's I/O accounting.
	Counters() Counters
}

// MemberDevice is a Device whose every page lies on one of several member
// devices, each serving its share of a submission on its own queue and
// timeline: a Stripe.
type MemberDevice interface {
	Device
	// Members returns the number of members.
	Members() int
	// Member returns the member holding the byte at off.
	Member(off int64) int
}

// Common device errors.
var (
	ErrOutOfRange = errors.New("storage: offset out of range")
	ErrUnaligned  = errors.New("storage: unaligned access")
	ErrUnsorted   = errors.New("storage: submission not in ascending address order")
)

// CheckRange validates [off, off+n) against the geometry and the alignment
// unit `align`.
func CheckRange(g Geometry, off, n int64, align int) error {
	if off < 0 || n < 0 || off+n > g.Capacity {
		return fmt.Errorf("%w: off=%d n=%d cap=%d", ErrOutOfRange, off, n, g.Capacity)
	}
	if align > 1 && (off%int64(align) != 0 || n%int64(align) != 0) {
		return fmt.Errorf("%w: off=%d n=%d align=%d", ErrUnaligned, off, n, align)
	}
	return nil
}

// Span returns the bytes of the whole units of size unit that n bytes at
// off touch; an empty range touches the unit at off. Reads are charged by
// it (P2: a sub-page I/O costs at least a full-page I/O).
func Span(off int64, n, unit int) int64 {
	u := int64(unit)
	first, last := off/u, (off+int64(n)-1)/u
	if n == 0 {
		last = first
	}
	return (last - first + 1) * u
}

// SparseStore is a page-granular sparse byte store. Unwritten regions read
// as zeros. It is the data backing for all device models: a page is
// allocated on its first write, so a simulated device costs the host only
// the pages actually touched, plus one slice header per page number up to
// the highest page written, by which pages are indexed.
type SparseStore struct {
	pageSize int
	pages    [][]byte // by page number; nil for a page never written, or dropped
	zeroPage []byte   // shared read-only view of an unwritten page, made on first use
}

// NewSparseStore returns a store with the given page size.
func NewSparseStore(pageSize int) *SparseStore {
	return &SparseStore{pageSize: pageSize}
}

// page returns page idx, or nil if it holds no bytes.
func (s *SparseStore) page(idx int64) []byte {
	if idx < int64(len(s.pages)) {
		return s.pages[idx]
	}
	return nil
}

// ReadAt fills p from the store at off.
func (s *SparseStore) ReadAt(p []byte, off int64) {
	for len(p) > 0 {
		pageIdx := off / int64(s.pageSize)
		inPage := int(off % int64(s.pageSize))
		n := s.pageSize - inPage
		if n > len(p) {
			n = len(p)
		}
		if page := s.page(pageIdx); page != nil {
			copy(p[:n], page[inPage:inPage+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += int64(n)
	}
}

// Read serves one device read request. A View request, whose range Queue
// has checked lies inside one page, gets P replaced by a read-only slice
// of that page, or of a shared zero page when the page holds no bytes; the
// slice's capacity ends with the range, so appending to it cannot reach
// the page. Every other request is copied into P.
func (s *SparseStore) Read(r *ReadReq) {
	if !r.View {
		s.ReadAt(r.P, r.Off)
		return
	}
	ps := int64(s.pageSize)
	idx := r.Off / ps
	lo := int(r.Off - idx*ps)
	page := s.page(idx)
	if page == nil {
		if s.zeroPage == nil {
			s.zeroPage = make([]byte, s.pageSize)
		}
		page = s.zeroPage
	}
	r.P = page[lo : lo+r.N : lo+r.N]
}

// WriteAt stores p at off, allocating pages as needed.
func (s *SparseStore) WriteAt(p []byte, off int64) {
	for len(p) > 0 {
		pageIdx := off / int64(s.pageSize)
		inPage := int(off % int64(s.pageSize))
		n := s.pageSize - inPage
		if n > len(p) {
			n = len(p)
		}
		if pageIdx >= int64(len(s.pages)) {
			s.pages = append(s.pages, make([][]byte, pageIdx+1-int64(len(s.pages)))...)
		}
		page := s.pages[pageIdx]
		if page == nil {
			page = make([]byte, s.pageSize)
			s.pages[pageIdx] = page
		}
		copy(page[inPage:inPage+n], p[:n])
		p = p[n:]
		off += int64(n)
	}
}

// Drop releases the pages fully covered by [off, off+n) and zeroes partial
// overlaps.
func (s *SparseStore) Drop(off, n int64) {
	end := off + n
	first := off / int64(s.pageSize)
	last := min((end-1)/int64(s.pageSize), int64(len(s.pages))-1)
	for idx := first; idx <= last; idx++ {
		page := s.pages[idx]
		if page == nil {
			continue
		}
		pageStart := idx * int64(s.pageSize)
		pageEnd := pageStart + int64(s.pageSize)
		if pageStart >= off && pageEnd <= end {
			s.pages[idx] = nil
			continue
		}
		lo, hi := int64(0), int64(s.pageSize)
		if off > pageStart {
			lo = off - pageStart
		}
		if end < pageEnd {
			hi = end - pageStart
		}
		clear(page[lo:hi])
	}
}
