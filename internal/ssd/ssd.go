// Package ssd models a solid-state disk behind a Flash Translation Layer.
//
// Two FTL designs are provided, matching the paper's two devices (§7.1):
//
//   - PageMapped: a log-structured page-level FTL with greedy garbage
//     collection and over-provisioning, modeling the Intel X18-M ("new
//     generation"). Sustained small random writes exhaust the erased-block
//     pool; once below the low watermark, the next I/O — read or write —
//     blocks while the FTL reclaims space, reproducing the paper's key
//     observation (§7.2.2) that Berkeley-DB on an Intel SSD sees ~4.6 ms
//     lookups under high write load even though a clean random read takes
//     0.15 ms. Conversely, cyclic sequential overwrites (BufferHash's write
//     pattern) leave victims fully invalid, so cleaning costs almost
//     nothing.
//
//   - BlockMapped: a block-level FTL modeling the Transcend TS32GSSD25
//     ("old generation"). Sequential appends within an erase block are
//     cheap; any out-of-order write forces a read-modify-write of the whole
//     128 KB block, which is why small random writes cost tens of
//     milliseconds (α < 1 in §6.3: sequentially writing a 128 KB buffer is
//     cheaper than one random sector write).
//
// Latency parameters are calibrated against the paper's reported numbers;
// see the Intel/Transcend profile constructors.
package ssd

import (
	"fmt"
	"math"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// MappingMode selects the FTL design.
type MappingMode int

// FTL designs.
const (
	// PageMapped is a log-structured page-level FTL with greedy GC.
	PageMapped MappingMode = iota
	// BlockMapped is a block-level FTL with read-modify-write updates.
	BlockMapped
)

// Profile holds the calibrated parameters of an SSD model.
type Profile struct {
	Name       string
	SectorSize int // logical sector size in bytes (host I/O granularity)
	PageSize   int // internal flash page size in bytes
	BlockPages int // internal pages per erase block

	// Host-visible service costs (linear model, §6.1).
	ReadFixed    time.Duration
	ReadPerByte  time.Duration
	WriteFixed   time.Duration
	WritePerByte time.Duration

	// Internal costs used by the FTL.
	EraseTime        time.Duration // full block erase
	PageMoveTime     time.Duration // GC relocation of one valid page
	InternalReadTime time.Duration // per-page read during block-mapped RMW

	// EraseOverlap divides the erase cost of fully-invalid victims,
	// modeling multi-channel overlap of erases with host transfers. Only
	// used by the page-mapped FTL. Must be ≥ 1.
	EraseOverlap int

	// Page-mapped FTL pool management.
	OverProvision float64 // spare physical capacity fraction (e.g. 0.04)
	GCLowBlocks   int     // run synchronous GC when free blocks ≤ low
	GCHighBlocks  int     // reclaim until free blocks ≥ high

	// IdleGCBlocksPerSec is the background cleaning rate: blocks reclaimed
	// per second of host idle time (virtual). This is what makes the SSD
	// fast again under "light" load (§7.2.2).
	IdleGCBlocksPerSec float64

	// LogBlockSlots models the log-block staging of old block-mapped
	// FTLs: out-of-order writes append cheaply to a log block, and every
	// LogBlockSlots-th such write pays the full read-modify-write merge.
	// 1 (or 0) means every out-of-order write merges immediately.
	LogBlockSlots int

	// QueueDepth is the number of internal queue lanes a batched read
	// submission can overlap across (NCQ over independent flash channels),
	// reported as Geometry.Lanes. 1 (or 0) means batched reads serialize
	// like a loop over ReadAt, minus the fixed cost on sequential runs.
	QueueDepth int

	Mapping MappingMode
}

// BlockSize returns the erase-block size in bytes.
func (p Profile) BlockSize() int { return p.PageSize * p.BlockPages }

// IntelX18M returns the page-mapped profile calibrated to the paper's Intel
// SSD numbers: 4 KB random read ≈ 0.15 ms, clean 4 KB random write ≈ 0.27 ms,
// sequential 128 KB write ≈ 2.5 ms (paper's worst-case flush: 2.72 ms), and
// multi-millisecond I/Os once sustained random writes force synchronous GC.
func IntelX18M() Profile {
	return Profile{
		Name:               "intel-x18m",
		SectorSize:         4096,
		PageSize:           4096,
		BlockPages:         32,
		ReadFixed:          120 * time.Microsecond,
		ReadPerByte:        8 * time.Nanosecond,
		WriteFixed:         200 * time.Microsecond,
		WritePerByte:       17 * time.Nanosecond,
		EraseTime:          2 * time.Millisecond,
		PageMoveTime:       250 * time.Microsecond,
		InternalReadTime:   60 * time.Microsecond,
		EraseOverlap:       4,
		OverProvision:      0.04,
		GCLowBlocks:        2,
		GCHighBlocks:       6,
		IdleGCBlocksPerSec: 2000,
		QueueDepth:         8,
		Mapping:            PageMapped,
	}
}

// TranscendTS32 returns the block-mapped profile calibrated to the paper's
// Transcend SSD numbers: 4 KB read ≈ 0.55 ms, sequential 128 KB buffer flush
// ≈ 28 ms (paper: ~30 ms worst case, 0.007 ms amortized over 4096 entries),
// and ~30 ms small random writes via whole-block read-modify-write.
func TranscendTS32() Profile {
	return Profile{
		Name:               "transcend-ts32",
		SectorSize:         4096,
		PageSize:           4096,
		BlockPages:         32,
		ReadFixed:          500 * time.Microsecond,
		ReadPerByte:        12 * time.Nanosecond,
		WriteFixed:         1 * time.Millisecond,
		WritePerByte:       190 * time.Nanosecond,
		EraseTime:          2 * time.Millisecond,
		PageMoveTime:       800 * time.Microsecond,
		InternalReadTime:   100 * time.Microsecond,
		EraseOverlap:       1,
		OverProvision:      0.02,
		GCLowBlocks:        1,
		GCHighBlocks:       2,
		IdleGCBlocksPerSec: 200,
		LogBlockSlots:      4,
		QueueDepth:         1, // pre-NCQ device: batched reads only save seeks
		Mapping:            BlockMapped,
	}
}

// SSD is a simulated solid-state disk. It implements storage.Device, plus
// Trim. Not safe for concurrent use.
type SSD struct {
	prof  Profile
	q     *storage.Queue // serves every read and write submission
	store *storage.SparseStore

	// --- page-mapped state ---
	nLogicalPages  int64
	nPhysBlocks    int64
	l2p            []int64 // logical page -> physical page (-1 = unmapped)
	p2l            []int64 // physical page -> logical page (-1 = invalid)
	blockValid     []int32 // per physical block: count of valid pages
	blockSealed    []bool  // block fully programmed (candidate for GC)
	freeBlocks     []int64 // erased, empty physical blocks
	activeBlock    int64
	activeNextPage int32
	idleCredit     float64 // fractional blocks of background GC earned

	// reclaimable counts the GC victims: sealed blocks with fewer than
	// BlockPages valid pages. The active block is never sealed, so the
	// count is exactly what reclaimOne's scan would find. invalidate and
	// allocPage raise it as blocks gain their first invalid page or seal
	// short, reclaimOne lowers it as it takes a victim; with none left,
	// reclaimOne returns without scanning — the steady state of cyclic
	// writes, where every sealed block is fully valid and idle GC credit
	// would otherwise scan the whole device on every I/O.
	reclaimable int64

	// --- block-mapped state ---
	frontier    []int32 // per logical block: programmed page count
	everWritten []bool  // per logical block: needs erase before reuse
	logWrites   int64   // out-of-order writes staged in log blocks
}

// New builds an SSD with the given usable capacity. Capacity is rounded up
// to a whole number of erase blocks.
func New(prof Profile, capacity int64, clock *vclock.Clock) *SSD {
	bs := int64(prof.BlockSize())
	if capacity <= 0 {
		panic("ssd: non-positive capacity")
	}
	if capacity%bs != 0 {
		capacity += bs - capacity%bs
	}
	if prof.EraseOverlap < 1 {
		prof.EraseOverlap = 1
	}
	s := &SSD{prof: prof, store: storage.NewSparseStore(prof.SectorSize)}
	nLogicalBlocks := capacity / bs
	s.nLogicalPages = nLogicalBlocks * int64(prof.BlockPages)
	switch prof.Mapping {
	case PageMapped:
		spare := int64(math.Ceil(float64(nLogicalBlocks) * prof.OverProvision))
		if spare < int64(prof.GCHighBlocks)+1 {
			spare = int64(prof.GCHighBlocks) + 1
		}
		s.nPhysBlocks = nLogicalBlocks + spare
		nPhysPages := s.nPhysBlocks * int64(prof.BlockPages)
		s.l2p = make([]int64, s.nLogicalPages)
		s.p2l = make([]int64, nPhysPages)
		for i := range s.l2p {
			s.l2p[i] = -1
		}
		for i := range s.p2l {
			s.p2l[i] = -1
		}
		s.blockValid = make([]int32, s.nPhysBlocks)
		s.blockSealed = make([]bool, s.nPhysBlocks)
		s.freeBlocks = make([]int64, 0, s.nPhysBlocks)
		for b := s.nPhysBlocks - 1; b >= 1; b-- {
			s.freeBlocks = append(s.freeBlocks, b)
		}
		s.activeBlock = 0
		s.activeNextPage = 0
	case BlockMapped:
		s.frontier = make([]int32, nLogicalBlocks)
		s.everWritten = make([]bool, nLogicalBlocks)
	default:
		panic(fmt.Sprintf("ssd: unknown mapping mode %d", prof.Mapping))
	}
	s.q = storage.NewQueue(s.Geometry(), prof.SectorSize, s.store, clock)
	return s
}

// SetFault installs a fault-injection hook (nil clears it).
func (s *SSD) SetFault(f storage.FaultFunc) { s.q.Fault = f }

// Geometry implements storage.Device.
func (s *SSD) Geometry() storage.Geometry {
	return storage.Geometry{
		Capacity:   s.nLogicalPages / int64(s.prof.BlockPages) * int64(s.prof.BlockSize()),
		PageSize:   s.prof.SectorSize,
		Lanes:      max(s.prof.QueueDepth, 1),
		EraseBlock: s.prof.BlockSize(),
		ReadGap:    s.prof.readGap(),
	}
}

// readGap returns the most whole sectors whose transfer costs less than
// one sequential run's ReadFixed: (ReadFixed−1)/(ReadPerByte·SectorSize),
// 3 on the Intel profile and 10 on the Transcend. A profile that prices
// no transfer reports 0.
func (p Profile) readGap() int {
	sector := p.ReadPerByte * time.Duration(p.SectorSize)
	if sector <= 0 {
		return 0
	}
	return int(max(p.ReadFixed-1, 0) / sector)
}

// Counters implements storage.Device.
func (s *SSD) Counters() storage.Counters { return s.q.Counters }

// creditIdle converts host idle time into background GC budget.
func (s *SSD) creditIdle() {
	idle := s.q.Idle()
	if idle == 0 {
		return
	}
	s.idleCredit += idle.Seconds() * s.prof.IdleGCBlocksPerSec
	// Background cleaning: reclaim for free while credit lasts and the
	// pool is not full.
	for s.idleCredit >= 1 && s.prof.Mapping == PageMapped {
		if len(s.freeBlocks) >= int(s.nPhysBlocks)/2 || !s.reclaimOne(false) {
			break
		}
		s.idleCredit--
	}
	if s.idleCredit > 1e6 {
		s.idleCredit = 1e6
	}
}

// begin runs once a submission has passed its checks: host idle time
// since the last I/O becomes background GC, and a submission arriving at
// a depleted erased-block pool stalls for the pending reclamation, once
// for the whole batch (I/Os block during GC, §7.2.2).
func (s *SSD) begin() {
	s.creditIdle()
	if s.prof.Mapping == PageMapped {
		s.gcIfNeeded()
	}
}

// ReadAt implements storage.Device as a one-request ReadBatch. Reads are
// byte-granular but charged in whole sectors (P2).
func (s *SSD) ReadAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.ReadReq{{P: p, Off: off}}
	return s.ReadBatch(one[:])
}

// ReadBatch implements storage.Device through the device's queue, serving
// reqs in the ascending address order given. A request costs its whole
// sectors' transfer (P2), plus ReadFixed when it starts a sequential run;
// requests overlap across QueueDepth channel lanes, behind any GC the
// submission stalls for.
func (s *SSD) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	return s.q.Read(reqs, s.begin, s.readCost)
}

func (s *SSD) readCost(off int64, n int, newRun bool) (time.Duration, error) {
	lat := time.Duration(storage.Span(off, n, s.prof.SectorSize)) * s.prof.ReadPerByte
	if newRun {
		lat += s.prof.ReadFixed // command setup / channel switch
	}
	return lat, nil
}

// WriteAt implements storage.Device as a one-request WriteBatch. Writes
// must be sector-aligned.
func (s *SSD) WriteAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.WriteReq{{P: p, Off: off}}
	return s.WriteBatch(one[:])
}

// WriteBatch implements storage.Device through the device's queue. FTL
// bookkeeping runs per request in the ascending address order given. A
// request costs its transfer (on the block-mapped FTL also any erase or
// merge it forces), plus WriteFixed when it starts a sequential run, and
// requests overlap across QueueDepth channel lanes. Synchronous GC —
// pending reclamation plus any emergency reclaims the batch's own
// allocations force — stalls the whole submission ahead of the overlapped
// transfers: GC blocks the device (§7.2.2).
func (s *SSD) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	return s.q.Write(reqs, s.begin, s.writeCost)
}

func (s *SSD) writeCost(off int64, n int, newRun bool) (time.Duration, error) {
	var lat time.Duration
	switch s.prof.Mapping {
	case PageMapped:
		if n > 0 {
			s.allocRange(off, int64(n))
		}
		lat = time.Duration(n) * s.prof.WritePerByte
	case BlockMapped:
		lat = s.blockMappedBody(off, int64(n))
	}
	if newRun {
		lat += s.prof.WriteFixed // command setup / channel switch
	}
	return lat, nil
}

// Trim tells the FTL that the given sector-aligned range no longer holds
// live data: it invalidates the mapping without charging host latency.
func (s *SSD) Trim(off, n int64) error {
	g := s.Geometry()
	if err := storage.CheckRange(g, off, n, s.prof.SectorSize); err != nil {
		return err
	}
	switch s.prof.Mapping {
	case PageMapped:
		ps := int64(s.prof.PageSize)
		for lp := off / ps; lp < (off+n)/ps; lp++ {
			s.invalidate(lp)
		}
	case BlockMapped:
		bs := int64(s.prof.BlockSize())
		for b := off / bs; b < (off+n+bs-1)/bs; b++ {
			s.frontier[b] = 0
		}
	}
	s.store.Drop(off, n)
	return nil
}

// --- page-mapped FTL ---

func (s *SSD) invalidate(lp int64) {
	pp := s.l2p[lp]
	if pp < 0 {
		return
	}
	s.l2p[lp] = -1
	s.p2l[pp] = -1
	b := pp / int64(s.prof.BlockPages)
	if s.blockSealed[b] && s.blockValid[b] == int32(s.prof.BlockPages) {
		s.reclaimable++ // a full sealed block gains its first invalid page
	}
	s.blockValid[b]--
}

// allocPage places a logical page at the write frontier, returning true if a
// new active block had to be opened.
func (s *SSD) allocPage(lp int64) bool {
	opened := false
	if s.activeNextPage == int32(s.prof.BlockPages) {
		s.blockSealed[s.activeBlock] = true
		if s.blockValid[s.activeBlock] < int32(s.prof.BlockPages) {
			s.reclaimable++ // sealed short: pages were invalidated while active
		}
		last := len(s.freeBlocks) - 1
		s.activeBlock = s.freeBlocks[last]
		s.freeBlocks = s.freeBlocks[:last]
		s.blockSealed[s.activeBlock] = false
		s.activeNextPage = 0
		opened = true
	}
	pp := s.activeBlock*int64(s.prof.BlockPages) + int64(s.activeNextPage)
	s.activeNextPage++
	s.l2p[lp] = pp
	s.p2l[pp] = lp
	s.blockValid[s.activeBlock]++
	return opened
}

// reclaimOne garbage-collects the best victim block: the not fully valid
// sealed block with the fewest valid pages, lowest index first. It returns
// false, without scanning, when reclaimable says there is none. Synchronous
// GC stalls the submission being served by its latency; background GC
// (sync false) is free.
func (s *SSD) reclaimOne(sync bool) bool {
	if s.reclaimable == 0 {
		return false
	}
	victim := int64(-1)
	best := int32(math.MaxInt32)
	for b := int64(0); b < s.nPhysBlocks; b++ {
		if b == s.activeBlock || !s.blockSealed[b] {
			continue
		}
		// A fully-valid victim frees nothing; skipping it also guarantees
		// every reclamation makes net progress.
		if s.blockValid[b] < best && s.blockValid[b] < int32(s.prof.BlockPages) {
			best = s.blockValid[b]
			victim = b
		}
	}
	s.reclaimable--
	// Relocate valid pages to the write frontier.
	moved := 0
	base := victim * int64(s.prof.BlockPages)
	for i := int64(0); i < int64(s.prof.BlockPages); i++ {
		lp := s.p2l[base+i]
		if lp < 0 {
			continue
		}
		s.p2l[base+i] = -1
		s.blockValid[victim]--
		s.allocPage(lp)
		moved++
	}
	if sync {
		erase := s.prof.EraseTime
		if moved == 0 {
			// Fully-invalid victim: the erase overlaps host transfers on
			// other channels.
			erase /= time.Duration(s.prof.EraseOverlap)
		}
		s.q.Stall(time.Duration(moved)*s.prof.PageMoveTime + erase)
	}
	s.q.Counters.PagesMoved += uint64(moved)
	s.q.Counters.Erases++
	s.blockSealed[victim] = false
	s.freeBlocks = append(s.freeBlocks, victim)
	return true
}

// gcIfNeeded runs synchronous reclamation when the pool is at or below the
// low watermark, stalling the triggering submission.
//
// Reclamation is incremental — one victim per triggering I/O — so while the
// pool stays low under sustained random writes, every arriving operation,
// read or write alike, pays a share of the cleaning. This is the mechanism
// behind the paper's observation that Berkeley-DB's lookups AND inserts both
// degrade to ~4.6–4.8 ms on the Intel SSD under high write load (§7.2.2).
func (s *SSD) gcIfNeeded() {
	if len(s.freeBlocks) > s.prof.GCLowBlocks {
		return
	}
	s.q.Counters.GCRuns++
	s.reclaimOne(true)
	// Emergency: never leave the pool empty.
	for iter := int64(0); len(s.freeBlocks) == 0 && iter < 2*s.nPhysBlocks; iter++ {
		if !s.reclaimOne(true) {
			break
		}
	}
}

// allocRange invalidates and reallocates the logical pages of [off, off+n)
// at the write frontier, stalling the submission for emergency
// reclamation.
func (s *SSD) allocRange(off, n int64) {
	ps := int64(s.prof.PageSize)
	first := off / ps
	last := (off + n - 1) / ps
	for lp := first; lp <= last; lp++ {
		s.invalidate(lp)
		s.allocPage(lp)
		// Emergency-only reclamation mid-write: free just enough to keep
		// allocating. The remaining debt is paid by whichever I/O arrives
		// next (read or write), which is how sustained random writes end
		// up slowing reads too (§7.2.2).
		if len(s.freeBlocks) == 0 {
			s.q.Counters.GCRuns++
			if !s.reclaimOne(true) {
				break
			}
		}
	}
}

// --- block-mapped FTL ---

// blockMappedBody is the block-mapped write cost and FTL bookkeeping
// without the per-command fixed overhead (which sequential runs pay only
// once).
func (s *SSD) blockMappedBody(off, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	var lat time.Duration
	ps := int64(s.prof.PageSize)
	bs := int64(s.prof.BlockSize())
	bp := int32(s.prof.BlockPages)
	end := off + n
	for off < end {
		blk := off / bs
		startPage := int32((off % bs) / ps)
		segEnd := (blk + 1) * bs
		if segEnd > end {
			segEnd = end
		}
		segPages := int32((segEnd - off + ps - 1) / ps)
		f := s.frontier[blk]
		switch {
		case startPage == 0 && (f == 0 || f == bp):
			// Fresh cycle on this block: erase (if previously used), then
			// sequential program at host write speed.
			if s.everWritten[blk] {
				lat += s.prof.EraseTime
				s.q.Counters.Erases++
			}
			lat += time.Duration(segEnd-off) * s.prof.WritePerByte
			s.frontier[blk] = segPages
		case startPage == f:
			// Pure append.
			lat += time.Duration(segEnd-off) * s.prof.WritePerByte
			s.frontier[blk] = f + segPages
		default:
			// Out-of-order update. The FTL stages it in a log block
			// (cheap sequential append); every LogBlockSlots-th such
			// write fills a log block and pays the full merge:
			// read valid pages + erase + reprogram the whole block.
			lat += time.Duration(segEnd-off) * s.prof.WritePerByte
			s.logWrites++
			slots := int64(s.prof.LogBlockSlots)
			if slots < 1 {
				slots = 1
			}
			if s.logWrites%slots == 0 {
				valid := f
				if valid > bp {
					valid = bp
				}
				lat += time.Duration(valid) * s.prof.InternalReadTime
				lat += s.prof.EraseTime
				lat += time.Duration(bp) * time.Duration(ps) * s.prof.WritePerByte
				s.q.Counters.Erases++
				s.q.Counters.PagesMoved += uint64(valid)
			}
			newF := startPage + segPages
			if newF < f {
				newF = f
			}
			s.frontier[blk] = newF
		}
		s.everWritten[blk] = true
		off = segEnd
	}
	return lat
}

var _ storage.Device = (*SSD)(nil)
