// Package flashchip models a raw NAND flash chip: 2 KB pages grouped into
// 128 KB erase blocks, with the three NAND invariants the paper's design
// principles P1–P3 (§4) derive from:
//
//   - a page must be erased before it can be programmed (written);
//   - pages within an erase block must be programmed in order;
//   - erase operates on whole blocks only.
//
// I/O latencies follow the linear cost model of §6.1: reading, writing and
// erasing x bytes cost a_r + b_r·x, a_w + b_w·x and a_e + b_e·x. A single
// multi-page call pays the fixed cost once, which is exactly the batching
// benefit (P3) BufferHash exploits when flushing a buffer.
//
// Erased pages read as 0xFF, as on real NAND.
package flashchip

import (
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// CostModel holds the linear I/O cost parameters of §6.1.
type CostModel struct {
	ReadFixed    time.Duration // a_r
	ReadPerByte  time.Duration // b_r
	WriteFixed   time.Duration // a_w
	WritePerByte time.Duration // b_w
	EraseFixed   time.Duration // a_e
	ErasePerByte time.Duration // b_e
}

// Read returns the cost of reading n bytes in one operation.
func (c CostModel) Read(n int64) time.Duration {
	return c.ReadFixed + time.Duration(n)*c.ReadPerByte
}

// Write returns the cost of writing n bytes in one operation.
func (c CostModel) Write(n int64) time.Duration {
	return c.WriteFixed + time.Duration(n)*c.WritePerByte
}

// Erase returns the cost of erasing n bytes in one operation.
func (c CostModel) Erase(n int64) time.Duration {
	return c.EraseFixed + time.Duration(n)*c.ErasePerByte
}

// DefaultCosts is calibrated so that a 2 KB page read costs ≈0.24 ms (the
// per-I/O lookup latency the paper reports for the flash chip in Table 2), a
// 128 KB buffer flush costs ≈6.8 ms, and a block erase ≈1.5 ms.
func DefaultCosts() CostModel {
	return CostModel{
		ReadFixed:    100 * time.Microsecond,
		ReadPerByte:  70 * time.Nanosecond,
		WriteFixed:   150 * time.Microsecond,
		WritePerByte: 50 * time.Nanosecond,
		EraseFixed:   1500 * time.Microsecond,
		ErasePerByte: 0,
	}
}

// Config describes a chip.
type Config struct {
	Capacity  int64 // bytes; must be a multiple of BlockSize
	PageSize  int   // bytes; default 2048
	BlockSize int   // bytes; default 128 KiB
	Costs     CostModel

	// Planes is the number of planes a batched read can sense in parallel
	// (multi-plane page reads). A lone request — every ReadAt — is a
	// blocking single-plane operation. 0 or 1 disables overlap.
	Planes int
}

// DefaultConfig returns a chip configuration with the paper's geometry
// (2 KB pages, 128 KB blocks, two-plane dies) and DefaultCosts.
func DefaultConfig(capacity int64) Config {
	return Config{
		Capacity:  capacity,
		PageSize:  2048,
		BlockSize: 128 << 10,
		Costs:     DefaultCosts(),
		Planes:    2,
	}
}

// Chip is a simulated NAND flash chip. It implements storage.Device and
// storage.Eraser. Chip is not safe for concurrent use; callers serialize
// (the paper notes flash I/Os are blocking operations, §5.2).
type Chip struct {
	cfg      Config
	clock    *vclock.Clock
	store    *storage.SparseStore
	frontier []int32 // per block: number of programmed pages (program order enforcement)
	eraseCnt []uint32
	counters storage.Counters
	fault    storage.FaultFunc
	batchSvc []time.Duration   // per-request service-time scratch of a submission
	sortBuf  []storage.ReadReq // merge buffer of a read submission's address sort
}

// New builds a chip. It panics on invalid geometry, since configurations are
// static in this codebase.
func New(cfg Config, clock *vclock.Clock) *Chip {
	if cfg.PageSize <= 0 || cfg.BlockSize <= 0 || cfg.BlockSize%cfg.PageSize != 0 {
		panic(fmt.Sprintf("flashchip: invalid geometry page=%d block=%d", cfg.PageSize, cfg.BlockSize))
	}
	if cfg.Capacity <= 0 || cfg.Capacity%int64(cfg.BlockSize) != 0 {
		panic(fmt.Sprintf("flashchip: capacity %d not a multiple of block size %d", cfg.Capacity, cfg.BlockSize))
	}
	nBlocks := cfg.Capacity / int64(cfg.BlockSize)
	return &Chip{
		cfg:      cfg,
		clock:    clock,
		store:    storage.NewSparseStore(cfg.PageSize, 0xFF),
		frontier: make([]int32, nBlocks),
		eraseCnt: make([]uint32, nBlocks),
	}
}

// SetFault installs a fault-injection hook (nil clears it).
func (c *Chip) SetFault(f storage.FaultFunc) { c.fault = f }

// Geometry implements storage.Device.
func (c *Chip) Geometry() storage.Geometry {
	return storage.Geometry{Capacity: c.cfg.Capacity, PageSize: c.cfg.PageSize, BlockSize: c.cfg.BlockSize}
}

// Counters implements storage.Device.
func (c *Chip) Counters() storage.Counters { return c.counters }

// EraseCount returns how many times the block containing off was erased
// (wear accounting).
func (c *Chip) EraseCount(off int64) uint32 {
	return c.eraseCnt[off/int64(c.cfg.BlockSize)]
}

// ReadAt reads len(p) bytes at off as a one-request ReadBatch. Reads may
// start at any byte offset, but latency is charged for every page touched
// (P2: a sub-page I/O costs at least a full-page I/O).
func (c *Chip) ReadAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.ReadReq{{P: p, Off: off}}
	return c.ReadBatch(one[:])
}

// ReadBatch implements storage.Device with the shared overlap model:
// address-sorted service, sequential runs paying the fixed array-access
// setup once, and per-request sense+transfer times overlapped across the
// chip's planes (max lane total, not sum).
func (c *Chip) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	g := c.Geometry()
	for _, r := range reqs {
		if err := storage.CheckRange(g, r.Off, int64(len(r.P)), 1); err != nil {
			return 0, err
		}
		if c.fault != nil {
			if err := c.fault(storage.OpRead, r.Off, len(r.P)); err != nil {
				return 0, err
			}
		}
	}
	c.sortBuf = storage.SortReadReqs(reqs, c.sortBuf)
	ps := int64(c.cfg.PageSize)
	if cap(c.batchSvc) < len(reqs) {
		c.batchSvc = make([]time.Duration, len(reqs))
	}
	svc := c.batchSvc[:len(reqs)]
	prevEnd := int64(-1)
	for i, r := range reqs {
		firstPage := r.Off / ps
		lastPage := (r.Off + int64(len(r.P)) - 1) / ps
		if len(r.P) == 0 {
			lastPage = firstPage
		}
		lat := time.Duration((lastPage-firstPage+1)*ps) * c.cfg.Costs.ReadPerByte
		if r.Off != prevEnd {
			lat += c.cfg.Costs.ReadFixed
		}
		prevEnd = r.Off + int64(len(r.P))
		svc[i] = lat
		c.store.Read(&reqs[i])
		c.counters.Reads++
		c.counters.BytesRead += uint64(len(r.P))
	}
	total := storage.OverlapLanes(svc, c.cfg.Planes)
	c.counters.BusyTime += total
	c.clock.Advance(total)
	return total, nil
}

// WriteAt programs len(p) bytes at off as a one-request WriteBatch. The
// range must be page-aligned, every target page must be erased, and pages
// within each block must be programmed in ascending order.
func (c *Chip) WriteAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.WriteReq{{P: p, Off: off}}
	return c.WriteBatch(one[:])
}

// program validates and advances the program-order frontiers of the blocks
// covered by a page-aligned write of n bytes at off. Every block is
// validated before any frontier moves, so a failed write leaves the chip
// unchanged.
func (c *Chip) program(off, n int64) error {
	ps := int64(c.cfg.PageSize)
	ppb := int64(c.cfg.BlockSize / c.cfg.PageSize)
	first, end := off/ps, (off+n)/ps
	// Each step covers one block: the write's first page in it, up to the
	// block end or the write end.
	for pg := first; pg < end; pg = (pg/ppb + 1) * ppb {
		if blk, inBlk := pg/ppb, int32(pg%ppb); inBlk != c.frontier[blk] {
			return fmt.Errorf("%w: block %d frontier %d, write starts at page %d",
				storage.ErrProgramOrder, blk, c.frontier[blk], inBlk)
		}
	}
	for pg := first; pg < end; pg = (pg/ppb + 1) * ppb {
		blk := pg / ppb
		c.frontier[blk] = int32(min((blk+1)*ppb, end) - blk*ppb)
	}
	return nil
}

// WriteBatch implements storage.Device: address-sorted service, sequential
// runs paying the fixed program setup once, and per-request program times
// overlapped across the chip's planes (multi-plane page program).
// Program-order constraints are enforced per request in sorted order, so
// earlier requests of a failing batch remain programmed, while the failing
// request itself leaves its blocks unchanged.
func (c *Chip) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	g := c.Geometry()
	for _, r := range reqs {
		if err := storage.CheckRange(g, r.Off, int64(len(r.P)), c.cfg.PageSize); err != nil {
			return 0, err
		}
		if c.fault != nil {
			if err := c.fault(storage.OpWrite, r.Off, len(r.P)); err != nil {
				return 0, err
			}
		}
	}
	storage.SortWriteReqs(reqs)
	if cap(c.batchSvc) < len(reqs) {
		c.batchSvc = make([]time.Duration, len(reqs))
	}
	svc := c.batchSvc[:len(reqs)]
	prevEnd := int64(-1)
	var total time.Duration
	for i, r := range reqs {
		n := int64(len(r.P))
		if err := c.program(r.Off, n); err != nil {
			// Charge what was serviced so far; the clock must not move for
			// work that never happened.
			total = storage.OverlapLanes(svc[:i], c.cfg.Planes)
			c.counters.BusyTime += total
			c.clock.Advance(total)
			return total, err
		}
		lat := time.Duration(n) * c.cfg.Costs.WritePerByte
		if r.Off != prevEnd {
			lat += c.cfg.Costs.WriteFixed
		}
		prevEnd = r.Off + n
		svc[i] = lat
		c.store.WriteAt(r.P, r.Off)
		c.counters.Writes++
		c.counters.BytesWritten += uint64(n)
	}
	total = storage.OverlapLanes(svc, c.cfg.Planes)
	c.counters.BusyTime += total
	c.clock.Advance(total)
	return total, nil
}

// Erase erases the blocks covering [off, off+n). The range must be
// block-aligned. Erased pages read back as 0xFF.
func (c *Chip) Erase(off, n int64) (time.Duration, error) {
	if err := storage.CheckRange(c.Geometry(), off, n, c.cfg.BlockSize); err != nil {
		return 0, err
	}
	if c.fault != nil {
		if err := c.fault(storage.OpErase, off, int(n)); err != nil {
			return 0, err
		}
	}
	bs := int64(c.cfg.BlockSize)
	nBlocks := n / bs
	// Per §6.1 the erase cost of a single flush is a_e + b_e·(blocks·S_b):
	// one fixed initialization plus per-byte cost.
	lat := c.cfg.Costs.Erase(n)
	for b := off / bs; b < off/bs+nBlocks; b++ {
		c.frontier[b] = 0
		c.eraseCnt[b]++
	}
	c.store.Drop(off, n)
	c.counters.Erases += uint64(nBlocks)
	c.counters.BusyTime += lat
	c.clock.Advance(lat)
	return lat, nil
}

var (
	_ storage.Device = (*Chip)(nil)
	_ storage.Eraser = (*Chip)(nil)
)
