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
	q        *storage.Queue // serves every read and write submission
	store    *storage.SparseStore
	frontier []int32 // per block: number of programmed pages (program order enforcement)
	eraseCnt []uint32
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
	c := &Chip{
		cfg:      cfg,
		store:    storage.NewSparseStore(cfg.PageSize, 0xFF),
		frontier: make([]int32, nBlocks),
		eraseCnt: make([]uint32, nBlocks),
	}
	c.q = storage.NewQueue(c.Geometry(), cfg.PageSize, cfg.Planes, c.store, clock)
	return c
}

// SetFault installs a fault-injection hook (nil clears it).
func (c *Chip) SetFault(f storage.FaultFunc) { c.q.Fault = f }

// Geometry implements storage.Device.
func (c *Chip) Geometry() storage.Geometry {
	return storage.Geometry{Capacity: c.cfg.Capacity, PageSize: c.cfg.PageSize, BlockSize: c.cfg.BlockSize}
}

// Counters implements storage.Device.
func (c *Chip) Counters() storage.Counters { return c.q.Counters }

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

// ReadBatch implements storage.Device through the chip's queue, serving
// reqs in the ascending address order given: a request costs the sense and
// transfer of every page it touches, plus the fixed array-access setup when
// it starts a sequential run, and requests overlap across the chip's
// planes.
func (c *Chip) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	return c.q.Read(reqs, nil, c.readCost)
}

func (c *Chip) readCost(off int64, n int, newRun bool) (time.Duration, error) {
	lat := time.Duration(storage.Span(off, n, c.cfg.PageSize)) * c.cfg.Costs.ReadPerByte
	if newRun {
		lat += c.cfg.Costs.ReadFixed
	}
	return lat, nil
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

// WriteBatch implements storage.Device through the chip's queue: a
// request costs its program time, plus the fixed program setup when it
// starts a sequential run, and requests overlap across the chip's planes
// (multi-plane page program). Program order is enforced per request in
// the address order given, so a failing batch leaves earlier requests
// programmed and charged, while the failing request itself leaves its
// blocks unchanged.
func (c *Chip) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	return c.q.Write(reqs, nil, c.writeCost)
}

func (c *Chip) writeCost(off int64, n int, newRun bool) (time.Duration, error) {
	if err := c.program(off, int64(n)); err != nil {
		return 0, err
	}
	lat := time.Duration(n) * c.cfg.Costs.WritePerByte
	if newRun {
		lat += c.cfg.Costs.WriteFixed
	}
	return lat, nil
}

// Erase erases the blocks covering [off, off+n). The range must be
// block-aligned. Erased pages read back as 0xFF.
func (c *Chip) Erase(off, n int64) (time.Duration, error) {
	if err := c.q.Check(storage.OpErase, off, n, c.cfg.BlockSize); err != nil {
		return 0, err
	}
	bs := int64(c.cfg.BlockSize)
	nBlocks := n / bs
	for b := off / bs; b < off/bs+nBlocks; b++ {
		c.frontier[b] = 0
		c.eraseCnt[b]++
	}
	c.store.Drop(off, n)
	c.q.Counters.Erases += uint64(nBlocks)
	// Per §6.1 the erase cost of a single flush is a_e + b_e·(blocks·S_b):
	// one fixed initialization plus per-byte cost.
	return c.q.Charge(c.cfg.Costs.Erase(n)), nil
}

var (
	_ storage.Device = (*Chip)(nil)
	_ storage.Eraser = (*Chip)(nil)
)
