package flashchip

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

func newTestChip(t *testing.T, capacity int64) (*Chip, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	return New(DefaultConfig(capacity), clock), clock
}

func TestGeometry(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	g := c.Geometry()
	if g.PageSize != 2048 || g.BlockSize != 128<<10 || g.Capacity != 1<<20 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for capacity not multiple of block size")
		}
	}()
	New(Config{Capacity: 1000, PageSize: 2048, BlockSize: 128 << 10}, vclock.New())
}

func TestErasedReadsFF(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0xFF {
			t.Fatalf("erased byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	data := make([]byte, 4096) // two pages
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestWriteUnalignedRejected(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	if _, err := c.WriteAt(make([]byte, 100), 0); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned length: err = %v", err)
	}
	if _, err := c.WriteAt(make([]byte, 2048), 100); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned offset: err = %v", err)
	}
}

func TestWriteOutOfRange(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	if _, err := c.WriteAt(make([]byte, 2048), 1<<20); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestRewriteWithoutEraseRejected(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	page := make([]byte, 2048)
	if _, err := c.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(page, 0); !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("in-place rewrite: err = %v", err)
	}
}

func TestProgramOrderWithinBlock(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	page := make([]byte, 2048)
	// Skipping page 0 and writing page 1 first violates program order.
	if _, err := c.WriteAt(page, 2048); !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("out-of-order program: err = %v", err)
	}
	// In-order works.
	if _, err := c.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(page, 2048); err != nil {
		t.Fatal(err)
	}
}

func TestEraseAllowsRewrite(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	data := make([]byte, 128<<10) // whole block
	for i := range data {
		data[i] = 0x42
	}
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Erase(0, 128<<10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	c.ReadAt(buf, 0)
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("erase did not reset contents to 0xFF")
		}
	}
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatalf("rewrite after erase failed: %v", err)
	}
	if got := c.EraseCount(0); got != 1 {
		t.Fatalf("EraseCount = %d, want 1", got)
	}
}

func TestEraseUnalignedRejected(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	if _, err := c.Erase(2048, 2048); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("page-aligned erase accepted: %v", err)
	}
}

func TestReadLatencyChargesWholePages(t *testing.T) {
	c, clock := newTestChip(t, 1<<20)
	costs := DefaultCosts()
	// A 16-byte read still costs one full page (design principle P2).
	before := clock.Now()
	c.WriteAt(make([]byte, 2048), 0)
	start := clock.Now()
	if start == before {
		t.Fatal("write did not advance clock")
	}
	lat, err := c.ReadAt(make([]byte, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := costs.ReadFixed + 2048*costs.ReadPerByte
	if lat != want {
		t.Fatalf("sub-page read latency = %v, want full-page %v", lat, want)
	}
	// A read straddling two pages is charged two pages.
	lat, err = c.ReadAt(make([]byte, 32), 2048-16)
	if err != nil {
		t.Fatal(err)
	}
	if want := costs.ReadFixed + 4096*costs.ReadPerByte; lat != want {
		t.Fatalf("straddling read latency = %v, want %v", lat, want)
	}
}

func TestBatchWriteAmortizesFixedCost(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	costs := DefaultCosts()
	// One 64-page write must be cheaper than 64 single-page writes (P3).
	batch, err := c.WriteAt(make([]byte, 128<<10), 0)
	if err != nil {
		t.Fatal(err)
	}
	single := costs.WriteFixed + 2048*costs.WritePerByte
	if batch >= 64*single {
		t.Fatalf("batched write %v not cheaper than 64 singles %v", batch, 64*single)
	}
	if want := costs.WriteFixed + (128<<10)*costs.WritePerByte; batch != want {
		t.Fatalf("batch latency = %v, want %v", batch, want)
	}
}

func TestPageReadLatencyCalibration(t *testing.T) {
	// Table 2 reports ≈0.24 ms per flash I/O on the chip.
	c, _ := newTestChip(t, 1<<20)
	c.WriteAt(make([]byte, 2048), 0)
	lat, _ := c.ReadAt(make([]byte, 2048), 0)
	ms := float64(lat) / float64(time.Millisecond)
	if ms < 0.15 || ms > 0.35 {
		t.Fatalf("page read = %.3f ms, want ≈0.24 ms", ms)
	}
}

func TestCounters(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	c.WriteAt(make([]byte, 2048), 0)
	c.ReadAt(make([]byte, 2048), 0)
	c.Erase(0, 128<<10)
	cnt := c.Counters()
	if cnt.Writes != 1 || cnt.Reads != 1 || cnt.Erases != 1 {
		t.Fatalf("counters = %+v", cnt)
	}
	if cnt.BytesWritten != 2048 || cnt.BytesRead != 2048 {
		t.Fatalf("byte counters = %+v", cnt)
	}
	if cnt.BusyTime <= 0 {
		t.Fatal("BusyTime not accumulated")
	}
}

func TestClockAdvances(t *testing.T) {
	c, clock := newTestChip(t, 1<<20)
	lat, _ := c.WriteAt(make([]byte, 2048), 0)
	if clock.Now() != lat {
		t.Fatalf("clock = %v, want %v", clock.Now(), lat)
	}
}

func TestFaultInjection(t *testing.T) {
	c, clock := newTestChip(t, 1<<20)
	boom := errors.New("boom")
	c.SetFault(func(op storage.Op, off int64, n int) error {
		if op == storage.OpWrite {
			return boom
		}
		return nil
	})
	if _, err := c.WriteAt(make([]byte, 2048), 0); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	if clock.Now() != 0 {
		t.Fatal("failed op charged latency")
	}
	c.SetFault(nil)
	if _, err := c.WriteAt(make([]byte, 2048), 0); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
}

func TestMultiBlockWrite(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	// A write spanning two blocks must respect both frontiers.
	data := make([]byte, 256<<10)
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Both blocks now full; next write must go to block 2.
	if _, err := c.WriteAt(make([]byte, 2048), 256<<10); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthIO(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	if _, err := c.ReadAt(nil, 0); err != nil {
		t.Fatalf("zero-length read failed: %v", err)
	}
	if _, err := c.WriteAt(nil, 0); err != nil {
		t.Fatalf("zero-length write failed: %v", err)
	}
}

func TestReadBatchPlaneOverlap(t *testing.T) {
	c, clock := newTestChip(t, 1<<20)
	ps := int64(c.cfg.PageSize)
	if _, err := c.WriteAt(make([]byte, 8*ps), 0); err != nil {
		t.Fatal(err)
	}
	// Four discontiguous page reads over two planes: each pays the fixed
	// sense cost (distinct runs); two lanes of two requests each.
	reqs := []storage.ReadReq{
		{P: make([]byte, ps), Off: 0},
		{P: make([]byte, ps), Off: 2 * ps},
		{P: make([]byte, ps), Off: 4 * ps},
		{P: make([]byte, ps), Off: 6 * ps},
	}
	before := clock.Now()
	batch, err := c.ReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now()-before != batch {
		t.Fatal("clock advance != batch latency")
	}
	per := c.cfg.Costs.ReadFixed + time.Duration(ps)*c.cfg.Costs.ReadPerByte
	if want := 2 * per; batch != want {
		t.Fatalf("2-plane batch of 4 page reads = %v, want %v", batch, want)
	}
	if got := c.Counters().Reads; got < 4 {
		t.Fatalf("Reads = %d, want per-request accounting", got)
	}
}

func TestReadBatchSequentialRun(t *testing.T) {
	c, _ := newTestChip(t, 1<<20)
	ps := int64(c.cfg.PageSize)
	if _, err := c.WriteAt(make([]byte, 4*ps), 0); err != nil {
		t.Fatal(err)
	}
	reqs := []storage.ReadReq{
		{P: make([]byte, ps), Off: 0},
		{P: make([]byte, ps), Off: ps},
		{P: make([]byte, ps), Off: 2 * ps},
		{P: make([]byte, ps), Off: 3 * ps},
	}
	batch, err := c.ReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	perByte := time.Duration(ps) * c.cfg.Costs.ReadPerByte
	// One fixed cost on the run head; transfers split over two planes. The
	// head lane carries fixed + 2 transfers.
	want := c.cfg.Costs.ReadFixed + 2*perByte
	if batch != want {
		t.Fatalf("sequential batch = %v, want %v", batch, want)
	}
}
