package ssd

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

const kib = 1024

func newIntel(capacity int64) (*SSD, *vclock.Clock) {
	clock := vclock.New()
	return New(IntelX18M(), capacity, clock), clock
}

func newTranscend(capacity int64) (*SSD, *vclock.Clock) {
	clock := vclock.New()
	return New(TranscendTS32(), capacity, clock), clock
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestGeometryRoundedToBlocks(t *testing.T) {
	s, _ := newIntel(100 * kib) // rounds up to 128 KiB
	if got := s.Geometry().Capacity; got != 128*kib {
		t.Fatalf("capacity = %d, want 128KiB", got)
	}
	if s.Geometry().PageSize != 4096 || s.prof.BlockSize() != 128*kib {
		t.Fatalf("geometry = %+v", s.Geometry())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, mk := range []func(int64) (*SSD, *vclock.Clock){newIntel, newTranscend} {
		s, _ := mk(1 << 20)
		data := make([]byte, 8192)
		for i := range data {
			data[i] = byte(i)
		}
		if _, err := s.WriteAt(data, 4096); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := s.ReadAt(got, 4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", s.prof.Name)
		}
	}
}

func TestAlignmentEnforced(t *testing.T) {
	s, _ := newIntel(1 << 20)
	if _, err := s.WriteAt(make([]byte, 100), 0); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned write accepted: %v", err)
	}
	if _, err := s.WriteAt(make([]byte, 4096), 1<<20); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range write accepted: %v", err)
	}
	// Byte-granularity reads are fine (charged per sector).
	s.WriteAt(make([]byte, 4096), 0)
	if _, err := s.ReadAt(make([]byte, 10), 5); err != nil {
		t.Fatalf("sub-sector read rejected: %v", err)
	}
}

func TestIntelCleanLatencyCalibration(t *testing.T) {
	s, _ := newIntel(16 << 20)
	s.WriteAt(make([]byte, 4096), 0)

	// 4 KB random read ≈ 0.15 ms (§7.2.2).
	lat, _ := s.ReadAt(make([]byte, 4096), 0)
	if m := ms(lat); m < 0.10 || m > 0.25 {
		t.Errorf("clean 4KB read = %.3f ms, want ≈0.15", m)
	}
	// Clean 4 KB random write ≈ 0.3 ms (§7.3.1 low-rate insert latency).
	lat, _ = s.WriteAt(make([]byte, 4096), 8192)
	if m := ms(lat); m < 0.15 || m > 0.45 {
		t.Errorf("clean 4KB write = %.3f ms, want ≈0.27", m)
	}
	// Sequential 128 KB write ≈ 2.5 ms (paper worst-case flush 2.72 ms).
	lat, _ = s.WriteAt(make([]byte, 128*kib), 128*kib)
	if m := ms(lat); m < 1.5 || m > 3.5 {
		t.Errorf("seq 128KB write = %.3f ms, want ≈2.5", m)
	}
}

func TestTranscendLatencyCalibration(t *testing.T) {
	s, _ := newTranscend(16 << 20)
	s.WriteAt(make([]byte, 128*kib), 0)

	// 4 KB read ≈ 0.55 ms.
	lat, _ := s.ReadAt(make([]byte, 4096), 0)
	if m := ms(lat); m < 0.4 || m > 0.7 {
		t.Errorf("4KB read = %.3f ms, want ≈0.55", m)
	}
	// Second-cycle sequential 128 KB write (erase + program) ≈ 28 ms.
	lat, _ = s.WriteAt(make([]byte, 128*kib), 0)
	if m := ms(lat); m < 20 || m > 35 {
		t.Errorf("cyclic 128KB write = %.3f ms, want ≈28", m)
	}
	// Out-of-order small writes: staged in log blocks, with every
	// LogBlockSlots-th write paying a whole-block merge. The mean should
	// land around 10 ms with a multi-tens-of-ms worst case (the paper's
	// Table 3 shows 18.4 ms/op for backlogged BDB inserts, which include
	// a bucket read as well).
	var total, worst time.Duration
	const n = 8
	for i := 0; i < n; i++ {
		lat, _ = s.WriteAt(make([]byte, 4096), int64(16+8*i)*4096)
		total += lat
		if lat > worst {
			worst = lat
		}
	}
	if m := ms(total / n); m < 4 || m > 20 {
		t.Errorf("random 4KB write mean = %.3f ms, want ≈10", m)
	}
	if m := ms(worst); m < 20 || m > 45 {
		t.Errorf("random 4KB write worst (merge) = %.3f ms, want ≈30", m)
	}
}

func TestTranscendAlphaLessThanOne(t *testing.T) {
	// §6.3: on old-generation SSDs, sequentially writing a whole 128 KB
	// buffer is CHEAPER than one small random write that triggers the
	// block merge (α < 1).
	s, _ := newTranscend(16 << 20)
	s.WriteAt(make([]byte, 128*kib), 0) // populate block 0
	seq, _ := s.WriteAt(make([]byte, 128*kib), 0)
	var worstRnd time.Duration
	for i := 0; i < 8; i++ {
		rnd, _ := s.WriteAt(make([]byte, 4096), int64(16+i*4)*4096)
		if rnd > worstRnd {
			worstRnd = rnd
		}
	}
	if seq >= worstRnd {
		t.Fatalf("alpha >= 1: seq 128KB %v, merging random 4KB %v", seq, worstRnd)
	}
}

func TestTranscendAppendIsCheap(t *testing.T) {
	s, _ := newTranscend(16 << 20)
	s.WriteAt(make([]byte, 4096), 0)
	app, _ := s.WriteAt(make([]byte, 4096), 4096) // append at frontier
	if m := ms(app); m > 3 {
		t.Fatalf("append write = %.3f ms, want cheap (<3ms)", m)
	}
}

// fillSequential writes the whole logical space once.
func fillSequential(t *testing.T, s *SSD) {
	t.Helper()
	g := s.Geometry()
	buf := make([]byte, 128*kib)
	for off := int64(0); off < g.Capacity; off += int64(len(buf)) {
		if _, err := s.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIntelSustainedRandomWriteStreamDegrades(t *testing.T) {
	// §7.2.2: under a high random-write rate the Intel SSD exhausts its
	// erased-block pool; each write then pays a share of synchronous GC.
	s, _ := newIntel(64 << 20)
	fillSequential(t, s)
	g := s.Geometry()
	rng := rand.New(rand.NewSource(7))
	nSectors := g.Capacity / 4096

	var wTotal time.Duration
	const ops = 8000
	buf := make([]byte, 4096)
	for i := 0; i < ops; i++ {
		lat, err := s.WriteAt(buf, rng.Int63n(nSectors)*4096)
		if err != nil {
			t.Fatal(err)
		}
		wTotal += lat
	}
	wMean := ms(wTotal / ops)
	t.Logf("write stream: mean %.3f ms, GC runs %d, pages moved %d",
		wMean, s.Counters().GCRuns, s.Counters().PagesMoved)
	if wMean < 1.0 {
		t.Errorf("write mean %.3f ms: random writes did not degrade (want ≥1ms, paper ~4.8)", wMean)
	}
	if s.Counters().GCRuns == 0 {
		t.Error("no GC runs under sustained random writes")
	}
	// A clean device writes the same sector in ~0.27 ms; sustained random
	// writes must be several times slower.
	clean, _ := newIntel(64 << 20)
	cleanLat, _ := clean.WriteAt(buf, 0)
	if wMean < 3*ms(cleanLat) {
		t.Errorf("sustained write mean %.3f ms < 3x clean %.3f ms", wMean, ms(cleanLat))
	}
}

func TestIntelReadsSlowedByWriteLoad(t *testing.T) {
	// §7.2.2: reads arriving while the pool is depleted block on
	// reclamation. (This is why Berkeley-DB — whose inserts are
	// read-modify-write — sees both lookups and inserts at ~4.6–4.8 ms.)
	s, _ := newIntel(64 << 20)
	fillSequential(t, s)
	g := s.Geometry()
	rng := rand.New(rand.NewSource(7))
	nSectors := g.Capacity / 4096

	var rTotal time.Duration
	const ops = 4000
	buf := make([]byte, 4096)
	for i := 0; i < ops; i++ {
		if _, err := s.WriteAt(buf, rng.Int63n(nSectors)*4096); err != nil {
			t.Fatal(err)
		}
		lat, err := s.ReadAt(buf, rng.Int63n(nSectors)*4096)
		if err != nil {
			t.Fatal(err)
		}
		rTotal += lat
	}
	rMean := ms(rTotal / ops)
	t.Logf("interleaved: read mean %.3f ms (clean read is 0.15 ms)", rMean)
	if rMean < 0.5 {
		t.Errorf("read mean %.3f ms: reads not slowed by GC backlog (want ≥0.5ms, paper ~4.6)", rMean)
	}
}

func TestIntelCyclicSequentialStaysFast(t *testing.T) {
	// BufferHash's write pattern: large sequential writes cycling through
	// the device leave GC victims fully invalid, so writes stay cheap even
	// after many device cycles.
	s, _ := newIntel(16 << 20)
	g := s.Geometry()
	buf := make([]byte, 128*kib)
	var total time.Duration
	n := 0
	for cycle := 0; cycle < 6; cycle++ {
		for off := int64(0); off < g.Capacity; off += int64(len(buf)) {
			lat, err := s.WriteAt(buf, off)
			if err != nil {
				t.Fatal(err)
			}
			total += lat
			n++
		}
	}
	mean := ms(total / time.Duration(n))
	t.Logf("cyclic sequential: mean %.3f ms per 128KB write, pages moved %d", mean, s.Counters().PagesMoved)
	if mean > 5 {
		t.Errorf("cyclic sequential write mean %.3f ms, want < 5 ms", mean)
	}
	// GC should find (nearly) fully-invalid victims: relocations must be a
	// tiny fraction of pages written.
	written := s.Counters().BytesWritten / 4096
	if moved := s.Counters().PagesMoved; moved > written/20 {
		t.Errorf("GC moved %d pages for %d written: sequential pattern should be nearly free", moved, written)
	}
}

func TestIdleTimeRestoresPool(t *testing.T) {
	s, clock := newIntel(64 << 20)
	fillSequential(t, s)
	rng := rand.New(rand.NewSource(3))
	g := s.Geometry()
	nSectors := g.Capacity / 4096
	buf := make([]byte, 4096)
	// Degrade the device.
	for i := 0; i < 3000; i++ {
		s.WriteAt(buf, rng.Int63n(nSectors)*4096)
	}
	degraded, _ := s.WriteAt(buf, rng.Int63n(nSectors)*4096)
	// One virtual second of idle lets background GC rebuild the pool.
	clock.Advance(time.Second)
	free0 := len(s.freeBlocks)
	recovered, _ := s.WriteAt(buf, rng.Int63n(nSectors)*4096)
	if len(s.freeBlocks) < free0-1 {
		t.Fatalf("pool did not grow during idle: %d -> %d", free0, len(s.freeBlocks))
	}
	t.Logf("degraded %.3f ms, after idle %.3f ms, free blocks %d", ms(degraded), ms(recovered), len(s.freeBlocks))
	if recovered >= degraded && degraded > 2*time.Millisecond {
		t.Errorf("idle time did not restore write latency: %v -> %v", degraded, recovered)
	}
}

func TestDataIntegrityUnderGC(t *testing.T) {
	// Property: after thousands of random overwrites that force garbage
	// collection, every sector reads back its last-written contents.
	s, _ := newIntel(8 << 20)
	g := s.Geometry()
	nSectors := g.Capacity / 4096
	ref := make([]byte, g.Capacity)
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 4096)
	for i := 0; i < 6000; i++ {
		sec := rng.Int63n(nSectors)
		for j := range buf {
			buf[j] = byte(rng.Intn(256))
		}
		if _, err := s.WriteAt(buf, sec*4096); err != nil {
			t.Fatal(err)
		}
		copy(ref[sec*4096:], buf)
	}
	if s.Counters().GCRuns == 0 {
		t.Fatal("test did not exercise GC")
	}
	got := make([]byte, g.Capacity)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("data corrupted by FTL garbage collection")
	}
}

func TestTrimInvalidates(t *testing.T) {
	s, _ := newIntel(8 << 20)
	fillSequential(t, s)
	moved0 := s.Counters().PagesMoved
	// Trim everything: subsequent writes should find free victims easily.
	if err := s.Trim(0, s.Geometry().Capacity); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		s.WriteAt(buf, rng.Int63n(s.Geometry().Capacity/4096)*4096)
	}
	if moved := s.Counters().PagesMoved - moved0; moved > 100 {
		t.Errorf("GC moved %d pages after full trim, want ~0", moved)
	}
	// Trimmed data reads as zero.
	s2, _ := newIntel(1 << 20)
	data := []byte("hello")
	padded := make([]byte, 4096)
	copy(padded, data)
	s2.WriteAt(padded, 0)
	s2.Trim(0, 4096)
	got := make([]byte, 5)
	s2.ReadAt(got, 0)
	if !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("trimmed sector not zeroed: %q", got)
	}
}

func TestTrimAlignment(t *testing.T) {
	s, _ := newIntel(1 << 20)
	if err := s.Trim(100, 4096); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned trim accepted: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	s, clock := newIntel(1 << 20)
	boom := errors.New("boom")
	s.SetFault(func(op storage.Op, off int64, n int) error { return boom })
	if _, err := s.ReadAt(make([]byte, 4096), 0); !errors.Is(err, boom) {
		t.Fatal("read fault not injected")
	}
	if _, err := s.WriteAt(make([]byte, 4096), 0); !errors.Is(err, boom) {
		t.Fatal("write fault not injected")
	}
	if clock.Now() != 0 {
		t.Fatal("failed ops charged latency")
	}
}

func TestCountersAccumulate(t *testing.T) {
	s, _ := newIntel(1 << 20)
	s.WriteAt(make([]byte, 8192), 0)
	s.ReadAt(make([]byte, 4096), 0)
	c := s.Counters()
	if c.Writes != 1 || c.Reads != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.BytesWritten != 8192 || c.BytesRead != 4096 {
		t.Fatalf("byte counters = %+v", c)
	}
	if c.BusyTime <= 0 {
		t.Fatal("busy time missing")
	}
}

func TestSubSectorReadChargedFullSector(t *testing.T) {
	s, _ := newIntel(1 << 20)
	s.WriteAt(make([]byte, 4096), 0)
	full, _ := s.ReadAt(make([]byte, 4096), 0)
	small, _ := s.ReadAt(make([]byte, 16), 0)
	if small != full {
		t.Fatalf("16B read %v != full sector read %v (design principle P2)", small, full)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	New(IntelX18M(), 0, vclock.New())
}

func TestReadBatchOverlapsLanes(t *testing.T) {
	s, clock := newIntel(4 << 20)
	// Lay down identifiable data across 16 scattered sectors.
	sec := int64(s.prof.SectorSize)
	offs := []int64{30, 2, 17, 9, 25, 4, 11, 28, 0, 19, 6, 22, 13, 31, 8, 15}
	for i, o := range offs {
		page := bytes.Repeat([]byte{byte(i + 1)}, int(sec))
		if _, err := s.WriteAt(page, o*sec); err != nil {
			t.Fatal(err)
		}
	}
	// Serial baseline on a twin device.
	s2, _ := newIntel(4 << 20)
	for i, o := range offs {
		page := bytes.Repeat([]byte{byte(i + 1)}, int(sec))
		if _, err := s2.WriteAt(page, o*sec); err != nil {
			t.Fatal(err)
		}
	}
	var serial time.Duration
	for _, o := range offs {
		buf := make([]byte, sec)
		lat, err := s2.ReadAt(buf, o*sec)
		if err != nil {
			t.Fatal(err)
		}
		serial += lat
	}

	reqs := make([]storage.ReadReq, len(offs))
	for i, o := range offs {
		reqs[i] = storage.ReadReq{P: make([]byte, sec), Off: o * sec}
	}
	slices.SortStableFunc(reqs, func(a, b storage.ReadReq) int { return cmp.Compare(a.Off, b.Off) })
	before := clock.Now()
	batch, err := s.ReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if advanced := clock.Now() - before; advanced != batch {
		t.Fatalf("clock advanced %v, batch charged %v", advanced, batch)
	}
	// 16 random reads over 8 lanes must land well under the serial sum and
	// at or above the single-lane bandwidth floor (sum/QueueDepth).
	if batch >= serial {
		t.Fatalf("batch %v not faster than serial %v", batch, serial)
	}
	if floor := serial / time.Duration(s.prof.QueueDepth); batch < floor/2 {
		t.Fatalf("batch %v implausibly below lane floor %v", batch, floor)
	}
	// Data integrity: reqs were sorted by address, so identify by offset.
	for _, r := range reqs {
		i := -1
		for j, o := range offs {
			if o*sec == r.Off {
				i = j
			}
		}
		if i < 0 || !bytes.Equal(r.P, bytes.Repeat([]byte{byte(i + 1)}, int(sec))) {
			t.Fatalf("data mismatch at off %d", r.Off)
		}
	}
	if got := s.Counters().Reads; got != uint64(len(offs)) {
		t.Fatalf("Reads = %d, want %d (every request accounted)", got, len(offs))
	}
}

func TestReadBatchSequentialRunDiscount(t *testing.T) {
	s, _ := newIntel(4 << 20)
	sec := int64(s.prof.SectorSize)
	buf := make([]byte, 8*sec)
	if _, err := s.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// 8 contiguous sector reads: one fixed cost + 8 transfers, overlapped.
	reqs := make([]storage.ReadReq, 8)
	for i := range reqs {
		reqs[i] = storage.ReadReq{P: make([]byte, sec), Off: int64(i) * sec}
	}
	batch, err := s.ReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	p := s.prof
	perByte := time.Duration(sec) * p.ReadPerByte
	// The run's lone fixed cost and the 8 transfers spread over 8 lanes:
	// max lane = ReadFixed + perByte.
	want := p.ReadFixed + perByte
	if batch != want {
		t.Fatalf("sequential batch = %v, want %v", batch, want)
	}
}

func TestReadBatchTranscendSingleLane(t *testing.T) {
	// QueueDepth 1: the batch equals the sorted serial sum with sequential
	// discounting — no overlap on the old device.
	s, _ := newTranscend(4 << 20)
	sec := int64(s.prof.SectorSize)
	if _, err := s.WriteAt(make([]byte, 4*sec), 0); err != nil {
		t.Fatal(err)
	}
	reqs := []storage.ReadReq{
		{P: make([]byte, sec), Off: 0},
		{P: make([]byte, sec), Off: 2 * sec},
	}
	batch, err := s.ReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	p := s.prof
	perByte := time.Duration(sec) * p.ReadPerByte
	want := 2*p.ReadFixed + 2*perByte // discontiguous: two runs, one lane
	if batch != want {
		t.Fatalf("transcend batch = %v, want %v", batch, want)
	}
}

// recountReclaimable is the brute-force definition of SSD.reclaimable:
// sealed blocks with at least one invalid page.
func recountReclaimable(s *SSD) int64 {
	var n int64
	for b := int64(0); b < s.nPhysBlocks; b++ {
		if s.blockSealed[b] && s.blockValid[b] < int32(s.prof.BlockPages) {
			n++
		}
	}
	return n
}

// TestPageMappedGCPinned drives a seeded stream of random 4 KB writes,
// multi-block writes, trims, reads and idle gaps through a small Intel
// device, so that synchronous GC (an I/O arriving at the low watermark),
// emergency GC (a write draining the pool mid-request) and background GC
// (idle credit) all run. The final clock, the GC counters and the pool
// size are pinned, so any change in victim choice or GC charging shows,
// and after every op the reclaimable counter must equal a brute-force
// recount.
func TestPageMappedGCPinned(t *testing.T) {
	s, clock := newIntel(4 << 20)
	fillSequential(t, s)
	g := s.Geometry()
	nSectors := g.Capacity / 4096
	rng := rand.New(rand.NewSource(42))
	small := make([]byte, 4096)
	big := make([]byte, 384*kib)
	var syncGC, emergencyGC, idleGC int
	for i := 0; i < 20000; i++ {
		before := s.Counters()
		isRead, isWrite := false, false
		switch op := rng.Intn(100); {
		case op < 60:
			isWrite = true
			if _, err := s.WriteAt(small, rng.Int63n(nSectors)*4096); err != nil {
				t.Fatal(err)
			}
		case op < 63:
			isWrite = true
			off := rng.Int63n(nSectors-int64(len(big))/4096) * 4096
			if _, err := s.WriteAt(big, off); err != nil {
				t.Fatal(err)
			}
		case op < 65:
			n := 1 + rng.Int63n(4)
			off := rng.Int63n(nSectors-n) * 4096
			if err := s.Trim(off, n*4096); err != nil {
				t.Fatal(err)
			}
		case op < 97:
			isRead = true
			if _, err := s.ReadAt(small, rng.Int63n(nSectors)*4096); err != nil {
				t.Fatal(err)
			}
		default:
			clock.Advance(time.Duration(rng.Int63n(int64(time.Millisecond))))
		}
		after := s.Counters()
		runs, erases := after.GCRuns-before.GCRuns, after.Erases-before.Erases
		switch {
		case isRead && runs > 0:
			syncGC++
		case isWrite && runs > 1:
			emergencyGC++
		}
		if erases > runs {
			idleGC++
		}
		if got, want := s.reclaimable, recountReclaimable(s); got != want {
			t.Fatalf("op %d: reclaimable = %d, recount = %d", i, got, want)
		}
	}
	t.Logf("sync GC on reads %d, emergency GC %d, idle GC %d", syncGC, emergencyGC, idleGC)
	if syncGC == 0 || emergencyGC == 0 || idleGC == 0 {
		t.Fatalf("stream missed a GC kind: sync %d, emergency %d, idle %d", syncGC, emergencyGC, idleGC)
	}
	// BufferHash's cyclic whole-block writes with reads and idle gaps in
	// between: the sealed blocks end up fully valid, so banked idle credit
	// meets no victim — the state every read of a long-running store sees.
	blk := make([]byte, s.prof.BlockSize())
	noVictim := 0
	for cycle := 0; cycle < 3; cycle++ {
		for off := int64(0); off < g.Capacity; off += int64(len(blk)) {
			if _, err := s.WriteAt(blk, off); err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Duration(rng.Int63n(int64(4 * time.Millisecond))))
			if _, err := s.ReadAt(small, rng.Int63n(nSectors)*4096); err != nil {
				t.Fatal(err)
			}
			if s.reclaimable == 0 && s.idleCredit >= 1 {
				noVictim++
			}
			if got, want := s.reclaimable, recountReclaimable(s); got != want {
				t.Fatalf("cycle %d off %d: reclaimable = %d, recount = %d", cycle, off, got, want)
			}
		}
	}
	if noVictim == 0 {
		t.Fatal("cyclic phase never left idle credit without a victim")
	}
	c := s.Counters()
	t.Logf("clock %d, erases %d, pages moved %d, GC runs %d, free blocks %d",
		clock.Now(), c.Erases, c.PagesMoved, c.GCRuns, len(s.freeBlocks))
	const (
		wantClock      = time.Duration(25642819400)
		wantErases     = 4255
		wantPagesMoved = 64811
		wantGCRuns     = 3265
		wantFree       = 7
	)
	if clock.Now() != wantClock || c.Erases != wantErases || c.PagesMoved != wantPagesMoved ||
		c.GCRuns != wantGCRuns || len(s.freeBlocks) != wantFree {
		t.Fatalf("got clock %d, erases %d, pages moved %d, GC runs %d, free %d; want %d, %d, %d, %d, %d",
			clock.Now(), c.Erases, c.PagesMoved, c.GCRuns, len(s.freeBlocks),
			wantClock, wantErases, wantPagesMoved, wantGCRuns, wantFree)
	}
}

// BenchmarkDepletedPoolRead is one 4 KB ReadAt on a 64 MB Intel device in
// the state a long-running BufferHash store leaves it: cyclic whole-block
// writes have drained the erased-block pool below half, idle credit is
// banked, and every sealed block is fully valid, so background GC has no
// victim. Each read follows a 1 µs idle gap, as the store's charged CPU
// time gives it, so every read runs the idle-credit step.
func BenchmarkDepletedPoolRead(b *testing.B) {
	s, clock := newIntel(64 << 20)
	g := s.Geometry()
	blk := make([]byte, s.prof.BlockSize())
	for cycle := 0; cycle < 2; cycle++ {
		for off := int64(0); off < g.Capacity; off += int64(len(blk)) {
			if _, err := s.WriteAt(blk, off); err != nil {
				b.Fatal(err)
			}
		}
	}
	clock.Advance(time.Second) // bank idle credit
	p := make([]byte, 4096)
	if _, err := s.ReadAt(p, 0); err != nil {
		b.Fatal(err)
	}
	if s.reclaimable != 0 || s.idleCredit < 1 || len(s.freeBlocks) >= int(s.nPhysBlocks)/2 {
		b.Fatalf("not depleted: reclaimable %d, idle credit %.1f, free %d of %d",
			s.reclaimable, s.idleCredit, len(s.freeBlocks), s.nPhysBlocks)
	}
	nSectors := g.Capacity / 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Microsecond)
		if _, err := s.ReadAt(p, int64(i)*7919%nSectors*4096); err != nil {
			b.Fatal(err)
		}
	}
}
