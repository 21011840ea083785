package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// vlogDevices builds one instance of every device model at a small
// capacity.
func vlogDevices(t *testing.T, capacity int64) map[string]storage.Device {
	t.Helper()
	return map[string]storage.Device{
		"ssd":  ssd.New(ssd.IntelX18M(), capacity, vclock.New()),
		"disk": disk.New(disk.Hitachi7K80(), capacity, vclock.New()),
	}
}

// appendOne appends one record through a one-element AppendBatch and
// returns its pointer word.
func appendOne(l *storage.ValueLog, key, val []byte) (ptr uint64, err error) {
	ptrs := []uint64{0}
	err = l.AppendBatch([][]byte{key}, [][]byte{val}, ptrs)
	return ptrs[0], err
}

// readOne reads one record through a one-element ReadRecordsBatch.
// ok=false means the pointer addresses no live record region.
func readOne(l *storage.ValueLog, ptr uint64) (rec []byte, ok bool, err error) {
	reqs := []storage.ValueReadReq{{Ptr: ptr}}
	_, err = l.ReadRecordsBatch(reqs, nil)
	return reqs[0].Rec, reqs[0].Rec != nil, err
}

// mustPtr encodes a location the log never issued, tagged with cycle.
func mustPtr(t *testing.T, off int64, n int, cycle uint64) uint64 {
	t.Helper()
	word, ok := storage.EncodeValuePtr(off, n, cycle)
	if !ok {
		t.Fatalf("location (%d, %d) not encodable", off, n)
	}
	return word
}

func TestValueLogRoundTrip(t *testing.T) {
	for name, dev := range vlogDevices(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			l, err := storage.NewValueLog(dev)
			if err != nil {
				t.Fatal(err)
			}
			type ref struct {
				ptr uint64
				key []byte
				val []byte
			}
			var refs []ref
			// Variable-length records, including empty values and records
			// far larger than a page (spanning pages and flush chunks).
			for i := 0; i < 300; i++ {
				key := []byte(fmt.Sprintf("key-%04d-%s", i, bytes.Repeat([]byte{'k'}, i%37)))
				val := bytes.Repeat([]byte{byte(i)}, (i*131)%2500)
				ptr, err := appendOne(l, key, val)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref{ptr, key, val})
			}
			for _, r := range refs {
				rec, ok, err := readOne(l, r.ptr)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("record %#x unreadable before any wrap", r.ptr)
				}
				val, ok := storage.VerifyRecord(rec, r.key)
				if !ok {
					t.Fatalf("record %#x failed key verification", r.ptr)
				}
				if !bytes.Equal(val, r.val) {
					t.Fatalf("record %#x value mismatch: %d vs %d bytes", r.ptr, len(val), len(r.val))
				}
				// The wrong key must never verify.
				if _, ok := storage.VerifyRecord(rec, append([]byte("x"), r.key...)); ok {
					t.Fatal("record verified under a different key")
				}
			}
			if st := l.Stats(); st.Records != 300 || st.Wraps != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestValueLogBatchedReads(t *testing.T) {
	for name, dev := range vlogDevices(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			l, err := storage.NewValueLog(dev)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([][]byte, 200)
			vals := make([][]byte, 200)
			reqs := make([]storage.ValueReadReq, 200)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("batch-key-%05d", i))
				vals[i] = bytes.Repeat([]byte{byte(i), byte(i >> 3)}, 1+(i*97)%800)
				ptr, err := appendOne(l, keys[i], vals[i])
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = storage.ValueReadReq{Ptr: ptr}
			}
			// Bogus requests must come back nil without disturbing others:
			// a pointer past the capacity and an untagged inline word.
			reqs = append(reqs, storage.ValueReadReq{Ptr: mustPtr(t, l.Stats().Capacity-4, 64, l.Cycle())},
				storage.ValueReadReq{Ptr: 1 << 40})
			// Two calls reuse one arena, as a shard's get chunks do: both
			// outgrow it, and each call's records must verify until the
			// arena's next use.
			arena := make([]byte, 0, 64)
			for _, half := range [][2]int{{0, 100}, {100, len(keys)}} {
				if arena, err = l.ReadRecordsBatch(reqs[half[0]:], arena); err != nil {
					t.Fatal(err)
				}
				for i := half[0]; i < half[1]; i++ {
					if reqs[i].Rec == nil {
						t.Fatalf("request %d unresolved", i)
					}
					val, ok := storage.VerifyRecord(reqs[i].Rec, keys[i])
					if !ok || !bytes.Equal(val, vals[i]) {
						t.Fatalf("request %d verification failed", i)
					}
				}
			}
			if reqs[200].Rec != nil || reqs[201].Rec != nil {
				t.Fatal("out-of-range request resolved")
			}
		})
	}
}

func TestValueLogWrapInvalidatesOldRecords(t *testing.T) {
	for name, dev := range vlogDevices(t, 256<<10) {
		t.Run(name, func(t *testing.T) {
			l, err := storage.NewValueLog(dev)
			if err != nil {
				t.Fatal(err)
			}
			val := bytes.Repeat([]byte{0xAB}, 4000)
			firstKey := []byte("first-record")
			first, err := appendOne(l, firstKey, val)
			if err != nil {
				t.Fatal(err)
			}
			// Fill several times the capacity so the head laps the first
			// record repeatedly.
			lastKey := []byte("last-record")
			for i := 0; l.Stats().Wraps < 3; i++ {
				key := []byte(fmt.Sprintf("filler-%06d", i))
				if _, err := appendOne(l, key, val); err != nil {
					t.Fatal(err)
				}
			}
			last, err := appendOne(l, lastKey, val)
			if err != nil {
				t.Fatal(err)
			}

			// The overwritten record reads as a miss with no device
			// request: its cycle is three back and the head is past it.
			before, skipped := dev.Counters(), l.Stats().SkippedReads
			rec, ok, err := readOne(l, first)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("lapped record read back %d bytes", len(rec))
			}
			if after := dev.Counters(); after != before || l.Stats().SkippedReads != skipped+1 {
				t.Fatalf("lapped record cost device I/O or went uncounted: %+v -> %+v, %d skipped reads",
					before, after, l.Stats().SkippedReads)
			}
			// Read with the rule off, its bytes are another record's.
			off, n, _, _ := storage.DecodeValuePtr(first)
			if rec, ok, err = readOne(l, mustPtr(t, off, n, l.Cycle())); err != nil {
				t.Fatal(err)
			}
			if _, verified := storage.VerifyRecord(rec, firstKey); ok && verified {
				t.Fatal("lapped record still verifies under its key")
			}
			// The newest record is intact.
			rec, ok, err = readOne(l, last)
			if err != nil || !ok {
				t.Fatalf("newest record unreadable: %v %v", ok, err)
			}
			if got, verified := storage.VerifyRecord(rec, lastKey); !verified || !bytes.Equal(got, val) {
				t.Fatal("newest record failed verification after wraps")
			}
		})
	}
}

// TestValueLogStraddlingFlushFrontier pins the three-way read split: a
// record partly written to the device and partly still in the tail buffer
// must read back whole.
func TestValueLogStraddlingFlushFrontier(t *testing.T) {
	dev := ssd.New(ssd.IntelX18M(), 1<<20, vclock.New())
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	// One record bigger than the write unit: appending it writes its
	// leading unit, leaving its tail buffered.
	key := []byte("straddler")
	val := bytes.Repeat([]byte{0x5C}, l.Unit()+6<<10)
	ptr, err := appendOne(l, key, val)
	if err != nil {
		t.Fatal(err)
	}
	n := storage.RecordSize(len(key), len(val))
	if st := l.Stats(); st.BufferedBytes == 0 || st.BufferedBytes >= int64(n) {
		t.Fatalf("expected a partially flushed record, buffered=%d of %d", st.BufferedBytes, n)
	}
	rec, ok, err := readOne(l, ptr)
	if err != nil || !ok {
		t.Fatalf("straddling read: %v %v", ok, err)
	}
	if got, verified := storage.VerifyRecord(rec, key); !verified || !bytes.Equal(got, val) {
		t.Fatal("straddling record corrupted")
	}
}

// writeRecorder records the range of every write it forwards.
type writeRecorder struct {
	storage.Device
	writes [][2]int64 // offset, length
}

func (d *writeRecorder) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.writes = append(d.writes, [2]int64{off, int64(len(p))})
	return d.Device.WriteAt(p, off)
}

func (d *writeRecorder) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	for _, r := range reqs {
		d.writes = append(d.writes, [2]int64{r.Off, int64(len(r.P))})
	}
	return d.Device.WriteBatch(reqs)
}

// TestValueLogWritesWholeBlocks drives four cycles of variable-size
// records, some larger than a unit, in ragged AppendBatch calls, and
// requires every write the device sees to be one write unit aligned to
// the unit, the moment a record fills it: the device's erase block on the
// SSD, 64 KB on the disk, and a block on each member on a pair of SSDs of
// eight units and one of nine, whose cycles end with a short unit of one
// block. Whole-block writes replace whole blocks,
// so the FTL of no SSD relocates a page.
func TestValueLogWritesWholeBlocks(t *testing.T) {
	devs := vlogDevices(t, 1<<20)
	for name, units := range map[string]int64{"stripe-pair": 8, "stripe-pair-odd": 9} {
		block := int64(ssd.IntelX18M().BlockSize())
		var members []storage.Device
		for i := range 2 {
			members = append(members, ssd.New(ssd.IntelX18M(), storage.StripeShare(units, 2, i)*block, vclock.New()))
		}
		s, err := storage.NewStripe(int(block), members...)
		if err != nil {
			t.Fatal(err)
		}
		devs[name] = s
	}
	for name, dev := range devs {
		t.Run(name, func(t *testing.T) {
			rec := &writeRecorder{Device: dev}
			l, err := storage.NewValueLog(rec)
			if err != nil {
				t.Fatal(err)
			}
			unit, capacity := int64(l.Unit()), l.Stats().Capacity
			want := int64(dev.Geometry().EraseBlock)
			if want == 0 {
				want = 64 << 10
			}
			if unit != want || capacity != dev.Geometry().Capacity {
				t.Fatalf("unit %d, capacity %d; want a %d-byte unit and the device's capacity %d", unit, capacity, want, dev.Geometry().Capacity)
			}
			rng := rand.New(rand.NewSource(34))
			var keys, vals [][]byte
			for i := 0; l.Stats().Wraps < 4; i++ {
				keys, vals = keys[:0], vals[:0]
				for range 1 + rng.Intn(40) {
					n := rng.Intn(900)
					if rng.Intn(200) == 0 {
						n = int(unit) + rng.Intn(int(unit)) // spans units
					}
					keys = append(keys, []byte(fmt.Sprintf("block-key-%d", i)))
					vals = append(vals, make([]byte, n))
				}
				if err := l.AppendBatch(keys, vals, make([]uint64, len(keys))); err != nil {
					t.Fatal(err)
				}
			}
			if len(rec.writes) < 4*int(capacity/unit) {
				t.Fatalf("only %d writes over 4 cycles", len(rec.writes))
			}
			for _, w := range rec.writes {
				if w[0]%unit != 0 || w[1] != min(unit, capacity-w[0]) {
					t.Fatalf("write of %d bytes at %d: not one %d-byte unit", w[1], w[0], unit)
				}
			}
			if c := dev.Counters(); c.PagesMoved != 0 {
				t.Fatalf("the FTL relocated %d pages under whole-block writes", c.PagesMoved)
			}
			t.Logf("%d writes, %d erases, %d pages moved", len(rec.writes), dev.Counters().Erases, dev.Counters().PagesMoved)
		})
	}
}

func TestValueLogRejectsOversizeRecord(t *testing.T) {
	// The SSD rounds capacity up to whole erase blocks, so size the record
	// off the log's reported capacity rather than the requested bytes.
	dev := ssd.New(ssd.IntelX18M(), 64<<10, vclock.New())
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, []byte("k"), make([]byte, l.Stats().Capacity)); err == nil {
		t.Fatal("accepted a record larger than the log")
	}
}

// pageSizeDevice reports its device's geometry with another page size.
type pageSizeDevice struct {
	storage.Device
	pageSize int
}

func (d pageSizeDevice) Geometry() storage.Geometry {
	g := d.Device.Geometry()
	g.PageSize = d.pageSize
	return g
}

// TestValueLogRejectsOddPageSize checks that a log addresses pages by a
// shift: a device whose page size is no power of two is rejected.
func TestValueLogRejectsOddPageSize(t *testing.T) {
	dev := ssd.New(ssd.IntelX18M(), 1<<20, vclock.New())
	for _, ps := range []int{0, 3000, 4096 + 512} {
		if _, err := storage.NewValueLog(pageSizeDevice{dev, ps}); err == nil {
			t.Errorf("a device of %d-byte pages accepted", ps)
		}
	}
	if _, err := storage.NewValueLog(pageSizeDevice{dev, 2048}); err != nil {
		t.Errorf("a device of 2048-byte pages rejected: %v", err)
	}
}

func TestValueLogUnwrittenRegionReadsAsMiss(t *testing.T) {
	dev := ssd.New(ssd.IntelX18M(), 1<<20, vclock.New())
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(l, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Past the head on an unwrapped log: never written.
	if _, ok, err := readOne(l, mustPtr(t, 512<<10, 64, l.Cycle())); err != nil || ok {
		t.Fatalf("unwritten region readable: ok=%v err=%v", ok, err)
	}
}

// TestValueLogAppendBatchEquivalence drives the same record stream through
// one-record and 64-record AppendBatch calls on twin logs: pointers, wrap
// points, every readable record and the device writes, each unit the
// moment a record fills it, must be identical.
func TestValueLogAppendBatchEquivalence(t *testing.T) {
	for name := range vlogDevices(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			serialDev := vlogDevices(t, 256<<10)[name]
			batchDev := vlogDevices(t, 256<<10)[name]
			ls, err := storage.NewValueLog(serialDev)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := storage.NewValueLog(batchDev)
			if err != nil {
				t.Fatal(err)
			}
			nRecords := 900 // enough to wrap the 256 KB logs
			keys := make([][]byte, nRecords)
			vals := make([][]byte, nRecords)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%04d", i))
				vals[i] = bytes.Repeat([]byte{byte(i)}, (i*37)%700)
			}
			sp := make([]uint64, nRecords)
			bp := make([]uint64, nRecords)
			for at := 0; at < nRecords; at += 64 {
				hi := at + 64
				if hi > nRecords {
					hi = nRecords
				}
				for i := at; i < hi; i++ {
					ptr, err := appendOne(ls, keys[i], vals[i])
					if err != nil {
						t.Fatal(err)
					}
					sp[i] = ptr
				}
				if err := lb.AppendBatch(keys[at:hi], vals[at:hi], bp[at:hi]); err != nil {
					t.Fatal(err)
				}
			}
			if sp[len(sp)-1] != bp[len(bp)-1] {
				t.Fatalf("final pointers diverge: %#x vs %#x", sp[len(sp)-1], bp[len(bp)-1])
			}
			if sc, bc := serialDev.Counters(), batchDev.Counters(); sc != bc {
				t.Fatalf("device counters diverge:\nserial  %+v\nbatched %+v", sc, bc)
			}
			ss, bs := ls.Stats(), lb.Stats()
			if ss.Records != bs.Records || ss.AppendedBytes != bs.AppendedBytes || ss.Wraps != bs.Wraps {
				t.Fatalf("stats diverge:\nserial  %+v\nbatched %+v", ss, bs)
			}
			for i := range keys {
				if sp[i] != bp[i] {
					t.Fatalf("record %d pointer: serial %#x, batched %#x", i, sp[i], bp[i])
				}
				srec, sok, err := readOne(ls, sp[i])
				if err != nil {
					t.Fatal(err)
				}
				scp := append([]byte(nil), srec...)
				brec, bok, err := readOne(lb, bp[i])
				if err != nil {
					t.Fatal(err)
				}
				if sok != bok || !bytes.Equal(scp, brec) {
					t.Fatalf("record %d: serial (%v, %d bytes) vs batched (%v, %d bytes)",
						i, sok, len(scp), bok, len(brec))
				}
				sv, sgot := storage.VerifyRecord(scp, keys[i])
				bv, bgot := storage.VerifyRecord(brec, keys[i])
				if sgot != bgot || !bytes.Equal(sv, bv) {
					t.Fatalf("record %d verification diverges", i)
				}
			}
			// The batched log must not have written more often.
			if sw, bw := serialDev.Counters().Writes, batchDev.Counters().Writes; bw > sw {
				t.Fatalf("batched log wrote %d times > serial %d", bw, sw)
			}
		})
	}
}

// TestValueLogSpaceAccounting pins the live/dead/lapped bookkeeping at the
// log level: appends allocate live bytes, MarkDead moves them to the dead
// side, lapping reclaims whole regions, and stale marks are clamped.
func TestValueLogSpaceAccounting(t *testing.T) {
	dev := ssd.New(ssd.IntelX18M(), 64<<10, vclock.New())
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("space-key")
	val := bytes.Repeat([]byte{9}, 991)
	recN := storage.RecordSize(len(key), len(val))

	ptr1, err := appendOne(l, key, val)
	if err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.LiveBytes != int64(recN) || s.DeadBytes != 0 {
		t.Fatalf("after one append: %+v", s)
	}
	l.MarkDead(ptr1)
	if s := l.Stats(); s.LiveBytes != 0 || s.DeadBytes != int64(recN) {
		t.Fatalf("after MarkDead: %+v", s)
	}
	// Double-marking must clamp, not go negative.
	l.MarkDead(ptr1)
	if s := l.Stats(); s.LiveBytes < 0 || s.DeadBytes > 2*int64(recN) {
		t.Fatalf("after double MarkDead: %+v", s)
	}

	// Fill past several wraps; accounting must stay bounded by capacity and
	// the lapped counters must grow.
	for i := 0; i < 300; i++ {
		if _, err := appendOne(l, key, val); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Wraps == 0 {
		t.Fatal("log never wrapped; retune the test")
	}
	if s.LiveBytes+s.DeadBytes > s.Capacity {
		t.Fatalf("accounting exceeds capacity: %+v", s)
	}
	if s.LappedBytes == 0 || s.LappedLiveBytes == 0 {
		t.Fatalf("lapping not accounted: %+v", s)
	}
	if s.LiveBytes+s.DeadBytes <= 0 {
		t.Fatalf("no record bytes accounted: %+v", s)
	}

	// Aggregation: Add must sum the space fields so fleet occupancy stays
	// meaningful.
	var agg storage.ValueLogStats
	agg.Add(s)
	agg.Add(s)
	if agg.Capacity != 2*s.Capacity || agg.LiveBytes != 2*s.LiveBytes {
		t.Fatalf("Add did not sum space fields: %+v", agg)
	}
}

// TestValueLogReadAllocs pins that, once warm, a batch of unsorted record
// reads allocates nothing: the caller's arena is reused across calls, the
// log reuses its request and sort slices, and the device serves the sorted
// submission in place.
func TestValueLogReadAllocs(t *testing.T) {
	for name, dev := range vlogDevices(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			l, err := storage.NewValueLog(dev)
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]storage.ValueReadReq, 256)
			for i := range reqs {
				ptr, err := appendOne(l, []byte(fmt.Sprintf("alloc-key-%05d", i)), bytes.Repeat([]byte{byte(i)}, 100))
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = storage.ValueReadReq{Ptr: ptr}
			}
			// A fixed stride permutation: consecutive requests are far
			// apart in the log, so the log must sort the submission.
			perm := make([]storage.ValueReadReq, len(reqs))
			for i := range perm {
				perm[i] = reqs[i*97%len(reqs)]
			}
			var arena []byte
			read := func() {
				var err error
				if arena, err = l.ReadRecordsBatch(perm, arena); err != nil {
					t.Fatal(err)
				}
			}
			read()
			for i := range perm {
				if perm[i].Rec == nil {
					t.Fatalf("request %d unresolved", i)
				}
			}
			if a := testing.AllocsPerRun(20, read); a != 0 {
				t.Errorf("ReadRecordsBatch of %d unsorted records allocates %v per call, want 0", len(perm), a)
			}
		})
	}
}
