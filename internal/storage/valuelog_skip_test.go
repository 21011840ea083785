package storage_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// skipModels builds the devices the skip-rule streams run on: one per
// model, the SSD, the disk and the two-member stripes of stripeModels
// (pairs of SSDs of an odd and an even number of units, and of disks),
// small enough that a stream wraps its log several times.
var skipModels = [...]struct {
	name string
	dev  func(*vclock.Clock) storage.Device
}{
	{"ssd", func(c *vclock.Clock) storage.Device { return ssd.New(ssd.IntelX18M(), 256<<10, c) }},
	{"disk", func(c *vclock.Clock) storage.Device { return disk.New(disk.Hitachi7K80(), 256<<10, c) }},
	{"stripe-ssd", func(c *vclock.Clock) storage.Device { return ssdStripe(8, 256<<10, c) }},
	{"stripe-pair", func(c *vclock.Clock) storage.Device { return ssdPair(8, 256<<10, c) }},
	{"stripe-disk", func(c *vclock.Clock) storage.Device { return diskStripe(256<<10, c) }},
}

const (
	skipStreamWraps   = 6    // a stream ends once its log wrapped this often
	skipStreamRecords = 3000 // or once it appended this many records
	skipSample        = 48   // pointers read after an append that did not wrap
)

// skipTally counts what a stream's reads met.
type skipTally struct {
	reads     int // pointers read, on the log under test
	hits      int // of those, verified under their key
	prevHits  int // of those, hits on the previous cycle's records
	skipped   int // answered as misses with no device request
	prevSkips int // of those, the previous cycle's records behind the head
	deepSkips int // of those, records two or more cycles old at or past the head
}

func (a *skipTally) add(b skipTally) {
	a.reads += b.reads
	a.hits += b.hits
	a.prevHits += b.prevHits
	a.skipped += b.skipped
	a.prevSkips += b.prevSkips
	a.deepSkips += b.deepSkips
}

// checkSkipStream drives two logs over twin devices of one model through
// the append stream data describes, and checks the skip rule after every
// append batch. Each byte of data (cycled) is one record: below 0x80 a
// value of 4*b bytes, from 0x80 up a value of up to three device pages, so
// records run from a header plus a two-byte key to more than two pages,
// and a batch ends at a byte divisible by 8 or at 24 records.
//
// Keys are unique, each a uvarint record number ending in 0xEE, and value
// bytes are at least 0x10. So bytes a later cycle rewrote never read back
// as an intact record header: a rewritten range cannot verify. (A rewrite
// can repeat a record's bytes in general, say a one-byte overlap whose
// new byte equals the old key length, and then the rule answers a miss
// where a read would have verified. The stream rules that out, so that
// the twin's answer is exact.)
//
// After every batch the test reads a sample of the pointers issued so far,
// and every one of them after a batch that wrapped the log and at the end
// of the stream. The first log reads each pointer word as AppendBatch
// filled it. Its twin reads the same location tagged with its current
// cycle, which the rule never skips: the read the log made before the
// rule. Both answers, verified under the record's key, must agree. The
// first log must skip exactly the records the rule names: with c the
// current cycle, cycle c-1's records behind the head and every record of
// an older cycle. A skip must add no page to the submission and nothing
// to the device's Counters or clock: a third log, appended the same
// stream, reads only the records the first log read and must end each
// check with its Counters and clock, and the skipped records read again,
// as one batch and a few alone, must move neither. SkippedReads must
// count every skip.
func checkSkipStream(t *testing.T, model int, data []byte) skipTally {
	t.Helper()
	if len(data) == 0 {
		data = []byte{1}
	}
	m := skipModels[model%len(skipModels)]
	clk := vclock.New()
	dev := m.dev(clk)
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := storage.NewValueLog(m.dev(vclock.New()))
	if err != nil {
		t.Fatal(err)
	}
	keptClk := vclock.New()
	keptDev := m.dev(keptClk)
	kept, err := storage.NewValueLog(keptDev)
	if err != nil {
		t.Fatal(err)
	}
	ps := dev.Geometry().PageSize
	rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))

	type record struct {
		key, val []byte
		word     uint64
		off      int64
		n        int
		cycle    uint64 // absolute: 1 for the log's first pass
	}
	var (
		recs  []record
		cycle = uint64(1)
		head  int64 // end of the newest record
		pos   int
		tally skipTally
	)
	// check reads recs[i] for every i in idx on both logs.
	check := func(idx []int) {
		reqs := make([]storage.ValueReadReq, len(idx))
		rereqs := make([]storage.ValueReadReq, len(idx))
		for j, i := range idx {
			reqs[j].Ptr = recs[i].word
			word, ok := storage.EncodeValuePtr(recs[i].off, recs[i].n, twin.Cycle())
			if !ok {
				t.Fatalf("record %d (%d, %d) not encodable", i, recs[i].off, recs[i].n)
			}
			rereqs[j].Ptr = word
		}
		skipped0 := l.Stats().SkippedReads
		if _, err := l.ReadRecordsBatch(reqs, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.ReadRecordsBatch(rereqs, nil); err != nil {
			t.Fatal(err)
		}
		var skips []int
		var read []storage.ValueReadReq
		for j, i := range idx {
			r := recs[i]
			got, ok := storage.VerifyRecord(reqs[j].Rec, r.key)
			want, wantOK := storage.VerifyRecord(rereqs[j].Rec, r.key)
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("cycle %d, head %d: record %d (%d, %d) of cycle %d reads (%v, %d bytes), without the rule (%v, %d bytes)",
					cycle, head, i, r.off, r.n, r.cycle, ok, len(got), wantOK, len(want))
			}
			if ok && !bytes.Equal(got, r.val) {
				t.Fatalf("record %d verified with a wrong value", i)
			}
			overwritten := r.cycle+1 < cycle || r.cycle+1 == cycle && r.off < head
			if rereqs[j].Rec == nil {
				t.Fatalf("record %d (%d, %d) unread without the rule", i, r.off, r.n)
			}
			if skipped := reqs[j].Rec == nil; skipped != overwritten {
				t.Fatalf("cycle %d, head %d: record %d (%d, %d) of cycle %d skipped=%v, overwritten=%v",
					cycle, head, i, r.off, r.n, r.cycle, skipped, overwritten)
			}
			if overwritten {
				skips = append(skips, i)
				switch {
				case r.cycle+1 == cycle:
					tally.prevSkips++
				case r.off >= head:
					tally.deepSkips++
				}
				continue
			}
			tally.reads++
			read = append(read, storage.ValueReadReq{Ptr: r.word})
			if ok {
				tally.hits++
				if r.cycle < cycle {
					tally.prevHits++
				}
			}
		}
		if d := l.Stats().SkippedReads - skipped0; d != uint64(len(skips)) {
			t.Fatalf("SkippedReads rose by %d for %d skipped records", d, len(skips))
		}
		tally.skipped += len(skips)
		// The records read, alone on the kept twin: the same pages, the
		// same time.
		if _, err := kept.ReadRecordsBatch(read, nil); err != nil {
			t.Fatal(err)
		}
		if dev.Counters() != keptDev.Counters() || clk.Now() != keptClk.Now() {
			t.Fatalf("cycle %d, head %d: counters %+v and clock %v, reading only the records read %+v and %v",
				cycle, head, dev.Counters(), clk.Now(), keptDev.Counters(), keptClk.Now())
		}
		// The skipped reads as one batch, and a few alone: no device
		// request, no time.
		c0, t0 := dev.Counters(), clk.Now()
		all := make([]storage.ValueReadReq, len(skips))
		for j, i := range skips {
			all[j].Ptr = recs[i].word
		}
		if _, err := l.ReadRecordsBatch(all, nil); err != nil {
			t.Fatal(err)
		}
		for j, r := range all {
			if r.Rec != nil {
				t.Fatalf("skipped record %d read %d bytes in a batch of %d", skips[j], len(r.Rec), len(all))
			}
		}
		if dev.Counters() != c0 || clk.Now() != t0 {
			t.Fatalf("%d skipped records moved counters %+v -> %+v, clock %v -> %v",
				len(all), c0, dev.Counters(), t0, clk.Now())
		}
		for _, i := range skips[:min(len(skips), 8)] {
			c0, t0 := dev.Counters(), clk.Now()
			req := []storage.ValueReadReq{{Ptr: recs[i].word}}
			if _, err := l.ReadRecordsBatch(req, nil); err != nil {
				t.Fatal(err)
			}
			if req[0].Rec != nil || dev.Counters() != c0 || clk.Now() != t0 {
				t.Fatalf("skipped record %d read %d bytes, counters %+v -> %+v, clock %v -> %v",
					i, len(req[0].Rec), c0, dev.Counters(), t0, clk.Now())
			}
		}
	}

	var idx []int
	for l.Stats().Wraps < skipStreamWraps && len(recs) < skipStreamRecords {
		var keys, vals [][]byte
		for {
			b := data[pos%len(data)]
			pos++
			vlen := 4 * int(b)
			if b >= 0x80 {
				vlen = 1 + int(b&0x7f)*3*ps/0x7f
			}
			keys = append(keys, append(binary.AppendUvarint(nil, uint64(len(recs)+len(keys))), 0xEE))
			vals = append(vals, bytes.Repeat([]byte{0x10 | b}, vlen))
			if b%8 == 0 || len(keys) == 24 {
				break
			}
		}
		words, twinWords := make([]uint64, len(keys)), make([]uint64, len(keys))
		if err := l.AppendBatch(keys, vals, words); err != nil {
			t.Fatal(err)
		}
		if err := twin.AppendBatch(keys, vals, twinWords); err != nil {
			t.Fatal(err)
		}
		if err := kept.AppendBatch(keys, vals, make([]uint64, len(keys))); err != nil {
			t.Fatal(err)
		}
		wrapped := false
		for i, w := range words {
			off, n, tag, ok := storage.DecodeValuePtr(w)
			if !ok || twinWords[i] != w {
				t.Fatalf("record %d: pointer %#x, twin's %#x", len(recs), w, twinWords[i])
			}
			if off == 0 && len(recs) > 0 {
				cycle++
				wrapped = true
			}
			if tag != cycle%64 {
				t.Fatalf("record %d of cycle %d tagged %d", len(recs), cycle, tag)
			}
			head = off + int64(n)
			recs = append(recs, record{keys[i], vals[i], w, off, n, cycle})
		}
		if l.Cycle() != cycle {
			t.Fatalf("log cycle %d, stream cycle %d", l.Cycle(), cycle)
		}
		idx = idx[:0]
		if wrapped {
			for i := range recs {
				idx = append(idx, i)
			}
		} else {
			for range skipSample {
				idx = append(idx, rng.Intn(len(recs)))
			}
		}
		check(idx)
	}
	idx = idx[:0]
	for i := range recs {
		idx = append(idx, i)
	}
	check(idx)
	return tally
}

// skipSeeds are FuzzValueLogSkips's seed corpus, run on every model.
func skipSeeds() [][]byte {
	rng := rand.New(rand.NewSource(22))
	mixed := make([]byte, 97)
	rng.Read(mixed)
	small := make([]byte, 61)
	for i := range small {
		small[i] = byte(rng.Intn(0x80))
	}
	return [][]byte{
		mixed,
		small,
		{0x81, 0xff, 0x13, 0xc0, 0x7f, 0x00, 0xa5, 0x5a, 0xfe, 0x08},
		{0x00, 0x9f},       // a header plus a key, then a record of one and a half pages
		{0xff, 0xfe, 0xf7}, // three-page records
		// Cycles closed by records that do not fit, at varying offsets.
		{0x40, 0x40, 0x40, 0x40, 0xff, 0xfe, 0x40, 0xff},
		{0x08, 0x10, 0x18, 0xbf, 0x20, 0xff},
		{0xff, 0x4e, 0x32, 0xcb, 0x9f, 0xd7, 0xfd, 0x57, 0xe3, 0xaa, 0xd0, 0x98, 0xca},
	}
}

// FuzzValueLogSkips checks the value log's skip rule on append streams
// over every device model (see checkSkipStream).
func FuzzValueLogSkips(f *testing.F) {
	for _, data := range skipSeeds() {
		for model := range skipModels {
			f.Add(uint8(model), data)
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		checkSkipStream(t, int(model), data)
	})
}

// TestValueLogSkipRuleCoverage runs the seed streams and requires that
// they reach every arm of the rule: hits on the previous cycle's records
// at or past the head, skips of its records behind the head, and skips of
// records two or more cycles old at or past the head. Every record read
// must verify: the rule leaves no record unread once a later cycle
// rewrote it.
func TestValueLogSkipRuleCoverage(t *testing.T) {
	for model, m := range skipModels {
		t.Run(m.name, func(t *testing.T) {
			var tally skipTally
			for _, data := range skipSeeds() {
				tally.add(checkSkipStream(t, model, data))
			}
			t.Logf("%+v", tally)
			if tally.prevHits == 0 || tally.prevSkips == 0 || tally.deepSkips == 0 {
				t.Fatalf("the seed streams hit %d previous-cycle records, skipped %d behind the head and %d older ones past it",
					tally.prevHits, tally.prevSkips, tally.deepSkips)
			}
			if misses := tally.reads - tally.hits; misses != 0 {
				t.Fatalf("%d record reads missed", misses)
			}
		})
	}
}

// TestValueLogSkippedReadsCount pins SkippedReads as the records answered
// with no device request. A stream of one-page records wraps a log several
// times, and whenever the tail buffer is empty every pointer issued so far
// is read. Every pointer the log answers nil is one the rule skipped, and
// SkippedReads counts exactly those. A skipped record adds no page to the
// submission and costs no device time: a second twin that reads only the
// pointers the log answered must end every batch with the log's device
// Counters and clock, and the skipped pointers read again as one batch
// must answer nil and move neither. The rule loses no hit: a first twin
// that reads every pointer re-tagged with its current cycle (the reads
// before the rule) answers the same hits.
func TestValueLogSkippedReadsCount(t *testing.T) {
	for _, m := range skipModels {
		t.Run(m.name, func(t *testing.T) {
			var (
				clks [3]*vclock.Clock
				devs [3]storage.Device
				logs [3]*storage.ValueLog
			)
			for i := range logs {
				clks[i] = vclock.New()
				devs[i] = m.dev(clks[i])
				l, err := storage.NewValueLog(devs[i])
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = l
			}
			l, twin, kept := logs[0], logs[1], logs[2]
			ps := devs[0].Geometry().PageSize
			var keys [][]byte
			var words []uint64
			hits, twinHits, skipped := 0, 0, 0
			for i := 0; l.Stats().Wraps < 4; i++ {
				key := binary.BigEndian.AppendUint32(nil, uint32(i))
				val := bytes.Repeat([]byte{byte(i)}, ps-storage.RecordSize(len(key), 0))
				w, err := appendOne(l, key, val)
				if err != nil {
					t.Fatal(err)
				}
				for _, other := range logs[1:] {
					if tw, err := appendOne(other, key, val); err != nil || tw != w {
						t.Fatalf("twin pointer %#x (%v), want %#x", tw, err, w)
					}
				}
				keys, words = append(keys, key), append(words, w)
				if l.Stats().BufferedBytes != 0 {
					continue
				}
				reqs := make([]storage.ValueReadReq, len(words))
				rereqs := make([]storage.ValueReadReq, len(words))
				for j, w := range words {
					off, n, _, _ := storage.DecodeValuePtr(w)
					reqs[j].Ptr, rereqs[j].Ptr = w, mustPtr(t, off, n, twin.Cycle())
				}
				if _, err := l.ReadRecordsBatch(reqs, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.ReadRecordsBatch(rereqs, nil); err != nil {
					t.Fatal(err)
				}
				var read, skips []storage.ValueReadReq
				for j := range reqs {
					if reqs[j].Rec == nil {
						skipped++
						skips = append(skips, storage.ValueReadReq{Ptr: reqs[j].Ptr})
					} else {
						read = append(read, storage.ValueReadReq{Ptr: reqs[j].Ptr})
					}
					if _, ok := storage.VerifyRecord(reqs[j].Rec, keys[j]); ok {
						hits++
					}
					if _, ok := storage.VerifyRecord(rereqs[j].Rec, keys[j]); ok {
						twinHits++
					}
				}
				if _, err := kept.ReadRecordsBatch(read, nil); err != nil {
					t.Fatal(err)
				}
				if devs[0].Counters() != devs[2].Counters() || clks[0].Now() != clks[2].Now() {
					t.Fatalf("after %d records: counters %+v and clock %v, reading only the records read %+v and %v",
						i+1, devs[0].Counters(), clks[0].Now(), devs[2].Counters(), clks[2].Now())
				}
				// The skipped records alone: one batch, no request, no time.
				c0, t0 := devs[0].Counters(), clks[0].Now()
				if _, err := l.ReadRecordsBatch(skips, nil); err != nil {
					t.Fatal(err)
				}
				for _, r := range skips {
					if r.Rec != nil {
						t.Fatalf("a skipped pointer %#x read %d bytes alone", r.Ptr, len(r.Rec))
					}
				}
				if devs[0].Counters() != c0 || clks[0].Now() != t0 {
					t.Fatalf("%d skipped records alone moved counters %+v -> %+v, clock %v -> %v",
						len(skips), c0, devs[0].Counters(), t0, clks[0].Now())
				}
				skipped += len(skips)
			}
			s := l.Stats()
			t.Logf("%d records skipped, %d device reads, %d without the rule; %d hits",
				s.SkippedReads, devs[0].Counters().Reads, devs[1].Counters().Reads, hits)
			if s.SkippedReads == 0 || s.SkippedReads != uint64(skipped) || hits != twinHits {
				t.Fatalf("%d skipped, %d answered nil; hits %d, without the rule %d", s.SkippedReads, skipped, hits, twinHits)
			}
			var agg storage.ValueLogStats
			agg.Add(s)
			agg.Add(s)
			if agg.SkippedReads != 2*s.SkippedReads {
				t.Fatalf("Add summed SkippedReads to %d, want %d", agg.SkippedReads, 2*s.SkippedReads)
			}
		})
	}
}

// TestValueLogWrapPadsToCapacity pins the wrap. Cycle 1 and cycle 2 fill
// the log with one-page records, and cycle 3 stops 8 pages short of the
// capacity, because its next record of 9 pages does not fit. That record
// closes cycle 3 and opens cycle 4 at offset 0, and stays in the tail
// buffer, so the device must read zeros from cycle 3's head to the
// capacity. Every record of cycles 1
// and 2 must then be a skipped read, with no device request and no time,
// and so must cycle 3's records behind the head; those past it still
// verify. A mark is taken after every record of cycles 2 and 3, and each
// must be lapped exactly once the head is one capacity past it.
func TestValueLogWrapPadsToCapacity(t *testing.T) {
	for _, m := range skipModels {
		t.Run(m.name, func(t *testing.T) {
			clk := vclock.New()
			dev := m.dev(clk)
			l, err := storage.NewValueLog(dev)
			if err != nil {
				t.Fatal(err)
			}
			ps := dev.Geometry().PageSize
			capacity := l.Stats().Capacity
			pages := int(capacity) / ps
			stop := pages - 8 // cycle 3's head, in pages
			type record struct {
				key   []byte
				word  uint64
				cycle uint64
			}
			type mark struct {
				at    uint64
				cycle uint64
				page  int // the head, in pages
			}
			var (
				recs  []record
				marks []mark
			)
			val := bytes.Repeat([]byte{0xA5}, 9*ps)
			put := func(n int) uint64 {
				key := binary.BigEndian.AppendUint32(nil, uint32(len(recs)))
				w, err := appendOne(l, key, val[:n*ps-storage.RecordSize(len(key), 0)])
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, record{key, w, l.Cycle()})
				return w
			}
			// checkMarks requires every mark lapped exactly when the head
			// is one capacity past it.
			checkMarks := func(page int) {
				for _, mk := range marks {
					want := l.Cycle() > mk.cycle+1 || l.Cycle() == mk.cycle+1 && page >= mk.page
					if got := l.Lapped(mk.at); got != want {
						t.Fatalf("cycle %d at page %d: mark of cycle %d at page %d lapped=%v, want %v",
							l.Cycle(), page, mk.cycle, mk.page, got, want)
					}
				}
			}
			for range pages {
				put(1)
			}
			for p := 1; p <= pages+stop; p++ { // all of cycle 2, then cycle 3 up to stop
				put(1)
				page := (p-1)%pages + 1
				checkMarks(page)
				marks = append(marks, mark{l.Mark(), l.Cycle(), page})
			}
			if c := l.Cycle(); c != 3 {
				t.Fatalf("log in cycle %d, want 3", c)
			}
			if off, _, _, _ := storage.DecodeValuePtr(put(9)); off != 0 || l.Cycle() != 4 {
				t.Fatalf("the record that did not fit landed at %d in cycle %d, want 0 in cycle 4", off, l.Cycle())
			}
			if b := l.Stats().BufferedBytes; b != int64(9*ps) {
				t.Fatalf("%d bytes buffered, want the 9-page record alone", b)
			}
			checkMarks(9)
			for i, r := range recs[:len(recs)-1] {
				off, _, _, _ := storage.DecodeValuePtr(r.word)
				c0, t0, s0 := dev.Counters(), clk.Now(), l.Stats().SkippedReads
				rec, ok, err := readOne(l, r.word)
				if err != nil {
					t.Fatal(err)
				}
				if r.cycle == 3 && off >= int64(9*ps) {
					if _, verified := storage.VerifyRecord(rec, r.key); !ok || !verified {
						t.Fatalf("cycle-3 record %d at %d, past the head, does not verify", i, off)
					}
					continue
				}
				if ok || dev.Counters() != c0 || clk.Now() != t0 || l.Stats().SkippedReads != s0+1 {
					t.Fatalf("cycle-%d record %d at %d read %d bytes, counters %+v -> %+v, clock %v -> %v, SkippedReads %d -> %d",
						r.cycle, i, off, len(rec), c0, dev.Counters(), t0, clk.Now(), s0, l.Stats().SkippedReads)
				}
			}
			tail := make([]byte, 8*ps)
			if _, err := dev.ReadAt(tail, int64(stop*ps)); err != nil {
				t.Fatal(err)
			}
			for i, b := range tail {
				if b != 0 {
					t.Fatalf("byte %d, past cycle 3's head, reads %#x", stop*ps+i, b)
				}
			}
		})
	}
}
