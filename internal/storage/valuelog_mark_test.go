package storage_test

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

const (
	markStreamWraps   = 6    // a stream ends once its log wrapped this often
	markStreamRecords = 3000 // or once it appended this many records
)

// markTally counts what a stream's mark checks met.
type markTally struct {
	lapped      int // checks that found a mark lapped
	nextCycle   int // of those, in the cycle right after the mark's
	waits       int // checks in the cycle right after a mark's, short of its head
	checkedPtrs int // pointers read under the newest lapped mark
}

func (a *markTally) add(b markTally) {
	a.lapped += b.lapped
	a.nextCycle += b.nextCycle
	a.waits += b.waits
	a.checkedPtrs += b.checkedPtrs
}

// checkMarkStream drives a log over one device model through the append
// stream data describes and checks the mark rule after every append
// batch. Each byte of data (cycled) is one record, sized as in
// checkSkipStream (a header plus a short key up to more than two pages),
// so records that do not fit close cycles at different offsets. A batch
// ends at a byte divisible by 4 or at 6 records, so the head moves in
// small steps, and after a batch the stream takes a mark with
// probability 1/3.
//
// After every batch each mark is tested with Lapped, which must hold
// exactly when the log has left the mark's cycle and, in the next cycle,
// reached its head. Every pointer appended before the newest lapped mark,
// which covers the older lapped ones, is then read: each must come back
// as a skipped read, with no device request, no time on the clock, and
// one SkippedReads count.
func checkMarkStream(t *testing.T, model int, data []byte) markTally {
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
	ps := dev.Geometry().PageSize
	rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))

	type mark struct {
		at    uint64
		n     int    // pointers appended before it
		cycle uint64 // the log's cycle when it was taken
		head  int64  // the end of the newest record when it was taken
	}
	var (
		words []uint64
		marks []mark
		head  int64
		pos   int
		tally markTally
	)
	for l.Stats().Wraps < markStreamWraps && len(words) < markStreamRecords {
		var keys, vals [][]byte
		for {
			b := data[pos%len(data)]
			pos++
			vlen := 4 * int(b)
			if b >= 0x80 {
				vlen = 1 + int(b&0x7f)*3*ps/0x7f
			}
			keys = append(keys, binary.AppendUvarint(nil, uint64(len(words)+len(keys))))
			vals = append(vals, make([]byte, vlen))
			if b%4 == 0 || len(keys) == 6 {
				break
			}
		}
		ptrs := make([]uint64, len(keys))
		if err := l.AppendBatch(keys, vals, ptrs); err != nil {
			t.Fatal(err)
		}
		words = append(words, ptrs...)
		off, n, _, _ := storage.DecodeValuePtr(ptrs[len(ptrs)-1])
		head = off + int64(n)
		if rng.Intn(3) == 0 {
			marks = append(marks, mark{l.Mark(), len(words), l.Cycle(), head})
		}

		newest := -1
		for i, mk := range marks {
			c := l.Cycle()
			lapped := l.Lapped(mk.at)
			if want := c > mk.cycle+1 || c == mk.cycle+1 && head >= mk.head; lapped != want {
				t.Fatalf("cycle %d, head %d: mark (cycle %d, head %d) lapped=%v, want %v",
					c, head, mk.cycle, mk.head, lapped, want)
			}
			switch {
			case lapped:
				newest = i
				tally.lapped++
				if c == mk.cycle+1 {
					tally.nextCycle++
				}
			case c == mk.cycle+1:
				tally.waits++
			}
		}
		if newest < 0 {
			continue
		}
		mk := marks[newest]
		reqs := make([]storage.ValueReadReq, mk.n)
		for i := range reqs {
			reqs[i].Ptr = words[i]
		}
		c0, t0, s0 := dev.Counters(), clk.Now(), l.Stats().SkippedReads
		if _, err := l.ReadRecordsBatch(reqs, nil); err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			if req.Rec != nil {
				off, n, tag, _ := storage.DecodeValuePtr(words[i])
				t.Fatalf("cycle %d, head %d: mark (cycle %d, head %d, %d pointers) is lapped, but record %d (%d, %d) tagged %d reads %d bytes",
					l.Cycle(), head, mk.cycle, mk.head, mk.n, i, off, n, tag, len(req.Rec))
			}
		}
		if dev.Counters() != c0 || clk.Now() != t0 {
			t.Fatalf("reads under a lapped mark moved the device: counters %+v -> %+v, clock %v -> %v",
				c0, dev.Counters(), t0, clk.Now())
		}
		if d := l.Stats().SkippedReads - s0; d != uint64(mk.n) {
			t.Fatalf("SkippedReads rose by %d for %d pointers under a lapped mark", d, mk.n)
		}
		tally.checkedPtrs += mk.n
	}
	return tally
}

// markSeeds are FuzzValueLogMarks's seed corpus, run on every model:
// FuzzValueLogSkips's, plus a stream of one-record batches of at most 262
// bytes, whose head steps finely enough to land just short of a mark's.
func markSeeds() [][]byte {
	rng := rand.New(rand.NewSource(23))
	fine := make([]byte, 53)
	for i := range fine {
		fine[i] = byte(4 * rng.Intn(0x10))
	}
	return append(skipSeeds(), fine)
}

// FuzzValueLogMarks checks the value log's mark rule on append streams
// over every device model (see checkMarkStream).
func FuzzValueLogMarks(f *testing.F) {
	for _, data := range markSeeds() {
		for model := range skipModels {
			f.Add(uint8(model), data)
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		checkMarkStream(t, int(model), data)
	})
}

// TestValueLogMarkCoverage runs the seed streams and requires that they
// reach every arm of the mark rule on every model: marks lapped in the
// cycle right after their own and in later ones, and marks that wait in
// the next cycle for the head to reach theirs.
func TestValueLogMarkCoverage(t *testing.T) {
	for model, m := range skipModels {
		t.Run(m.name, func(t *testing.T) {
			var tally markTally
			for _, data := range markSeeds() {
				tally.add(checkMarkStream(t, model, data))
			}
			t.Logf("%+v", tally)
			if tally.nextCycle == 0 || tally.lapped == tally.nextCycle || tally.waits == 0 {
				t.Fatalf("the seed streams found %d marks lapped, %d in the next cycle, and %d waiting there for the head",
					tally.lapped, tally.nextCycle, tally.waits)
			}
		})
	}
}
