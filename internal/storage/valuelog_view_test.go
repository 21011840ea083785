package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// copyingDevice serves every read by copy: it clears ReadReq.View before
// a submission reaches the wrapped device model.
type copyingDevice struct{ storage.Device }

func (d copyingDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	for i := range reqs {
		reqs[i].View = false
	}
	return d.Device.ReadBatch(reqs)
}

// Request classes TestValueLogViewReads must cover on every device.
const (
	classOnePage     = iota // device-backed, inside one page: read as a view
	classCrossPage          // device-backed, crossing a page boundary
	classTail               // inside the tail buffer
	classStraddle           // straddling the flush frontier
	classStale              // reaching past the head after a wrap
	classAcrossHead         // starting before the head and ending past it
	classStaleEqOff         // past the head, sharing its offset with another length
	classDuplicate          // a pointer the batch already holds
	classOutOfRange         // no live record region: Rec stays nil
	classOverwritten        // last cycle's record behind the head: skipped, Rec stays nil
	numClasses
)

var classNames = [numClasses]string{"one-page", "cross-page", "tail", "straddle", "stale",
	"across-head", "stale-equal-offset", "duplicate", "out-of-range", "overwritten"}

// TestValueLogViewReads checks ReadRecordsBatch's device views against
// copying reads. Three logs over one device model each get the same seeded
// appends, which wrap them several times, and after each append the same
// batch of reads: one-page and page-crossing records, records in the tail
// buffer and across the flush frontier, in-batch duplicates, stale
// pointers past and across the head (some sharing an offset with another
// length, next to the record that follows) and out-of-range pointers.
// Those requests carry the log's current cycle, so the skip rule reads
// each of them; the batch also holds pointers to last cycle's records
// behind the head, with their own cycle, which the rule skips. The
// first log reads with views and the second, its twin, through a device
// that copies. For the third the test builds the copying read itself:
// each record's device segments gathered in record order and stably
// sorted by address, and its tail-buffer bytes from an image of the
// appends.
//
// Both logs' Rec bytes must equal the built read's, every one-page device
// record must come back as a view, and all three devices must end every
// round with equal Counters and clocks.
func TestValueLogViewReads(t *testing.T) {
	models := map[string]func(*vclock.Clock) storage.Device{
		"ssd":  func(c *vclock.Clock) storage.Device { return ssd.New(ssd.IntelX18M(), 256<<10, c) },
		"disk": func(c *vclock.Clock) storage.Device { return disk.New(disk.Hitachi7K80(), 256<<10, c) },
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			var (
				clks [3]*vclock.Clock
				devs [3]storage.Device
				logs [3]*storage.ValueLog
			)
			for i := range logs {
				clks[i] = vclock.New()
				devs[i] = model(clks[i])
				dev := devs[i]
				if i == 1 {
					dev = copyingDevice{dev}
				}
				l, err := storage.NewValueLog(dev)
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = l
			}
			vl, cl := logs[0], logs[1]
			ps := int64(devs[0].Geometry().PageSize)
			capacity := vl.Stats().Capacity
			rng := rand.New(rand.NewSource(21))
			type ptr struct {
				off int64
				n   int
			}
			var (
				image = make([]byte, capacity) // every record at its offset, as appended
				ptrs  []ptr                    // every record appended, stale ones included
				words []uint64                 // ptrs' words, as AppendBatch filled them
				next  = map[int64]ptr{}
				head  int64
				seen  [numClasses]int
				views int
			)
			for round := 0; vl.Stats().Wraps < 3; round++ {
				if round > 2000 {
					t.Fatal("the log never wrapped three times")
				}
				// Append the same records to every log.
				keys, vals := make([][]byte, 1+rng.Intn(24)), make([][]byte, 0, 24)
				for i := range keys {
					keys[i] = fmt.Appendf(nil, "view-%d-%d", round, i)
					v := make([]byte, rng.Intn(200))
					if rng.Intn(4) == 0 {
						v = make([]byte, 1+rng.Intn(3*int(ps)))
					}
					rng.Read(v)
					vals = append(vals, v)
				}
				var appended [3][]uint64
				for i, l := range logs {
					appended[i] = make([]uint64, len(keys))
					if err := l.AppendBatch(keys, vals, appended[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i, w := range appended[0] {
					if appended[1][i] != w || appended[2][i] != w {
						t.Fatalf("round %d: the logs placed record %d apart", round, i)
					}
					off, n, _, _ := storage.DecodeValuePtr(w)
					p := ptr{off, n}
					ptrs = append(ptrs, p)
					words = append(words, w)
					rec := image[p.off : p.off+int64(p.n)]
					binary.LittleEndian.PutUint32(rec[0:], uint32(len(keys[i])))
					binary.LittleEndian.PutUint32(rec[4:], uint32(len(vals[i])))
					copy(rec[8+copy(rec[8:], keys[i]):], vals[i])
					next[p.off+int64(p.n)] = p
				}
				last := ptrs[len(ptrs)-1]
				head = last.off + int64(last.n)
				st := vl.Stats()
				bufStart, wrapped := head-st.BufferedBytes, st.Wraps > 0

				// One batch of reads over the whole pointer history.
				cycle := vl.Cycle()
				var (
					reqs []storage.ValueReadReq
					locs []ptr // each request's location
				)
				add := func(p ptr) {
					word, ok := storage.EncodeValuePtr(p.off, p.n, cycle)
					if !ok {
						word = 1 // no pointer: an out-of-range location
					}
					reqs, locs = append(reqs, storage.ValueReadReq{Ptr: word}), append(locs, p)
				}
				for range 1 + rng.Intn(96) {
					switch k := rng.Intn(12); {
					case k < 4:
						add(ptrs[rng.Intn(len(ptrs))])
					case k < 6: // recent records: the tail buffer and the frontier
						add(ptrs[len(ptrs)-1-rng.Intn(min(len(ptrs), 64))])
					case k < 7 && len(reqs) > 0:
						j := rng.Intn(len(reqs))
						reqs, locs = append(reqs, reqs[j]), append(locs, locs[j])
					case k < 8: // one offset, two lengths, then the next record
						p := ptrs[rng.Intn(len(ptrs))]
						add(p)
						add(ptr{p.off, 8 + rng.Intn(p.n)})
						if q, ok := next[p.off+int64(p.n)]; ok {
							add(q)
						}
					case k < 9:
						add(ptr{head - 1 - int64(rng.Intn(64)), 16 + rng.Intn(200)})
					case k < 10:
						outs := []ptr{{capacity - 4, 64}, {-8, 16}, {0, 4}, {1 << 40, 64}, {head, 64}}
						add(outs[rng.Intn(len(outs))])
					case k < 11: // last cycle's record behind the head, with its own cycle
						j := rng.Intn(len(ptrs))
						if _, _, c, _ := storage.DecodeValuePtr(words[j]); c == (cycle-1)%64 && ptrs[j].off < head {
							reqs, locs = append(reqs, storage.ValueReadReq{Ptr: words[j]}), append(locs, ptr{-1, 0})
						}
					default:
						add(ptrs[len(ptrs)-1])
					}
				}
				vreqs := append([]storage.ValueReadReq(nil), reqs...)
				creqs := append([]storage.ValueReadReq(nil), reqs...)
				if _, err := vl.ReadRecordsBatch(vreqs, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.ReadRecordsBatch(creqs, nil); err != nil {
					t.Fatal(err)
				}
				// The copying read, built here: each record's device bytes
				// before the flush frontier and past the head, gathered in
				// record order, and its tail-buffer bytes from the image.
				var sub []storage.ReadReq
				want := make([][]byte, len(reqs))
				// Overwritten requests sit at location (-1, 0), which no
				// read reaches.
				inRange := func(r ptr) bool {
					end := r.off + int64(r.n)
					return r.off >= 0 && r.n >= 8 && end <= capacity && (wrapped || end <= head)
				}
				for i, r := range locs {
					if !inRange(r) {
						continue
					}
					rec, end := make([]byte, r.n), r.off+int64(r.n)
					if r.off < bufStart {
						sub = append(sub, storage.ReadReq{P: rec[:min(end, bufStart)-r.off], Off: r.off})
					}
					if lo, hi := max(r.off, bufStart), min(end, head); lo < hi {
						copy(rec[lo-r.off:], image[lo:hi])
					}
					if end > head {
						lo := max(r.off, head)
						sub = append(sub, storage.ReadReq{P: rec[lo-r.off:], Off: lo})
					}
					want[i] = rec
				}
				if len(sub) > 0 {
					sortReads(sub)
					if _, err := devs[2].ReadBatch(sub); err != nil {
						t.Fatal(err)
					}
				}

				offCount := map[int64]int{}
				dups := map[ptr]int{}
				for _, r := range locs {
					if dups[r]++; dups[r] == 1 {
						offCount[r.off]++
					}
				}
				for i, r := range locs {
					v := vreqs[i].Rec
					for _, got := range [][]byte{v, creqs[i].Rec} {
						if (got == nil) != (want[i] == nil) || !bytes.Equal(got, want[i]) {
							t.Fatalf("round %d: request %d (%d, %d) reads %d bytes, want %d (or different bytes)",
								round, i, r.off, r.n, len(got), len(want[i]))
						}
					}
					if !inRange(r) {
						if r.off == -1 {
							seen[classOverwritten]++
						} else {
							seen[classOutOfRange]++
						}
						if v != nil {
							t.Fatalf("round %d: request %#x (%d, %d) resolved", round, reqs[i].Ptr, r.off, r.n)
						}
						continue
					}
					if dups[r] > 1 {
						seen[classDuplicate]++
					}
					end := r.off + int64(r.n)
					switch {
					case r.off < head && end > head:
						seen[classAcrossHead]++
					case end > head:
						seen[classStale]++
						if offCount[r.off] > 1 {
							seen[classStaleEqOff]++
						}
					case r.off < bufStart && end > bufStart:
						seen[classStraddle]++
					case r.off >= bufStart:
						seen[classTail]++
					case r.off/ps != (end-1)/ps:
						seen[classCrossPage]++
					default:
						seen[classOnePage]++
						if cap(v) != len(v) {
							t.Fatalf("round %d: one-page record (%d, %d) was copied, not viewed", round, r.off, r.n)
						}
						views++
					}
				}
				for i, what := range []string{"copying twin", "copying submission"} {
					if vc, oc := devs[0].Counters(), devs[i+1].Counters(); vc != oc {
						t.Fatalf("round %d: device counters differ from the %s's\nviews: %+v\nother: %+v", round, what, vc, oc)
					}
					if clks[0].Now() != clks[i+1].Now() {
						t.Fatalf("round %d: clock %v, the %s's %v", round, clks[0].Now(), what, clks[i+1].Now())
					}
				}
			}
			for c, n := range seen {
				if n == 0 {
					t.Errorf("no %s request was read", classNames[c])
				}
			}
			t.Logf("requests per class %v, %d views", seen, views)
		})
	}
}

// TestValueLogViewArena checks the arena ReadRecordsBatch returns. On the
// SSD a batch of one-page device records is served as views and leaves
// the arena's length unchanged; adding page-crossing records grows it by
// exactly their bytes. Through a device that copies, the same batches
// carve every record into the arena, and every record still verifies.
func TestValueLogViewArena(t *testing.T) {
	for _, copying := range []bool{false, true} {
		var dev storage.Device = ssd.New(ssd.IntelX18M(), 1<<20, vclock.New())
		if copying {
			dev = copyingDevice{dev}
		}
		l, err := storage.NewValueLog(dev)
		if err != nil {
			t.Fatal(err)
		}
		ps := int64(dev.Geometry().PageSize)
		keys := make([][]byte, 1000)
		vals := make([][]byte, len(keys))
		for i := range keys {
			keys[i] = fmt.Appendf(nil, "arena-%04d", i)
			vals[i] = bytes.Repeat([]byte{byte(i)}, 50+i%150)
		}
		ptrs := make([]uint64, len(keys))
		if err := l.AppendBatch(keys, vals, ptrs); err != nil {
			t.Fatal(err)
		}
		last, lastN, _, _ := storage.DecodeValuePtr(ptrs[len(ptrs)-1])
		bufStart := last + int64(lastN) - l.Stats().BufferedBytes
		var onePage, crossing []int // records on the device, inside one page or not
		for i, w := range ptrs {
			off, n, _, _ := storage.DecodeValuePtr(w)
			switch end := off + int64(n); {
			case end > bufStart:
			case off/ps == (end-1)/ps:
				onePage = append(onePage, i)
			default:
				crossing = append(crossing, i)
			}
		}
		if len(onePage) < 100 || len(crossing) == 0 {
			t.Fatalf("%d one-page and %d page-crossing device records", len(onePage), len(crossing))
		}
		for _, batch := range [][]int{onePage, append(append([]int(nil), onePage...), crossing...)} {
			reqs := make([]storage.ValueReadReq, len(batch))
			copied, all := 0, 0
			for j, i := range batch {
				reqs[j].Ptr = ptrs[i]
				_, n, _, _ := storage.DecodeValuePtr(ptrs[i])
				all += n
				if j >= len(onePage) {
					copied += n
				}
			}
			want := 5 + copied // a prefix of 5 bytes the call must keep
			if copying {
				want = 5 + all
			}
			arena, err := l.ReadRecordsBatch(reqs, make([]byte, 5, 64))
			if err != nil {
				t.Fatal(err)
			}
			if len(arena) != want {
				t.Errorf("copying=%v, %d records: arena length %d, want %d", copying, len(batch), len(arena), want)
			}
			for j, i := range batch {
				if v, ok := storage.VerifyRecord(reqs[j].Rec, keys[i]); !ok || !bytes.Equal(v, vals[i]) {
					t.Fatalf("copying=%v: record %d does not verify", copying, i)
				}
			}
		}
	}
}
