package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// ownedViewDevice serves every View request from a buffer it owns, as a
// device without a backing store would: it reads the request's range by
// copy into bytes carved from its own arena, then hands those back as the
// request's P. The arena is scribbled over and reused at the device's next
// write, where the contract lets views expire, so a caller that keeps a
// view past a write reads garbage.
type ownedViewDevice struct {
	storage.Device
	arena []byte
	sub   []storage.ReadReq
	views int // View requests served
}

func (d *ownedViewDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	d.sub = append(d.sub[:0], reqs...)
	for i, r := range d.sub {
		if !r.View {
			continue
		}
		if len(d.arena)+r.N > cap(d.arena) {
			d.arena = make([]byte, 0, max(2*cap(d.arena), r.N))
		}
		end := len(d.arena) + r.N
		d.sub[i] = storage.ReadReq{P: d.arena[len(d.arena):end:end], Off: r.Off, Through: r.Through}
		d.arena = d.arena[:end]
	}
	lat, err := d.Device.ReadBatch(d.sub)
	if err != nil {
		return lat, err
	}
	for i := range reqs {
		if reqs[i].View {
			reqs[i].P = d.sub[i].P
			d.views++
		}
	}
	return lat, nil
}

func (d *ownedViewDevice) expire() {
	for i := range d.arena {
		d.arena[i] = 0xEE
	}
	d.arena = d.arena[:0]
}

func (d *ownedViewDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.expire()
	return d.Device.WriteAt(p, off)
}

func (d *ownedViewDevice) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	d.expire()
	return d.Device.WriteBatch(reqs)
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
// first log reads with the model's page views and the second, its twin,
// through a device that serves views from buffers it owns. For the third
// the test builds a page-granular copying read itself: every device page
// the batch's records touch, deduped and read by copy in address order,
// with the pages a page-read submission of them reads through (see
// readThroughPages), each record's device bytes taken from those pages
// and its tail-buffer bytes from an image of the appends.
//
// Both logs' Rec bytes must equal the built read's, every one-page device
// record must come back as a view, the views' device must read each
// distinct page once (Reads − ReadThrough grows by their number), and all
// three devices must end every round with equal Counters and clocks.
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
			owned := &ownedViewDevice{}
			for i := range logs {
				clks[i] = vclock.New()
				devs[i] = model(clks[i])
				dev := devs[i]
				if i == 1 {
					owned.Device = dev
					dev = owned
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
				c0 := devs[0].Counters()
				reads0 := c0.Reads - c0.ReadThrough
				vreqs := append([]storage.ValueReadReq(nil), reqs...)
				creqs := append([]storage.ValueReadReq(nil), reqs...)
				if _, err := vl.ReadRecordsBatch(vreqs, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.ReadRecordsBatch(creqs, nil); err != nil {
					t.Fatal(err)
				}
				// The copying read, built here: every page holding a
				// record's device bytes before the flush frontier or past
				// the head, read once by copy in one address-sorted
				// submission, and each record assembled from those pages
				// and, for its tail-buffer bytes, the image.
				want := make([][]byte, len(reqs))
				// Overwritten requests sit at location (-1, 0), which no
				// read reaches.
				inRange := func(r ptr) bool {
					end := r.off + int64(r.n)
					return r.off >= 0 && r.n >= 8 && end <= capacity && (wrapped || end <= head)
				}
				pages := map[int64][]byte{}
				devBytes := func(r ptr, f func(lo, hi int64)) {
					end := r.off + int64(r.n)
					if r.off < bufStart {
						f(r.off, min(end, bufStart))
					}
					if end > head {
						f(max(r.off, head), end)
					}
				}
				for _, r := range locs {
					if inRange(r) {
						devBytes(r, func(lo, hi int64) {
							for pg := lo / ps; pg <= (hi-1)/ps; pg++ {
								pages[pg] = nil
							}
						})
					}
				}
				if len(pages) > 0 {
					var sorted []uint64
					for pg := range pages {
						sorted = append(sorted, uint64(pg))
					}
					slices.Sort(sorted)
					sub := readThroughSub(devs[2], sorted)
					if _, err := devs[2].ReadBatch(sub); err != nil {
						t.Fatal(err)
					}
					for _, r := range sub {
						if !r.Through {
							pages[r.Off/ps] = r.P
						}
					}
				}
				if c := devs[0].Counters(); c.Reads-c.ReadThrough-reads0 != uint64(len(pages)) {
					t.Fatalf("round %d: %d requests, %d read through, for %d distinct pages",
						round, c.Reads-c0.Reads, c.ReadThrough-c0.ReadThrough, len(pages))
				}
				for i, r := range locs {
					if !inRange(r) {
						continue
					}
					rec, end := make([]byte, r.n), r.off+int64(r.n)
					if lo, hi := max(r.off, bufStart), min(end, head); lo < hi {
						copy(rec[lo-r.off:], image[lo:hi])
					}
					devBytes(r, func(lo, hi int64) {
						for at := lo; at < hi; {
							at += int64(copy(rec[at-r.off:hi-r.off], pages[at/ps][at%ps:]))
						}
					})
					want[i] = rec
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
				for i, what := range []string{"owned-buffer twin", "copying submission"} {
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
			if owned.views == 0 {
				t.Error("the owned-buffer device served no view request")
			}
			t.Logf("requests per class %v, %d views", seen, views)
		})
	}
}

// TestValueLogViewArena checks the arena ReadRecordsBatch returns. A
// batch of one-page device records is read as view requests and copies
// nothing into the arena; adding page-crossing records fills it with
// exactly their bytes, from its start, whatever it held before. That holds on the SSD, which hands back its pages,
// and on a device that serves views from buffers it owns, and every record
// verifies on both.
func TestValueLogViewArena(t *testing.T) {
	for _, owned := range []bool{false, true} {
		var dev storage.Device = ssd.New(ssd.IntelX18M(), 1<<20, vclock.New())
		if owned {
			dev = &ownedViewDevice{Device: dev}
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
			copied := 0
			for j, i := range batch {
				reqs[j].Ptr = ptrs[i]
				if _, n, _, _ := storage.DecodeValuePtr(ptrs[i]); j >= len(onePage) {
					copied += n
				}
			}
			arena, err := l.ReadRecordsBatch(reqs, make([]byte, 5, 64))
			if err != nil {
				t.Fatal(err)
			}
			if len(arena) != copied {
				t.Errorf("owned=%v, %d records: arena length %d, want %d", owned, len(batch), len(arena), copied)
			}
			for j, i := range batch {
				if v, ok := storage.VerifyRecord(reqs[j].Rec, keys[i]); !ok || !bytes.Equal(v, vals[i]) {
					t.Fatalf("owned=%v: record %d does not verify", owned, i)
				}
			}
		}
	}
}

// TestLookupBatchOwnedViews runs core's batched lookup over a device that
// serves view requests from buffers it owns, next to a twin on the bare
// SSD: the same seeded inserts flush both indexes to flash, and every
// batch of lookups, mixing stored and absent keys, must give the same
// results, core Stats, device Counters and clock on both.
func TestLookupBatchOwnedViews(t *testing.T) {
	var (
		clks [2]*vclock.Clock
		devs [2]storage.Device
		bhs  [2]*core.BufferHash
	)
	owned := &ownedViewDevice{}
	for i := range bhs {
		clks[i] = vclock.New()
		devs[i] = ssd.New(ssd.IntelX18M(), 1<<20, clks[i])
		dev := devs[i]
		if i == 1 {
			owned.Device = dev
			dev = owned
		}
		b, err := core.New(core.Config{Device: dev, Clock: clks[i], PartitionBits: 2, BufferBytes: 64 << 10,
			NumIncarnations: 4, FilterBitsPerEntry: 16, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		bhs[i] = b
	}
	rng := rand.New(rand.NewSource(5))
	stored := make([]uint64, 0, 40000)
	for range 40000 {
		k := rng.Uint64()
		stored = append(stored, k)
		for _, b := range bhs {
			if err := b.Insert(k, k^0x5A5A); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := make([]uint64, 512)
	var res [2][]core.LookupResult
	for round := range 20 {
		for i := range keys {
			keys[i] = rng.Uint64()
			if i%3 != 0 {
				keys[i] = stored[rng.Intn(len(stored))]
			}
		}
		for i, b := range bhs {
			res[i] = make([]core.LookupResult, len(keys))
			if err := b.LookupBatch(keys, res[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range keys {
			if res[0][i] != res[1][i] {
				t.Fatalf("round %d: key %d resolved to %+v on the SSD, %+v with owned views", round, i, res[0][i], res[1][i])
			}
		}
		if bhs[0].Stats() != bhs[1].Stats() || devs[0].Counters() != devs[1].Counters() || clks[0].Now() != clks[1].Now() {
			t.Fatalf("round %d: stats, counters or clocks differ\nSSD:   %+v %+v %v\nowned: %+v %+v %v", round,
				bhs[0].Stats(), devs[0].Counters(), clks[0].Now(), bhs[1].Stats(), devs[1].Counters(), clks[1].Now())
		}
	}
	if st := bhs[0].Stats(); st.FlashProbes == 0 || st.Hits == 0 || owned.views == 0 {
		t.Fatalf("%d flash probes, %d hits, %d views served: the lookups never reached flash", st.FlashProbes, st.Hits, owned.views)
	}
}
