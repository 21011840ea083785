package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/flashchip"
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

// copyingEraser is a copyingDevice over an erasable model, so a log over
// it still erases blocks ahead of its head.
type copyingEraser struct {
	copyingDevice
	storage.Eraser
}

func copying(dev storage.Device) storage.Device {
	if e, ok := dev.(storage.Eraser); ok {
		return copyingEraser{copyingDevice{dev}, e}
	}
	return copyingDevice{dev}
}

// Request classes TestValueLogViewReads must cover on every device.
const (
	classOnePage    = iota // device-backed, inside one page: read as a view
	classCrossPage         // device-backed, crossing a page boundary
	classTail              // inside the tail buffer
	classStraddle          // straddling the flush frontier
	classStale             // reaching past the head after a wrap
	classAcrossHead        // starting before the head and ending past it
	classStaleEqOff        // past the head, sharing its offset with another length
	classDuplicate         // a pointer the batch already holds
	classOutOfRange        // no live record region: Rec stays nil
	numClasses
)

var classNames = [numClasses]string{"one-page", "cross-page", "tail", "straddle", "stale",
	"across-head", "stale-equal-offset", "duplicate", "out-of-range"}

// TestValueLogViewReads checks ReadRecordsBatch's device views against
// copying reads. Three logs over one device model each get the same seeded
// appends, which wrap them several times, and after each append the same
// batch of reads: one-page and page-crossing records, records in the tail
// buffer and across the flush frontier, in-batch duplicates, stale
// pointers past and across the head (some sharing an offset with another
// length, next to the record that follows) and out-of-range pointers. The
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
		"chip": func(c *vclock.Clock) storage.Device { return flashchip.New(flashchip.DefaultConfig(1<<20), c) },
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
					dev = copying(dev)
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
				var offs [3][]int64
				var ns [3][]int
				for i, l := range logs {
					offs[i], ns[i] = make([]int64, len(keys)), make([]int, len(keys))
					if err := l.AppendBatch(keys, vals, offs[i], ns[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := range keys {
					if offs[1][i] != offs[0][i] || offs[2][i] != offs[0][i] || ns[1][i] != ns[0][i] || ns[2][i] != ns[0][i] {
						t.Fatalf("round %d: the logs placed record %d apart", round, i)
					}
					p := ptr{offs[0][i], ns[0][i]}
					ptrs = append(ptrs, p)
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
				var reqs []storage.ValueReadReq
				add := func(p ptr) { reqs = append(reqs, storage.ValueReadReq{Off: p.off, N: p.n}) }
				for range 1 + rng.Intn(96) {
					switch k := rng.Intn(11); {
					case k < 4:
						add(ptrs[rng.Intn(len(ptrs))])
					case k < 6: // recent records: the tail buffer and the frontier
						add(ptrs[len(ptrs)-1-rng.Intn(min(len(ptrs), 64))])
					case k < 7 && len(reqs) > 0:
						r := reqs[rng.Intn(len(reqs))]
						add(ptr{r.Off, r.N})
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
					default:
						add(ptrs[len(ptrs)-1])
					}
				}
				vreqs := append([]storage.ValueReadReq(nil), reqs...)
				creqs := append([]storage.ValueReadReq(nil), reqs...)
				if err := vl.ReadRecordsBatch(vreqs); err != nil {
					t.Fatal(err)
				}
				if err := cl.ReadRecordsBatch(creqs); err != nil {
					t.Fatal(err)
				}
				// The copying read, built here: each record's device bytes
				// before the flush frontier and past the head, gathered in
				// record order, and its tail-buffer bytes from the image.
				var sub []storage.ReadReq
				want := make([][]byte, len(reqs))
				inRange := func(r storage.ValueReadReq) bool {
					end := r.Off + int64(r.N)
					return r.Off >= 0 && r.N >= 8 && end <= capacity && (wrapped || end <= head)
				}
				for i, r := range reqs {
					if !inRange(r) {
						continue
					}
					rec, end := make([]byte, r.N), r.Off+int64(r.N)
					if r.Off < bufStart {
						sub = append(sub, storage.ReadReq{P: rec[:min(end, bufStart)-r.Off], Off: r.Off})
					}
					if lo, hi := max(r.Off, bufStart), min(end, head); lo < hi {
						copy(rec[lo-r.Off:], image[lo:hi])
					}
					if end > head {
						lo := max(r.Off, head)
						sub = append(sub, storage.ReadReq{P: rec[lo-r.Off:], Off: lo})
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
				for _, r := range reqs {
					if dups[ptr{r.Off, r.N}]++; dups[ptr{r.Off, r.N}] == 1 {
						offCount[r.Off]++
					}
				}
				for i, r := range reqs {
					v := vreqs[i].Rec
					for _, got := range [][]byte{v, creqs[i].Rec} {
						if (got == nil) != (want[i] == nil) || !bytes.Equal(got, want[i]) {
							t.Fatalf("round %d: request %d (%d, %d) reads %d bytes, want %d (or different bytes)",
								round, i, r.Off, r.N, len(got), len(want[i]))
						}
					}
					if !inRange(r) {
						seen[classOutOfRange]++
						if v != nil {
							t.Fatalf("round %d: out-of-range request (%d, %d) resolved", round, r.Off, r.N)
						}
						continue
					}
					if dups[ptr{r.Off, r.N}] > 1 {
						seen[classDuplicate]++
					}
					end := r.Off + int64(r.N)
					switch {
					case r.Off < head && end > head:
						seen[classAcrossHead]++
					case end > head:
						seen[classStale]++
						if offCount[r.Off] > 1 {
							seen[classStaleEqOff]++
						}
					case r.Off < bufStart && end > bufStart:
						seen[classStraddle]++
					case r.Off >= bufStart:
						seen[classTail]++
					case r.Off/ps != (end-1)/ps:
						seen[classCrossPage]++
					default:
						seen[classOnePage]++
						if cap(v) != len(v) {
							t.Fatalf("round %d: one-page record (%d, %d) was copied, not viewed", round, r.Off, r.N)
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
