package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// oneLaneSSD is the Intel profile with one queue lane, so that a
// submission's sequential runs show in its time: each run pays ReadFixed
// once, and every request its transfer.
func oneLaneSSD() ssd.Profile {
	p := ssd.IntelX18M()
	p.QueueDepth = 1
	return p
}

// pageModels are the devices the page-read tests run on: the SSD, the
// disk, and the two-member stripes of stripeModels: pairs of SSDs of an
// odd and an even number of units, and of disks.
var pageModels = [...]struct {
	name string
	dev  func(*vclock.Clock) storage.Device
}{
	{"ssd", func(c *vclock.Clock) storage.Device { return ssd.New(oneLaneSSD(), 256<<10, c) }},
	{"disk", func(c *vclock.Clock) storage.Device { return disk.New(disk.Hitachi7K80(), 256<<10, c) }},
	{"stripe-ssd", func(c *vclock.Clock) storage.Device { return ssdStripe(1, 256<<10, c) }},
	{"stripe-pair", func(c *vclock.Clock) storage.Device { return ssdPair(1, 256<<10, c) }},
	{"stripe-disk", func(c *vclock.Clock) storage.Device { return diskStripe(256<<10, c) }},
}

// pageRec is a record a pageLog appended, or a location a test made up.
type pageRec struct {
	off   int64
	n     int
	word  uint64
	cycle uint64 // absolute: 1 for the log's first pass
}

// pageLog drives a value log and keeps the flat reference the page-read
// tests check it against: image holds, at every log offset, the last
// byte the log put there (a record's, or a wrap's zero padding), so a
// record the skip rule reads must read back as its image bytes.
type pageLog struct {
	t     testing.TB
	l     *storage.ValueLog
	ps    int64
	image []byte
	recs  []pageRec
	cycle uint64
	head  int64
}

func newPageLog(t testing.TB, dev storage.Device) *pageLog {
	t.Helper()
	l, err := storage.NewValueLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	return &pageLog{t: t, l: l, ps: int64(dev.Geometry().PageSize), image: make([]byte, l.Stats().Capacity), cycle: 1}
}

// append appends one record per value size, with random value bytes from
// rng, as one batch.
func (p *pageLog) append(rng *rand.Rand, sizes ...int) {
	p.t.Helper()
	keys, vals := make([][]byte, len(sizes)), make([][]byte, len(sizes))
	for i, n := range sizes {
		keys[i] = fmt.Appendf(nil, "page-%d", len(p.recs)+i)
		vals[i] = make([]byte, n)
		rng.Read(vals[i])
	}
	words := make([]uint64, len(sizes))
	if err := p.l.AppendBatch(keys, vals, words); err != nil {
		p.t.Fatal(err)
	}
	for i, w := range words {
		off, n, _, _ := storage.DecodeValuePtr(w)
		if off == 0 && len(p.recs) > 0 { // a wrap padded the old cycle with zeros
			clear(p.image[p.head:])
			p.cycle++
		}
		rec := p.image[off : off+int64(n)]
		binary.LittleEndian.PutUint32(rec[0:], uint32(len(keys[i])))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(vals[i])))
		copy(rec[8+copy(rec[8:], keys[i]):], vals[i])
		p.recs = append(p.recs, pageRec{off, n, w, p.cycle})
		p.head = off + int64(n)
	}
}

// bufStart is the flush frontier: the tail buffer holds [bufStart, head).
func (p *pageLog) bufStart() int64 { return p.head - p.l.Stats().BufferedBytes }

// readable reports whether the skip rule reads r (see ValueLog): in the
// first cycle a record before the head, then one tagged with the current
// cycle, or with the previous one at or past the head. Tags are kept mod
// 64, so a record 64 cycles old reads as the current cycle's.
func (p *pageLog) readable(r pageRec) bool {
	if p.cycle == 1 {
		return r.off+int64(r.n) <= p.head
	}
	return r.cycle%64 == p.cycle%64 || r.cycle%64 == (p.cycle-1)%64 && r.off >= p.head
}

// devicePages calls f for each device page holding r's device bytes:
// those before the flush frontier and those past the head.
func (p *pageLog) devicePages(r pageRec, f func(page int64)) {
	end, bufStart := r.off+int64(r.n), p.bufStart()
	span := func(lo, hi int64) {
		for pg := lo / p.ps; lo < hi && pg <= (hi-1)/p.ps; pg++ {
			f(pg)
		}
	}
	if r.off < bufStart {
		span(r.off, min(end, bufStart))
	}
	if end > p.head {
		span(max(r.off, p.head), end)
	}
}

// pageStep is one step of a TestValueLogPageReads row.
type pageStep struct {
	read   []string // the records it reads, by name
	copied []string // of those, the records copied into the arena
	reqs   int      // the device requests it submits, or -1 for any
	runs   int      // on the SSD, the runs among them (0: not checked)
}

// TestValueLogPageReads pins the value log's page-granular reads on the
// SSD (one queue lane, so each sequential run shows in the clock as one
// ReadFixed) and on the disk. One log per model is appended past a wrap,
// and its records are named by class: two inside one page, two inside
// adjacent pages, a page-crossing one, one across the flush frontier, one
// in the tail buffer, the previous cycle's past the head (inside a page
// and across one), and a made-up current-cycle location across the head.
//
// Each row reads some of them, one call per step. Every record must read
// back byte for byte as the image holds it, the arena must hold exactly
// the copied records' bytes, and each call must submit the row's number of
// requests, and each page its records touch once: Reads − ReadThrough
// must grow by their number. A twin device, which saw the same writes, is
// read the way the log must read: every device page the call's records
// touch, each once, whole and in address order, plus the pages a page-read
// submission of them reads through (see readThroughPages). The log's
// device must end each call with the twin's Counters and clock.
func TestValueLogPageReads(t *testing.T) {
	rows := []struct {
		name  string
		steps []pageStep
	}{
		{"two records in one page make one request", []pageStep{
			{read: []string{"a1", "a2"}, reqs: 1, runs: 1},
		}},
		{"records on adjacent pages make one run", []pageStep{
			{read: []string{"b1", "b2"}, reqs: 2, runs: 1},
		}},
		{"a page-crossing record takes two page views and is copied", []pageStep{
			{read: []string{"c"}, copied: []string{"c"}, reqs: 2, runs: 1},
		}},
		{"records overlapping the tail buffer are copied", []pageStep{
			{read: []string{"s", "t", "a1"}, copied: []string{"s", "t"}, reqs: -1},
		}},
		{"stale records past the head read as a copying read would", []pageStep{
			{read: []string{"p1", "p2", "x"}, copied: []string{"p2", "x"}, reqs: -1},
		}},
		{"a chunk reads each page once", []pageStep{
			{read: []string{"a1", "a2", "b1", "b1", "a1", "c", "a2", "c"}, copied: []string{"c"}, reqs: -1},
			{read: []string{"a1"}, reqs: 1, runs: 1},
		}},
	}
	for _, m := range pageModels {
		t.Run(m.name, func(t *testing.T) {
			clk, twinClk := vclock.New(), vclock.New()
			dev, twin := m.dev(clk), m.dev(twinClk)
			p, tp := newPageLog(t, dev), newPageLog(t, twin)
			rng := rand.New(rand.NewSource(35))
			vals, twinVals := rand.New(rand.NewSource(36)), rand.New(rand.NewSource(36))
			capacity := int64(len(p.image))
			for p.cycle < 2 || p.head < capacity/2+capacity/8 || p.l.Stats().BufferedBytes < 4*p.ps {
				sizes := make([]int, 12)
				for i := range sizes {
					sizes[i] = 40 + rng.Intn(600)
					if rng.Intn(6) == 0 {
						sizes[i] = 3000 + rng.Intn(3000)
					}
				}
				p.append(vals, sizes...)
				tp.append(twinVals, sizes...)
			}
			picks := pickPageClasses(t, p)
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					for si, st := range row.steps {
						seen := map[int64]bool{} // pages the twin reads in the call
						reqs := make([]storage.ValueReadReq, len(st.read))
						copied := 0
						var fresh []int64
						for i, name := range st.read {
							r := picks[name]
							reqs[i].Ptr = r.word
							if slices.Contains(st.copied, name) {
								copied += r.n
							}
							p.devicePages(r, func(pg int64) {
								if !seen[pg] {
									seen[pg] = true
									fresh = append(fresh, pg)
								}
							})
						}
						c0, t0 := dev.Counters(), clk.Now()
						arena, err := p.l.ReadRecordsBatch(reqs, make([]byte, 0, 16))
						if err != nil {
							t.Fatal(err)
						}
						for i, name := range st.read {
							r := picks[name]
							if !bytes.Equal(reqs[i].Rec, p.image[r.off:r.off+int64(r.n)]) {
								t.Fatalf("step %d: %s (%d, %d) reads %d bytes unlike its image", si, name, r.off, r.n, len(reqs[i].Rec))
							}
						}
						if len(arena) != copied {
							t.Errorf("step %d: arena holds %d bytes, want %d copied", si, len(arena), copied)
						}
						slices.Sort(fresh)
						pages := make([]uint64, len(fresh))
						for i, pg := range fresh {
							pages[i] = uint64(pg)
						}
						if _, err := twin.ReadBatch(readThroughSub(twin, pages)); err != nil {
							t.Fatal(err)
						}
						c := dev.Counters()
						got := c.Reads - c0.Reads
						if own := got - (c.ReadThrough - c0.ReadThrough); own != uint64(len(fresh)) {
							t.Fatalf("step %d: %d requests, %d of them read through; want each of the %d pages once",
								si, got, c.ReadThrough-c0.ReadThrough, len(fresh))
						}
						if c != twin.Counters() || clk.Now() != twinClk.Now() {
							t.Fatalf("step %d: counters %+v and clock %v, reading %d whole pages %+v and %v",
								si, c, clk.Now(), len(fresh), twin.Counters(), twinClk.Now())
						}
						if st.reqs >= 0 && got != uint64(st.reqs) {
							t.Fatalf("step %d: %d requests, want %d", si, got, st.reqs)
						}
						if st.runs > 0 && m.name == "ssd" {
							prof := oneLaneSSD()
							want := time.Duration(st.runs)*prof.ReadFixed + time.Duration(got)*time.Duration(p.ps)*prof.ReadPerByte
							if d := clk.Now() - t0; d != want {
								t.Fatalf("step %d: %d requests took %v, want %v for %d runs", si, got, d, want, st.runs)
							}
						}
					}
				})
			}
			t.Run("a write forgets the chunk's pages", func(t *testing.T) {
				testWriteForgetsPages(t, m.dev)
			})
		})
	}
}

// pickPageClasses names one record of each class TestValueLogPageReads
// reads (see there) among p's records.
func pickPageClasses(t *testing.T, p *pageLog) map[string]pageRec {
	t.Helper()
	bufStart, ps := p.bufStart(), p.ps
	page := func(r pageRec) int64 { return r.off / ps }
	inPage := func(r pageRec) bool { return page(r) == (r.off+int64(r.n)-1)/ps }
	device := func(r pageRec) bool { return r.cycle == p.cycle && r.off+int64(r.n) <= bufStart }
	picks := map[string]pageRec{}
	pick := func(name string, ok func(r pageRec) bool) {
		for _, r := range p.recs {
			if ok(r) {
				picks[name] = r
				return
			}
		}
		t.Fatalf("no record of class %s", name)
	}
	// a1 and a2 are the first two device records inside one page.
	sharing := func(a, b pageRec) bool {
		return device(a) && inPage(a) && device(b) && inPage(b) && page(a) == page(b) && a.off != b.off
	}
	pick("a1", func(r pageRec) bool {
		return slices.ContainsFunc(p.recs, func(o pageRec) bool { return sharing(r, o) })
	})
	pick("a2", func(r pageRec) bool { return sharing(r, picks["a1"]) })
	pick("b1", func(r pageRec) bool { return device(r) && inPage(r) && page(r) > page(picks["a1"])+1 })
	pick("b2", func(r pageRec) bool { return device(r) && inPage(r) && page(r) == page(picks["b1"])+1 })
	pick("c", func(r pageRec) bool { return device(r) && !inPage(r) && page(r) > page(picks["b2"]) })
	pick("s", func(r pageRec) bool { return r.cycle == p.cycle && r.off < bufStart && r.off+int64(r.n) > bufStart })
	pick("t", func(r pageRec) bool { return r.cycle == p.cycle && r.off >= bufStart })
	pick("p1", func(r pageRec) bool { return r.cycle+1 == p.cycle && r.off >= p.head && inPage(r) })
	pick("p2", func(r pageRec) bool { return r.cycle+1 == p.cycle && r.off >= p.head && !inPage(r) })
	x := pageRec{off: p.head - 100, n: 300, cycle: p.cycle}
	x.word, _ = storage.EncodeValuePtr(x.off, x.n, p.cycle)
	picks["x"] = x
	return picks
}

// testWriteForgetsPages checks that a read after a write reads its pages
// again. The log runs on a device that serves views from buffers it owns
// and scribbles over them at its next write (see ownedViewDevice). A read
// of a record is followed by appends until the log wraps and rewrites that
// record's page, and a read of the record now at its offset: it must read
// its page again and come back as the image holds it, which a view kept
// past the write would not.
func testWriteForgetsPages(t *testing.T, model func(*vclock.Clock) storage.Device) {
	dev := &ownedViewDevice{Device: model(vclock.New())}
	p := newPageLog(t, dev)
	rng := rand.New(rand.NewSource(37))
	for p.bufStart() < 8*p.ps {
		p.append(rng, 100, 200, 300)
	}
	first := p.recs[1] // inside page 0, on the device
	read := func(r pageRec) {
		t.Helper()
		reqs := []storage.ValueReadReq{{Ptr: r.word}}
		r0 := dev.Counters().Reads
		if _, err := p.l.ReadRecordsBatch(reqs, nil); err != nil {
			t.Fatal(err)
		}
		if dev.Counters().Reads != r0+1 {
			t.Fatalf("record (%d, %d) of cycle %d took %d requests, want its page's 1",
				r.off, r.n, r.cycle, dev.Counters().Reads-r0)
		}
		if !bytes.Equal(reqs[0].Rec, p.image[r.off:r.off+int64(r.n)]) {
			t.Fatalf("record (%d, %d) of cycle %d does not read back", r.off, r.n, r.cycle)
		}
	}
	read(first)
	for p.cycle == 1 || p.bufStart() < 8*p.ps {
		p.append(rng, 100, 200, 300)
	}
	again := pageRec{off: first.off, n: first.n, cycle: p.cycle}
	again.word, _ = storage.EncodeValuePtr(again.off, again.n, p.cycle)
	read(again)
}

// pageCountingDevice fails the test on a read request that is no whole
// page view, on a page requested twice in one submission, and on a
// submission whose read-through requests are not exactly the pages its
// other requests read through (see readThroughPages).
type pageCountingDevice struct {
	storage.Device
	t  testing.TB
	ps int64
}

func (d *pageCountingDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	seen := map[int64]bool{}
	var pages, fills []uint64
	for _, r := range reqs {
		if !r.View || r.Off%d.ps != 0 || int64(r.N) != d.ps {
			d.t.Fatalf("request %+v is no whole-page view", r)
		}
		if seen[r.Off] {
			d.t.Fatalf("page at %d requested twice in one submission", r.Off)
		}
		seen[r.Off] = true
		if r.Through {
			fills = append(fills, uint64(r.Off/d.ps))
		} else {
			pages = append(pages, uint64(r.Off/d.ps))
		}
	}
	if want := readThroughPages(d.Device, pages); !slices.Equal(fills, want) {
		d.t.Fatalf("submission of pages %v read through %v, want %v", pages, fills, want)
	}
	return d.Device.ReadBatch(reqs)
}

// checkPageReads runs the append and read sequence data describes on a
// log over model's device. Each byte (cycled, at most 600) is an op by its
// low two bits: 0 and 1 append a batch of 1 to 8 records, whose value
// sizes the next bytes give (below 0xC0 up to about 500 bytes, from 0xC0
// up to three device pages); 2 and 3 read a batch of 1 to 32 records
// picked by the next bytes from every record appended, stale ones
// included, and sometimes a made-up location across the head. Every
// record the skip rule reads must come back byte for byte as the flat
// image holds it, every other must come back nil, no device page may be
// requested twice in one call, and each call must read through exactly
// the holes its pages leave under the page-read contract (see
// pageCountingDevice), which the records' bytes must not come from.
func checkPageReads(t *testing.T, model int, data []byte) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	m := pageModels[model%len(pageModels)]
	base := m.dev(vclock.New())
	ps := int64(base.Geometry().PageSize)
	dev := &pageCountingDevice{Device: base, t: t, ps: ps}
	var logDev storage.Device = dev
	if md, ok := base.(storage.MemberDevice); ok {
		logDev = withMembers{dev, md}
	}
	p := newPageLog(t, logDev)
	rng := rand.New(rand.NewSource(int64(len(data))))
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	for step := 0; step < max(len(data), 64) && step < 600; step++ {
		switch op := next(); op % 4 {
		case 0, 1:
			sizes := make([]int, 1+int(next()%8))
			for i := range sizes {
				b := next()
				sizes[i] = 2 * int(b)
				if b >= 0xC0 {
					sizes[i] = 1 + int(b&0x3f)*3*int(ps)/0x3f
				}
			}
			p.append(rng, sizes...)
		case 2, 3:
			if len(p.recs) == 0 {
				continue
			}
			var recs []pageRec
			for range 1 + int(next()%32) {
				recs = append(recs, p.recs[int(next())*len(p.recs)/256])
			}
			if op&0x80 != 0 && p.head >= 64 && p.head+64 <= int64(len(p.image)) {
				x := pageRec{off: p.head - 64, n: 128, cycle: p.cycle}
				x.word, _ = storage.EncodeValuePtr(x.off, x.n, p.cycle)
				recs = append(recs, x)
			}
			reqs := make([]storage.ValueReadReq, len(recs))
			for i, r := range recs {
				reqs[i].Ptr = r.word
			}
			if _, err := p.l.ReadRecordsBatch(reqs, nil); err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				var want []byte
				if p.readable(r) {
					want = p.image[r.off : r.off+int64(r.n)]
				}
				if got := reqs[i].Rec; (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("step %d: record (%d, %d) of cycle %d in cycle %d, head %d: %d bytes, want %d (or other bytes)",
						step, r.off, r.n, r.cycle, p.cycle, p.head, len(got), len(want))
				}
			}
		}
	}
}

// FuzzValueLogPageReads checks page-granular value-log reads against a
// flat byte image on every page model (see checkPageReads).
func FuzzValueLogPageReads(f *testing.F) {
	seeds := [][]byte{
		{0x00, 0x07, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x02, 0x08, 0x10, 0x80, 0xf0},
		{0x01, 0x03, 0xc5, 0xff, 0x10, 0x03, 0x02, 0x1f, 0x00, 0x40, 0x80, 0xc0, 0xff, 0x82, 0x10, 0x01, 0xfe, 0x03},
	}
	rng := rand.New(rand.NewSource(38))
	for range 3 {
		b := make([]byte, 200)
		rng.Read(b)
		seeds = append(seeds, b)
	}
	for _, data := range seeds {
		for model := range pageModels {
			f.Add(uint8(model), data)
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		checkPageReads(t, int(model), data)
	})
}
