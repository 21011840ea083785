package storage_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// submissionRecorder records the page numbers of every read submission
// its device served, in the order given: in subs the pages the caller
// asked for, and in fills the read-through pages (ReadReq.Through). It
// fails the test on a request that is no whole-page view, and on a
// submission whose read-through pages are not exactly those its pages
// read through on the device (see readThroughPages).
type submissionRecorder struct {
	storage.Device
	t     testing.TB
	ps    int64
	subs  [][]uint64
	fills [][]uint64
}

func (d *submissionRecorder) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	lat, err := d.Device.ReadBatch(reqs)
	if err != nil {
		return lat, err
	}
	var pages, fills []uint64
	for _, r := range reqs {
		if !r.View || r.Off%d.ps != 0 || int64(r.N) != d.ps {
			d.t.Fatalf("request %+v is no whole-page view", r)
		}
		if r.Through {
			fills = append(fills, uint64(r.Off/d.ps))
		} else {
			pages = append(pages, uint64(r.Off/d.ps))
		}
	}
	if want := readThroughPages(d.Device, pages); !slices.Equal(fills, want) {
		d.t.Fatalf("submission of %v read through %v, want %v", pages, fills, want)
	}
	d.subs, d.fills = append(d.subs, pages), append(d.fills, fills)
	return lat, nil
}

// readThroughPages returns the pages a page-read set's submission of
// pages, ascending and distinct, reads through on dev (see
// storage.PageReads): none when it holds at most dev's lanes, and else
// every page of each hole of at most dev's ReadGap pages between two
// consecutive ones, when both lie in one stripe unit of a device of
// several members (every test stripe has stripeUnit units).
func readThroughPages(dev storage.Device, pages []uint64) []uint64 {
	g := dev.Geometry()
	if len(pages) <= max(g.Lanes, 1) {
		return nil
	}
	unit := func(uint64) int64 { return 0 }
	if md, ok := dev.(storage.MemberDevice); ok && md.Members() > 1 {
		unit = func(p uint64) int64 { return int64(p) * int64(g.PageSize) / stripeUnit }
	}
	var fills []uint64
	for i := 1; i < len(pages); i++ {
		a, b := pages[i-1], pages[i]
		if b-a-1 > 0 && b-a-1 <= uint64(g.ReadGap) && unit(a) == unit(b) {
			for p := a + 1; p < b; p++ {
				fills = append(fills, p)
			}
		}
	}
	return fills
}

// readThroughSub returns the copying submission a page-read set's
// submission of pages, ascending and distinct, makes on dev: a whole-page
// request per page, and a read-through one per page it reads through.
func readThroughSub(dev storage.Device, pages []uint64) []storage.ReadReq {
	ps := int64(dev.Geometry().PageSize)
	var sub []storage.ReadReq
	for _, p := range pages {
		sub = append(sub, storage.ReadReq{P: make([]byte, ps), Off: int64(p) * ps})
	}
	for _, p := range readThroughPages(dev, pages) {
		sub = append(sub, storage.ReadReq{P: make([]byte, ps), Off: int64(p) * ps, Through: true})
	}
	sortReads(sub)
	return sub
}

// withMembers is a device wrapping another device, such as a recorder,
// over a device with members, md, which it reports as its own.
type withMembers struct {
	storage.Device
	md storage.MemberDevice
}

func (d withMembers) Members() int         { return d.md.Members() }
func (d withMembers) Member(off int64) int { return d.md.Member(off) }

// pagedModel is a device model filled with random bytes, whose image
// holds what each of its pages stores, behind a submission recorder.
type pagedModel struct {
	model
	rec   *submissionRecorder
	image []byte
	ps    int64
}

// reader is the recorder as the device a page-read set reads: with the
// model's members, if it has any.
func (m *pagedModel) reader() storage.Device {
	if md, ok := m.dev.(storage.MemberDevice); ok {
		return withMembers{m.rec, md}
	}
	return m.rec
}

// fill fills m's device with random bytes drawn from seed.
func fill(t testing.TB, m model, seed int64) pagedModel {
	t.Helper()
	image := make([]byte, m.dev.Geometry().Capacity)
	rand.New(rand.NewSource(seed)).Read(image)
	if _, err := m.dev.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	ps := int64(m.dev.Geometry().PageSize)
	rec := &submissionRecorder{Device: m.dev, t: t, ps: ps}
	return pagedModel{model: m, rec: rec, image: image, ps: ps}
}

// page is the bytes the image holds for page p.
func (m *pagedModel) page(p uint64) []byte { return m.image[int64(p)*m.ps : int64(p+1)*m.ps] }

// pageCountDevice reports a capacity of pages of its device's pages.
type pageCountDevice struct {
	storage.Device
	pages int64
}

func (d pageCountDevice) Geometry() storage.Geometry {
	g := d.Device.Geometry()
	g.Capacity = d.pages * int64(g.PageSize)
	return g
}

// TestPageReads checks the page-read set: it numbers pages in the order
// first added, across the growths a run of adjacent pages and a scattered
// set force and across Reset, which sizes the table for its last use
// (FitSlots); each Submit reads exactly the next n unsubmitted pages, as
// one submission in ascending address order, and their views land by
// number; a failed submission returns its error and leaves its pages
// unsubmitted; and a device of more than 2^32 pages is rejected.
func TestPageReads(t *testing.T) {
	dev := models(1 << 20)[0].dev
	if _, err := storage.NewPageReads(pageCountDevice{dev, 1 << 32}, 4096, false); err != nil {
		t.Fatalf("device of 2^32 pages rejected: %v", err)
	}
	if _, err := storage.NewPageReads(pageCountDevice{dev, 1<<32 + 1}, 4096, false); err == nil {
		t.Fatal("device of 2^32+1 pages accepted")
	}

	t.Run("numbering", func(t *testing.T) {
		pr, err := storage.NewPageReads(dev, 4096, false)
		if err != nil {
			t.Fatal(err)
		}
		// addAll adds pages twice over, and requires the first-add order's
		// numbers both times and a table at most half full, of size slots.
		addAll := func(pages []uint64, size int) {
			t.Helper()
			for round := range 2 {
				for i, page := range pages {
					n := i + 1
					if round == 1 {
						n = len(pages)
					}
					if id := pr.Add(page); id != i || pr.Sent()+pr.Unsent() != n {
						t.Fatalf("round %d: page %d numbered %d (%d pages), want %d (%d)", round, page, id, pr.Sent()+pr.Unsent(), i, n)
					}
				}
			}
			if 2*len(pages) > pr.Slots() {
				t.Fatalf("%d pages in %d slots: more than half full", len(pages), pr.Slots())
			}
			if pr.Slots() != size {
				t.Fatalf("%d pages in %d slots, want %d", len(pages), pr.Slots(), size)
			}
			pr.Reset()
			if pr.Sent() != 0 || pr.Unsent() != 0 {
				t.Fatalf("reset left %d pages sent and %d not", pr.Sent(), pr.Unsent())
			}
		}
		var many []uint64
		for i := range uint64(300) {
			many = append(many, 1000+i, i*0x9e3779b97f4a7c15>>32)
		}
		few, next := many[:8], many[:9]

		addAll(few, 16)  // the least table
		addAll(next, 32) // outgrows it
		addAll(many, 2048)
		addAll(many, 2048)       // sized for its last use: no growth
		addAll(many[:300], 2048) // a smaller set keeps the size
		addAll(few, 2048)        // and so do 8 pages, until Reset
		addAll(few, 16)          // shrinks it: 2048 is over 8 times their fit
		for _, c := range []struct{ size, n, want int }{
			{0, 0, 16}, {16, 8, 16}, {16, 9, 32}, {256, 16, 256}, {512, 16, 32}, {1024, 300, 1024}, {2048, 600, 2048},
		} {
			if got := storage.FitSlots(c.size, c.n); got != c.want {
				t.Errorf("FitSlots(%d, %d) = %d, want %d", c.size, c.n, got, c.want)
			}
		}
	})

	t.Run("members", func(t *testing.T) {
		// A shard's pair of SSDs: pages 0-7 lie on member 0, 8-15 on
		// member 1, 16-23 on member 0 and so on.
		m := fill(t, stripeModels(64 << 12)[1], 43)
		if pr, err := storage.NewPageReads(m.reader(), int(m.ps), false); err != nil || pr.Members() != 1 {
			t.Fatalf("an unsplit set over a pair keeps %d members apart (%v), want 1", pr.Members(), err)
		}
		pr, err := storage.NewPageReads(m.reader(), int(m.ps), true)
		if err != nil || pr.Members() != 2 {
			t.Fatalf("a split set over a pair keeps %d members apart (%v), want 2", pr.Members(), err)
		}
		for _, page := range []uint64{9, 1, 20, 3, 8, 2} {
			pr.Add(page)
		}
		submit := func(n int, members uint64, want ...uint64) {
			t.Helper()
			before := len(m.rec.subs)
			if err := pr.Submit(n, members); err != nil {
				t.Fatal(err)
			}
			if len(m.rec.subs) != before+1 || !slices.Equal(m.rec.subs[before], want) {
				t.Fatalf("Submit(%d, %#x) read %v, want %v in one submission", n, members, m.rec.subs[before:], want)
			}
		}
		submit(2, 1<<1, 8, 9) // member 1's first two: all it holds
		if pr.UnsentOn(0) != 4 || pr.UnsentOn(1) != 0 {
			t.Fatalf("members hold %d and %d pages unsubmitted, want 4 and 0", pr.UnsentOn(0), pr.UnsentOn(1))
		}
		submit(2, 1<<0, 1, 20)
		submit(1, storage.AllMembers, 3)
		pr.Add(25)
		submit(pr.Unsent(), storage.AllMembers, 2, 25)
		for id, page := range []uint64{9, 1, 20, 3, 8, 2, 25} {
			if !bytes.Equal(pr.View(id), m.page(page)) {
				t.Fatalf("view %d is not page %d's bytes", id, page)
			}
		}

		// Read-through on the pair (16 lanes, a ReadGap of 3): holes of 3
		// and 2 pages inside a unit are read through; one of 4 pages, and
		// ones of 2 and 3 pages that cross a unit boundary, are not.
		pages := []uint64{0, 4, 9, 10, 14, 17, 20, 24}
		for p := uint64(25); p <= 35; p++ {
			pages = append(pages, p)
		}
		checkReadThrough(t, &m, &pr, pages, []uint64{1, 2, 3, 11, 12, 13, 18, 19})
		checkReadThrough(t, &m, &pr, pages[:16], nil) // at the lanes: exactly its pages
	})

	for _, m := range models(64 << 12) {
		m := fill(t, m, 41)
		t.Run(m.name, func(t *testing.T) {
			pr, err := storage.NewPageReads(m.reader(), int(m.ps), true)
			if err != nil {
				t.Fatal(err)
			}
			distinct := []uint64{9, 3, 17, 0, 63, 40, 41, 39, 2, 62}
			for _, page := range []uint64{9, 3, 3, 17, 0, 63, 9, 40, 41, 39, 2, 17, 62} {
				if id := pr.Add(page); distinct[id] != page {
					t.Fatalf("page %d numbered %d, which is page %d's", page, id, distinct[id])
				}
			}
			submit := func(n int, want ...uint64) {
				t.Helper()
				before := len(m.rec.subs)
				if err := pr.Submit(n, storage.AllMembers); err != nil {
					t.Fatal(err)
				}
				switch {
				case len(want) == 0 && len(m.rec.subs) != before:
					t.Fatalf("Submit(%d) made a submission", n)
				case len(want) > 0 && (len(m.rec.subs) != before+1 || !slices.Equal(m.rec.subs[before], want)):
					t.Fatalf("Submit(%d) read %v, want %v in one submission", n, m.rec.subs[before:], want)
				}
				for id := range pr.Sent() {
					if !bytes.Equal(pr.View(id), m.page(distinct[id])) {
						t.Fatalf("view %d is not page %d's bytes", id, distinct[id])
					}
				}
			}
			submit(3, 3, 9, 17)
			submit(0)
			if pr.Add(3) != 1 || pr.Add(5) != 10 {
				t.Fatal("re-adding a submitted page or adding a new one misnumbered")
			}
			distinct = append(distinct, 5)
			submit(1, 0)
			submit(pr.Unsent(), 2, 5, 39, 40, 41, 62, 63)
			if pr.Sent() != len(distinct) {
				t.Fatalf("%d pages submitted, want %d", pr.Sent(), len(distinct))
			}

			pr.Reset()
			distinct = []uint64{41, 7}
			pr.Add(41)
			pr.Add(7)
			boom := errors.New("injected read fault")
			m.dev.SetFault(func(op storage.Op, off int64, n int) error {
				if op == storage.OpRead {
					return boom
				}
				return nil
			})
			before := len(m.rec.subs)
			if err := pr.Submit(2, storage.AllMembers); !errors.Is(err, boom) {
				t.Fatalf("faulted Submit returned %v, want the fault", err)
			}
			if pr.Sent() != 0 || len(m.rec.subs) != before {
				t.Fatalf("faulted Submit left %d pages submitted and %d submissions served", pr.Sent(), len(m.rec.subs)-before)
			}
			m.dev.SetFault(nil)
			submit(2, 7, 41)

			// A hole of ReadGap pages is read through once the submission
			// holds more pages than the device's lanes, one of ReadGap+1
			// pages is not, and a submission at the lanes reads exactly
			// its pages.
			g := m.dev.Geometry()
			gap := uint64(g.ReadGap)
			pages := []uint64{0, gap + 1, 2*gap + 3}
			for p := pages[2] + 1; len(pages) <= g.Lanes; p++ {
				pages = append(pages, p)
			}
			var fills []uint64
			for p := uint64(1); p <= gap; p++ {
				fills = append(fills, p)
			}
			checkReadThrough(t, &m, &pr, pages, fills)
			if g.Lanes >= 2 {
				checkReadThrough(t, &m, &pr, pages[:2], nil)
			}
		})
	}
}

// checkReadThrough resets pr, adds pages, ascending, and submits them all:
// the submission must read exactly pages and read through exactly fills,
// count those in Counters.ReadThrough and every request in Reads, and
// hand back each page's view.
func checkReadThrough(t *testing.T, m *pagedModel, pr *storage.PageReads, pages, fills []uint64) {
	t.Helper()
	pr.Reset()
	for _, p := range pages {
		pr.Add(p)
	}
	before, c0 := len(m.rec.subs), m.dev.Counters()
	if err := pr.Submit(pr.Unsent(), storage.AllMembers); err != nil {
		t.Fatal(err)
	}
	c := m.dev.Counters()
	if len(m.rec.subs) != before+1 || !slices.Equal(m.rec.subs[before], pages) || !slices.Equal(m.rec.fills[before], fills) {
		t.Fatalf("submitting %v read %v and read through %v, want one submission reading through %v",
			pages, m.rec.subs[before:], m.rec.fills[before:], fills)
	}
	if through, reads := c.ReadThrough-c0.ReadThrough, c.Reads-c0.Reads; through != uint64(len(fills)) || reads != uint64(len(pages)+len(fills)) {
		t.Fatalf("submitting %v counted %d reads, %d read through; want %d and %d", pages, reads, through, len(pages)+len(fills), len(fills))
	}
	for id, p := range pages {
		if !bytes.Equal(pr.View(id), m.page(p)) {
			t.Fatalf("view %d is not page %d's bytes", id, p)
		}
	}
}

// TestGeometryReadGap pins each device model's ReadGap: the most whole
// pages whose transfer costs less than a run's ReadFixed on an SSD, 3 on
// the Intel profile and 10 on the Transcend, 0 on the disk, and the least
// of its members' on a stripe.
func TestGeometryReadGap(t *testing.T) {
	c := vclock.New()
	intel := ssd.New(ssd.IntelX18M(), 1<<20, c)
	transcend := ssd.New(ssd.TranscendTS32(), 1<<20, c)
	hdd := disk.New(disk.Hitachi7K80(), 1<<20, c)
	stripe := func(members ...storage.Device) storage.Device {
		s, err := storage.NewStripe(128<<10, members...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, row := range []struct {
		name string
		dev  storage.Device
		want int
	}{
		{"ssd-intel", intel, 3},
		{"ssd-transcend", transcend, 10},
		{"disk", hdd, 0},
		{"stripe of an intel and a transcend", stripe(transcend, intel), 3},
		{"stripe of an intel and a disk", stripe(intel, hdd), 0},
	} {
		if got := row.dev.Geometry().ReadGap; got != row.want {
			t.Errorf("%s: ReadGap %d, want %d", row.name, got, row.want)
		}
	}
}

// checkPageReadsSet runs the Add, Submit and Reset sequence data describes
// on a page-read set over a 64-page model device, split over its members
// if it has any, against a naive model: a slice of the pages in first-add
// order, and each member's queue of them. Each byte (cycled, at most 600)
// is an op by its low two bits: 0 and 1 add the page the next byte names,
// 2 submits as many of each chosen member's first unsubmitted pages as the
// next byte names (modulo the set's unsubmitted pages plus one), failing
// the submission when the op's top bit is set (only on its read-through
// pages, if it has any, when bit 6 is set too), and 3 resets the set. Bits
// 2 and 3 of a submission's op choose its members: 0 all, else a mask of
// members 0 and 1. Every page must be numbered as the model numbers it,
// every submission must read exactly its members' next pages of the
// model, in ascending address order (so each member's share ascends too),
// and read through exactly the holes the contract names (see
// readThroughPages: none at or under the device's lanes), each counted in
// Counters.ReadThrough; no page may be requested twice between Resets but
// as a read-through page, every view must equal the device's bytes (so no
// read-through page is handed out as one), and a failed submission must
// return its error and submit nothing. It returns the pages read through
// and the faulted submissions that had read-through pages.
func checkPageReadsSet(t *testing.T, model int, data []byte) (fills, faultedFills int) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	ms := pageReadModels()
	m := fill(t, ms[model%len(ms)], int64(len(data)))
	pr, err := storage.NewPageReads(m.reader(), int(m.ps), true)
	if err != nil {
		t.Fatal(err)
	}
	member := func(uint64) int { return 0 }
	if md, ok := m.dev.(storage.MemberDevice); ok {
		member = func(page uint64) int { return md.Member(int64(page) * m.ps) }
		if pr.Members() != md.Members() {
			t.Fatalf("a set over %d members keeps %d apart", md.Members(), pr.Members())
		}
	}
	boom := errors.New("injected read fault")
	var pages []uint64 // the model: pages by number
	queues := make([][]int, pr.Members())
	sentOn := make([]int, pr.Members())
	sent := map[int]bool{}
	requested := map[uint64]bool{}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	for step := 0; step < max(len(data), 64) && step < 600; step++ {
		switch op := next(); op % 4 {
		case 0, 1:
			page := uint64(next() % 64)
			want := slices.Index(pages, page)
			if want < 0 {
				want = len(pages)
				pages = append(pages, page)
				mi := member(page)
				queues[mi] = append(queues[mi], want)
			}
			if id := pr.Add(page); id != want || pr.Sent()+pr.Unsent() != len(pages) {
				t.Fatalf("step %d: page %d numbered %d of %d, want %d of %d", step, page, id, pr.Sent()+pr.Unsent(), want, len(pages))
			}
		case 2:
			n := int(next()) % (pr.Unsent() + 1)
			members := storage.AllMembers
			if sel := uint64(op>>2) & 3; sel != 0 {
				members = sel
			}
			var ids []int
			for mi, q := range queues {
				if members&(1<<mi) != 0 {
					ids = append(ids, q[sentOn[mi]:sentOn[mi]+min(n, len(q)-sentOn[mi])]...)
				}
			}
			var want []uint64
			for _, id := range ids {
				want = append(want, pages[id])
			}
			slices.Sort(want)
			through := readThroughPages(m.dev, want)
			faulted := op&0x80 != 0 && len(ids) > 0
			switch {
			case faulted && op&0x40 != 0 && len(through) > 0:
				failPages(m.dev, m.ps, through, boom)
				faultedFills++
			case faulted:
				m.dev.SetFault(func(storage.Op, int64, int) error { return boom })
			}
			before, unsent, c0 := len(m.rec.subs), pr.Unsent(), m.dev.Counters()
			err := pr.Submit(n, members)
			m.dev.SetFault(nil)
			if faulted {
				if !errors.Is(err, boom) || pr.Unsent() != unsent || len(m.rec.subs) != before {
					t.Fatalf("step %d: faulted Submit(%d, %#x) returned %v with %d pages unsubmitted, want the fault with %d", step, n, members, err, pr.Unsent(), unsent)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Submit(%d, %#x): %v", step, n, members, err)
			}
			var got, gotFills []uint64
			if len(m.rec.subs) > before {
				got, gotFills = m.rec.subs[before], m.rec.fills[before]
			}
			if len(m.rec.subs) != before+min(len(ids), 1) || !slices.Equal(got, want) || !slices.Equal(gotFills, through) {
				t.Fatalf("step %d: Submit(%d, %#x) read %v through %v, want %v through %v in one submission",
					step, n, members, m.rec.subs[before:], m.rec.fills[before:], want, through)
			}
			c := m.dev.Counters()
			if c.ReadThrough-c0.ReadThrough != uint64(len(through)) || c.Reads-c0.Reads != uint64(len(want)+len(through)) {
				t.Fatalf("step %d: Submit(%d, %#x) counted %d reads, %d read through; want %d and %d",
					step, n, members, c.Reads-c0.Reads, c.ReadThrough-c0.ReadThrough, len(want)+len(through), len(through))
			}
			fills += len(through)
			for _, page := range got {
				if requested[page] {
					t.Fatalf("step %d: page %d requested twice between Resets", step, page)
				}
				requested[page] = true
			}
			for mi, q := range queues {
				if members&(1<<mi) != 0 {
					sentOn[mi] += min(n, len(q)-sentOn[mi])
				}
			}
			for _, id := range ids {
				sent[id] = true
			}
			if pr.Sent() != len(sent) {
				t.Fatalf("step %d: %d pages submitted, want %d", step, pr.Sent(), len(sent))
			}
			for mi := range queues {
				if u := len(queues[mi]) - sentOn[mi]; pr.UnsentOn(mi) != u {
					t.Fatalf("step %d: member %d has %d pages unsubmitted, want %d", step, mi, pr.UnsentOn(mi), u)
				}
			}
			for id := range sent {
				if !bytes.Equal(pr.View(id), m.page(pages[id])) {
					t.Fatalf("step %d: view %d is not page %d's bytes", step, id, pages[id])
				}
			}
		case 3:
			pr.Reset()
			pages = pages[:0]
			for mi := range queues {
				queues[mi], sentOn[mi] = queues[mi][:0], 0
			}
			clear(sent)
			clear(requested)
		}
	}
	return fills, faultedFills
}

// failPages arms dev's fault hook to fail every read of a page of pages,
// dev's pageSize-byte pages; on a test stripe, each member's hook maps its
// offsets back to the stripe's.
func failPages(dev faultable, pageSize int64, pages []uint64, err error) {
	fail := map[int64]bool{}
	for _, p := range pages {
		fail[int64(p)] = true
	}
	s, ok := dev.(*faultStripe)
	if !ok {
		dev.SetFault(func(op storage.Op, off int64, _ int) error {
			if op == storage.OpRead && fail[off/pageSize] {
				return err
			}
			return nil
		})
		return
	}
	for i, mem := range s.members {
		mem.SetFault(func(op storage.Op, moff int64, _ int) error {
			off := (moff/stripeUnit*int64(len(s.members))+int64(i))*stripeUnit + moff%stripeUnit
			if op == storage.OpRead && fail[off/pageSize] {
				return err
			}
			return nil
		})
	}
}

// pageReadModels builds the devices FuzzPageReads runs on: every device
// model and a two-member stripe of SSDs and of disks, 64 pages each.
func pageReadModels() []model { return append(models(64<<12), stripeModels(64<<12)...) }

// The models the read-through seeds of FuzzPageReads run on, by their
// place in pageReadModels.
const (
	modelTranscend  = 1
	modelStripePair = 4
)

// readThroughSeeds are FuzzPageReads inputs that read through on the
// Transcend (one lane, a ReadGap of 10) and on a shard's pair of SSDs (16
// lanes, a ReadGap of 3), each once fault-free and once with a fault on a
// read-through page alone.
func readThroughSeeds() (seeds []struct {
	model int
	data  []byte
}) {
	add := func(model int, pages []byte, submit byte) {
		var data []byte
		for _, p := range pages {
			data = append(data, 0x00, p)
		}
		// Submit every page, then, after a fault, submit them again.
		n := byte(len(pages))
		data = append(data, submit, n, 0x02, n, 0x03)
		seeds = append(seeds, struct {
			model int
			data  []byte
		}{model, data})
	}
	// The Transcend: pages 2, 9 and 30 in one submission read through
	// 3-8, but not 10-29.
	transcend := []byte{9, 2, 30}
	add(modelTranscend, transcend, 0x02)
	add(modelTranscend, transcend, 0xc2)
	// The pair: 19 pages on both members (16 lanes, 8-page units), with
	// holes of 1, 2 and 3 pages inside units (1, 3-4, 11-13, 19-21, 25),
	// ones of 1 to 3 pages that cross a unit boundary (6-8, 15-16, 23,
	// 32) and one of 4 pages (35-38).
	pair := []byte{0, 2, 5, 9, 10, 14, 17, 18, 22, 24, 26, 27, 28, 29, 30, 31, 33, 34, 39}
	add(modelStripePair, pair, 0x02)
	add(modelStripePair, pair, 0xc2)
	return seeds
}

// TestPageReadsSeedsReadThrough requires FuzzPageReads' read-through seeds
// to read through their models' pages, and every second one to fault a
// submission on a read-through page first.
func TestPageReadsSeedsReadThrough(t *testing.T) {
	for i, seed := range readThroughSeeds() {
		fills, faulted := checkPageReadsSet(t, seed.model, seed.data)
		if fills == 0 || i%2 == 1 && faulted == 0 {
			t.Errorf("seed %d on model %d: %d pages read through, %d submissions faulted on one", i, seed.model, fills, faulted)
		}
	}
}

// FuzzPageReads checks the page-read set against a naive model on every
// device model and on two-member stripes, whose members it keeps apart
// (see checkPageReadsSet).
func FuzzPageReads(f *testing.F) {
	seeds := [][]byte{
		{0x00, 0x05, 0x01, 0x03, 0x00, 0x05, 0x02, 0x01, 0x00, 0x3f, 0x82, 0x01, 0x02, 0x07, 0x03, 0x00, 0x05, 0x02, 0x01},
		{0x01, 0x10, 0x01, 0x11, 0x01, 0x0f, 0x02, 0x02, 0x01, 0x10, 0x01, 0x20, 0x02, 0xff, 0x03, 0x01, 0x10, 0x02, 0x01},
		// Partial submissions to chosen members of a stripe: member 1's
		// first two, member 0's first, a faulted one to both, one page of
		// each, then the rest.
		{0x00, 0x01, 0x00, 0x09, 0x00, 0x02, 0x00, 0x0a, 0x00, 0x11, 0x00, 0x03, 0x0a, 0x02, 0x06, 0x01,
			0x8e, 0x05, 0x0e, 0x01, 0x02, 0xff, 0x03},
	}
	rng := rand.New(rand.NewSource(41))
	for range 3 {
		b := make([]byte, 300)
		rng.Read(b)
		seeds = append(seeds, b)
	}
	for _, data := range seeds {
		for model := range pageReadModels() {
			f.Add(uint8(model), data)
		}
	}
	for _, seed := range readThroughSeeds() {
		f.Add(uint8(seed.model), seed.data)
	}
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		checkPageReadsSet(t, int(model), data)
	})
}
