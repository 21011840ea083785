package storage_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
)

// submissionRecorder records the page numbers of every read submission
// its device served, in the order given. It fails the test on a request
// that is no whole-page view.
type submissionRecorder struct {
	storage.Device
	t    testing.TB
	ps   int64
	subs [][]uint64
}

func (d *submissionRecorder) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	lat, err := d.Device.ReadBatch(reqs)
	if err != nil {
		return lat, err
	}
	var pages []uint64
	for _, r := range reqs {
		if !r.View || r.Off%d.ps != 0 || int64(r.N) != d.ps {
			d.t.Fatalf("request %+v is no whole-page view", r)
		}
		pages = append(pages, uint64(r.Off/d.ps))
	}
	d.subs = append(d.subs, pages)
	return lat, nil
}

// pagedModel is a device model filled with random bytes, whose image
// holds what each of its pages stores, behind a submission recorder.
type pagedModel struct {
	model
	rec   *submissionRecorder
	image []byte
	ps    int64
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
	if _, err := storage.NewPageReads(pageCountDevice{dev, 1 << 32}, 4096); err != nil {
		t.Fatalf("device of 2^32 pages rejected: %v", err)
	}
	if _, err := storage.NewPageReads(pageCountDevice{dev, 1<<32 + 1}, 4096); err == nil {
		t.Fatal("device of 2^32+1 pages accepted")
	}

	t.Run("numbering", func(t *testing.T) {
		pr, err := storage.NewPageReads(dev, 4096)
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

	for _, m := range models(64 << 12) {
		m := fill(t, m, 41)
		t.Run(m.name, func(t *testing.T) {
			pr, err := storage.NewPageReads(m.rec, int(m.ps))
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
				if err := pr.Submit(n); err != nil {
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
			if err := pr.Submit(2); !errors.Is(err, boom) {
				t.Fatalf("faulted Submit returned %v, want the fault", err)
			}
			if pr.Sent() != 0 || len(m.rec.subs) != before {
				t.Fatalf("faulted Submit left %d pages submitted and %d submissions served", pr.Sent(), len(m.rec.subs)-before)
			}
			m.dev.SetFault(nil)
			submit(2, 7, 41)
		})
	}
}

// checkPageReadsSet runs the Add, Submit and Reset sequence data describes
// on a page-read set over a 64-page model device, against a naive model: a
// slice of the pages in first-add order. Each byte (cycled, at most 600)
// is an op by its low two bits: 0 and 1 add the page the next byte names,
// 2 submits as many of the unsubmitted pages as the next byte names
// (modulo their count plus one), failing the submission when the op's
// top bit is set, and 3 resets the set. Every page must be numbered as
// the model numbers it, every submission must read the next pages of the
// model in ascending address order, no page may be requested twice
// between Resets, every view must equal the device's bytes, and a failed
// submission must return its error and submit nothing.
func checkPageReadsSet(t *testing.T, model int, data []byte) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	ms := pageReadModels()
	m := fill(t, ms[model%len(ms)], int64(len(data)))
	pr, err := storage.NewPageReads(m.rec, int(m.ps))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected read fault")
	var pages []uint64 // the model: pages by number
	sent := 0
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
			}
			if id := pr.Add(page); id != want || pr.Sent()+pr.Unsent() != len(pages) {
				t.Fatalf("step %d: page %d numbered %d of %d, want %d of %d", step, page, id, pr.Sent()+pr.Unsent(), want, len(pages))
			}
		case 2:
			n := int(next()) % (len(pages) - sent + 1)
			faulted := op&0x80 != 0 && n > 0
			if faulted {
				m.dev.SetFault(func(storage.Op, int64, int) error { return boom })
			}
			before := len(m.rec.subs)
			err := pr.Submit(n)
			m.dev.SetFault(nil)
			if faulted {
				if !errors.Is(err, boom) || pr.Sent() != sent || len(m.rec.subs) != before {
					t.Fatalf("step %d: faulted Submit(%d) returned %v with %d pages submitted, want the fault with %d", step, n, err, pr.Sent(), sent)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Submit(%d): %v", step, n, err)
			}
			want := slices.Sorted(slices.Values(pages[sent : sent+n]))
			var got []uint64
			if len(m.rec.subs) > before {
				got = m.rec.subs[before]
			}
			if len(m.rec.subs) != before+min(n, 1) || !slices.Equal(got, want) {
				t.Fatalf("step %d: Submit(%d) read %v, want %v in one submission", step, n, m.rec.subs[before:], want)
			}
			for _, page := range got {
				if requested[page] {
					t.Fatalf("step %d: page %d requested twice between Resets", step, page)
				}
				requested[page] = true
			}
			sent += n
			if pr.Sent() != sent {
				t.Fatalf("step %d: %d pages submitted, want %d", step, pr.Sent(), sent)
			}
			for id := range sent {
				if !bytes.Equal(pr.View(id), m.page(pages[id])) {
					t.Fatalf("step %d: view %d is not page %d's bytes", step, id, pages[id])
				}
			}
		case 3:
			pr.Reset()
			pages, sent = pages[:0], 0
			clear(requested)
		}
	}
}

// pageReadModels builds the devices FuzzPageReads runs on: every device
// model and a two-member stripe of SSDs and of disks, 64 pages each.
func pageReadModels() []model { return append(models(64<<12), stripeModels(64<<12)...) }

// FuzzPageReads checks the page-read set against a naive model on every
// device model and on two-member stripes (see checkPageReadsSet).
func FuzzPageReads(f *testing.F) {
	seeds := [][]byte{
		{0x00, 0x05, 0x01, 0x03, 0x00, 0x05, 0x02, 0x01, 0x00, 0x3f, 0x82, 0x01, 0x02, 0x07, 0x03, 0x00, 0x05, 0x02, 0x01},
		{0x01, 0x10, 0x01, 0x11, 0x01, 0x0f, 0x02, 0x02, 0x01, 0x10, 0x01, 0x20, 0x02, 0xff, 0x03, 0x01, 0x10, 0x02, 0x01},
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
	f.Fuzz(func(t *testing.T, model uint8, data []byte) {
		checkPageReadsSet(t, int(model), data)
	})
}
