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

// smallBlockSSD is the Intel profile with 32 KB erase blocks and lanes
// queue lanes, so that a stripe of a few hundred KB deals several units to
// each member.
func smallBlockSSD(lanes int) ssd.Profile {
	p := ssd.IntelX18M()
	p.BlockPages = 8
	p.QueueDepth = lanes
	return p
}

// stripeUnit is the unit of every test stripe: one smallBlockSSD erase
// block. A value log over a two-member stripe writes two units at a time,
// so as for the SSD and the disk in the device-model lists, a 256 KB log's
// unit holds a record of 9 pages.
const stripeUnit = 32 << 10

// faultStripe is a stripe whose fault hook arms every member.
type faultStripe struct {
	*storage.Stripe
	members []faultable
}

func (s *faultStripe) SetFault(f storage.FaultFunc) {
	for _, m := range s.members {
		m.SetFault(f)
	}
}

// newStripe builds a stripe of capacity bytes in stripeUnit units over
// members that member makes, member i on clocks[i]. It panics on an
// invalid layout, which is a bug in the test.
func newStripe(capacity int64, member func(capacity int64, c *vclock.Clock) faultable, clocks ...*vclock.Clock) *faultStripe {
	s := &faultStripe{}
	devs := make([]storage.Device, len(clocks))
	for i := range clocks {
		s.members = append(s.members, member(storage.StripeShare(capacity/stripeUnit, len(clocks), i)*stripeUnit, clocks[i]))
		devs[i] = s.members[i]
	}
	var err error
	if s.Stripe, err = storage.NewStripe(stripeUnit, devs...); err != nil {
		panic(err)
	}
	return s
}

// ssdMember and diskMember make stripe members.
func ssdMember(lanes int) func(int64, *vclock.Clock) faultable {
	return func(n int64, c *vclock.Clock) faultable { return ssd.New(smallBlockSSD(lanes), n, c) }
}

func diskMember(n int64, c *vclock.Clock) faultable { return disk.New(disk.Hitachi7K80(), n, c) }

// The two-member stripes the device-model lists add, both members on one
// clock: a pair of SSDs of an odd number of units, one unit more than
// capacity, whose value log writes one erase block on each member in each
// submission and ends each cycle with a short unit of one block on the
// first member; a pair of SSDs of capacity, as a shard's two SSDs hold its
// log; and a pair of disks.
func ssdStripe(lanes int, capacity int64, c *vclock.Clock) *faultStripe {
	return newStripe(capacity+stripeUnit, ssdMember(lanes), c, c)
}

func ssdPair(lanes int, capacity int64, c *vclock.Clock) *faultStripe {
	return newStripe(capacity, ssdMember(lanes), c, c)
}

func diskStripe(capacity int64, c *vclock.Clock) *faultStripe {
	return newStripe(capacity, diskMember, c, c)
}

// stripeModels builds one fresh instance of each two-member stripe, for
// the lists of device models that run a property on every device.
func stripeModels(capacity int64) []model {
	c1, c2, c3 := vclock.New(), vclock.New(), vclock.New()
	return []model{
		{name: "stripe-ssd", dev: ssdStripe(8, capacity, c1), clock: c1},
		{name: "stripe-pair", dev: ssdPair(8, capacity, c2), clock: c2},
		{name: "stripe-disk", dev: diskStripe(capacity, c3), clock: c3},
	}
}

// recordingDevice records every submission its device serves, as (offset,
// length) pairs.
type recordingDevice struct {
	faultable
	subs [][][2]int64
}

func (d *recordingDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	var sub [][2]int64
	for _, r := range reqs {
		n := len(r.P)
		if r.View {
			n = r.N
		}
		sub = append(sub, [2]int64{r.Off, int64(n)})
	}
	d.subs = append(d.subs, sub)
	return d.faultable.ReadBatch(reqs)
}

func (d *recordingDevice) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	var sub [][2]int64
	for _, r := range reqs {
		sub = append(sub, [2]int64{r.Off, int64(len(r.P))})
	}
	d.subs = append(d.subs, sub)
	return d.faultable.WriteBatch(reqs)
}

// TestStripe checks the stripe's semantics on a pair of SSDs, each on its
// own clock, over nine units: units 0, 2, 4, 6 and 8 on member 0, units 1,
// 3, 5 and 7 on member 1.
func TestStripe(t *testing.T) {
	const units = 9
	// open builds the stripe over recording members, and twins: bare
	// devices of the same layout that a test serves each member's share
	// directly.
	open := func(t *testing.T) (*storage.Stripe, [2]*recordingDevice, [2]*vclock.Clock, [2]storage.Device, [2]*vclock.Clock) {
		t.Helper()
		var recs [2]*recordingDevice
		var clocks, twinClocks [2]*vclock.Clock
		var twins [2]storage.Device
		devs := make([]storage.Device, 2)
		for i := range 2 {
			n := storage.StripeShare(units, 2, i)
			clocks[i], twinClocks[i] = vclock.New(), vclock.New()
			recs[i] = &recordingDevice{faultable: ssd.New(smallBlockSSD(8), n*stripeUnit, clocks[i])}
			twins[i] = ssd.New(smallBlockSSD(8), n*stripeUnit, twinClocks[i])
			devs[i] = recs[i]
		}
		s, err := storage.NewStripe(stripeUnit, devs...)
		if err != nil {
			t.Fatal(err)
		}
		return s, recs, clocks, twins, twinClocks
	}
	// at is the member offset of stripe unit u's byte in.
	at := func(u, in int64) int64 { return u/2*stripeUnit + in }
	const ps = 4096

	t.Run("geometry", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		g := s.Geometry()
		// The erase block is one round, a unit on each member, and the
		// read gap the members' 3.
		want := storage.Geometry{Capacity: units * stripeUnit, PageSize: ps, Lanes: 16, EraseBlock: 2 * stripeUnit, ReadGap: 3}
		if g != want || g.Capacity != recs[0].Geometry().Capacity+recs[1].Geometry().Capacity {
			t.Fatalf("geometry %+v, want %+v, the members' capacities summed", g, want)
		}
		if a, b := storage.StripeShare(units, 2, 0), storage.StripeShare(units, 2, 1); a != 5 || b != 4 {
			t.Fatalf("shares %d and %d, want 5 and 4", a, b)
		}
		short := ssd.New(smallBlockSSD(8), 3*stripeUnit, vclock.New())
		if _, err := storage.NewStripe(stripeUnit, recs[0], short); err == nil {
			t.Fatal("a member short of its share was accepted")
		}
		if _, err := storage.NewStripe(stripeUnit/2, recs[0], recs[1]); err == nil {
			t.Fatal("a unit of half an erase block was accepted")
		}
	})

	t.Run("one ascending submission per member", func(t *testing.T) {
		s, recs, clocks, twins, twinClocks := open(t)
		image := make([]byte, units*stripeUnit)
		rand.New(rand.NewSource(1)).Read(image)
		// Two whole-image writes: the first allocates, the second is timed.
		for range 2 {
			if _, err := s.WriteAt(image, 0); err != nil {
				t.Fatal(err)
			}
		}
		wantWrites := [2][][2]int64{{{0, 5 * stripeUnit}}, {{0, 4 * stripeUnit}}}
		for m, rec := range recs {
			if len(rec.subs) != 2 || !slices.Equal(rec.subs[1], wantWrites[m]) {
				t.Fatalf("member %d served writes %v, want two of %v", m, rec.subs, wantWrites[m])
			}
			rec.subs = nil
		}
		// A submission of views on units 0, 2 and 4, a copy of half of unit
		// 0, unit 1 and half of unit 2, whose halves member 0 holds in a
		// row, and a copy of units 1 and 2.
		reqs := []storage.ReadReq{
			{Off: 3 * ps, N: ps, View: true},
			{P: make([]byte, 2*stripeUnit), Off: stripeUnit / 2},
			{P: make([]byte, stripeUnit), Off: 2*stripeUnit - 2*ps},
			{Off: 2*stripeUnit + ps, N: ps, View: true},
			{Off: 4*stripeUnit + 5*ps, N: 100, View: true},
		}
		c0, c1 := clocks[0].Now(), clocks[1].Now()
		lat, err := s.ReadBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		wantReads := [2][][2]int64{
			{{at(0, 3*ps), ps}, {at(0, stripeUnit/2), stripeUnit}, {at(2, 0), stripeUnit - 2*ps}, {at(2, ps), ps}, {at(4, 5*ps), 100}},
			{{at(1, 0), stripeUnit}, {at(1, stripeUnit-2*ps), 2 * ps}},
		}
		for m, rec := range recs {
			if len(rec.subs) != 1 || !slices.Equal(rec.subs[0], wantReads[m]) {
				t.Fatalf("member %d served %v, want one submission of %v", m, rec.subs, wantReads[m])
			}
		}
		for _, r := range reqs {
			n := len(r.P)
			if r.View {
				n = r.N
			}
			if !bytes.Equal(r.P, image[r.Off:r.Off+int64(n)]) {
				t.Fatalf("request at %d read bytes unlike the image", r.Off)
			}
		}
		// Each member's clock advanced by its share's time alone: that of
		// the same requests served by a bare twin, on its own clock.
		for m, rec := range recs {
			twin := twins[m]
			if _, err := twin.WriteAt(image[:twin.Geometry().Capacity], 0); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.WriteAt(image[:twin.Geometry().Capacity], 0); err != nil {
				t.Fatal(err)
			}
			var share []storage.ReadReq
			for _, r := range rec.subs[0] {
				share = append(share, storage.ReadReq{P: make([]byte, r[1]), Off: r[0]})
			}
			t0 := twinClocks[m].Now()
			if _, err := twin.ReadBatch(share); err != nil {
				t.Fatal(err)
			}
			d := []time.Duration{clocks[0].Now() - c0, clocks[1].Now() - c1}[m]
			if tw := twinClocks[m].Now() - t0; d != tw || d == 0 {
				t.Fatalf("member %d's clock moved %v, its share alone takes %v", m, d, tw)
			}
		}
		if want := max(clocks[0].Now()-c0, clocks[1].Now()-c1); lat != want {
			t.Fatalf("the stripe returned %v, want the longer share's %v", lat, want)
		}
		if c := s.Counters(); c.Reads != 7 || c != sum(recs[0].Counters(), recs[1].Counters()) {
			t.Fatalf("counters %+v: want 7 reads, the members' summed", c)
		}
		// A submission on member 1 alone leaves member 0's clock.
		c0 = clocks[0].Now()
		if _, err := s.ReadAt(make([]byte, ps), 5*stripeUnit); err != nil {
			t.Fatal(err)
		}
		if clocks[0].Now() != c0 || len(recs[0].subs) != 1 {
			t.Fatal("a read of member 1's unit moved member 0")
		}
	})

	t.Run("a request's pieces reach each member as one request", func(t *testing.T) {
		// A pair of six units: units 0, 2 and 4 on member 0, 1, 3
		// and 5 on member 1, each member on its own clock.
		var recs [2]*recordingDevice
		var clocks [2]*vclock.Clock
		devs := make([]storage.Device, 2)
		for i := range recs {
			clocks[i] = vclock.New()
			recs[i] = &recordingDevice{faultable: ssd.New(smallBlockSSD(8), 3*stripeUnit, clocks[i])}
			devs[i] = recs[i]
		}
		s, err := storage.NewStripe(stripeUnit, devs...)
		if err != nil {
			t.Fatal(err)
		}
		image := make([]byte, 6*stripeUnit)
		rand.New(rand.NewSource(3)).Read(image)
		if _, err := s.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		recs[0].subs, recs[1].subs = nil, nil
		// A 4-unit write from unit 1, and a 4-unit copy read from the
		// middle of unit 0: each member's pieces lie back to back there,
		// apart in the caller's buffer.
		fresh := make([]byte, 4*stripeUnit)
		rand.New(rand.NewSource(4)).Read(fresh)
		copy(image[stripeUnit:], fresh)
		var took [2]time.Duration
		for m, c := range clocks {
			took[m] = c.Now()
		}
		if _, err := s.WriteAt(fresh, stripeUnit); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 4*stripeUnit)
		if _, err := s.ReadAt(p, stripeUnit/2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, image[stripeUnit/2:stripeUnit/2+4*stripeUnit]) {
			t.Fatal("the read's bytes differ from the image")
		}
		want := [2][][][2]int64{
			{{{stripeUnit, 2 * stripeUnit}}, {{stripeUnit / 2, 2 * stripeUnit}}},
			{{{0, 2 * stripeUnit}}, {{0, 2 * stripeUnit}}},
		}
		prof := smallBlockSSD(8)
		for m, rec := range recs {
			if len(rec.subs) != 2 || !slices.Equal(rec.subs[0], want[m][0]) || !slices.Equal(rec.subs[1], want[m][1]) {
				t.Fatalf("member %d served %v, want %v", m, rec.subs, want[m])
			}
			// Each request is priced as one: a fixed cost and its bytes.
			perByte := 2 * stripeUnit * (prof.WritePerByte + prof.ReadPerByte)
			if d := clocks[m].Now() - took[m]; d != prof.WriteFixed+prof.ReadFixed+time.Duration(perByte) {
				t.Fatalf("member %d took %v for a write and a read of two units", m, d)
			}
		}
	})

	t.Run("a view goes to its member whole", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		image := make([]byte, units*stripeUnit)
		rand.New(rand.NewSource(2)).Read(image)
		if _, err := s.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		recs[0].subs, recs[1].subs = nil, nil
		// Views on each member, two ending at a unit's last byte: unit 3's
		// last page and the stripe's last 10 bytes, in unit 8.
		reqs := []storage.ReadReq{
			{Off: 0, N: ps, View: true},
			{Off: 4*stripeUnit - ps, N: ps, View: true},
			{Off: 5*stripeUnit + 7*ps + 3, N: 50, View: true},
			{Off: units*stripeUnit - 10, N: 10, View: true},
		}
		if _, err := s.ReadBatch(reqs); err != nil {
			t.Fatal(err)
		}
		want := [2][][2]int64{
			{{at(0, 0), ps}, {at(8, stripeUnit-10), 10}},
			{{at(3, stripeUnit-ps), ps}, {at(5, 7*ps+3), 50}},
		}
		for m, rec := range recs {
			if len(rec.subs) != 1 || !slices.Equal(rec.subs[0], want[m]) {
				t.Fatalf("member %d served %v, want one submission of %v", m, rec.subs, want[m])
			}
		}
		for _, r := range reqs {
			if !bytes.Equal(r.P, image[r.Off:r.Off+int64(r.N)]) {
				t.Fatalf("view at %d holds bytes unlike the image", r.Off)
			}
		}
	})

	t.Run("a member's fault fails the submission", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		if _, err := s.WriteAt(make([]byte, units*stripeUnit), 0); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("member 1 fault")
		recs[1].SetFault(func(storage.Op, int64, int) error { return boom })
		before := recs[0].Counters().Reads
		reqs := []storage.ReadReq{{Off: 0, N: ps, View: true}, {Off: stripeUnit, N: ps, View: true}}
		if _, err := s.ReadBatch(reqs); !errors.Is(err, boom) {
			t.Fatalf("read %v, want member 1's fault", err)
		}
		if recs[0].Counters().Reads != before+1 || recs[1].Counters().Reads != 0 {
			t.Fatalf("member reads %d and %d: member 0's share stays served", recs[0].Counters().Reads-before, recs[1].Counters().Reads)
		}
		if _, err := s.WriteAt(make([]byte, 3*stripeUnit), 0); !errors.Is(err, boom) {
			t.Fatalf("write %v, want member 1's fault", err)
		}
		// Rejected on the stripe before any member sees it.
		n0 := len(recs[0].subs)
		if _, err := s.ReadBatch([]storage.ReadReq{{Off: 2 * ps, N: ps, View: true}, {Off: ps, N: ps, View: true}}); !errors.Is(err, storage.ErrUnsorted) {
			t.Fatalf("descending submission: %v", err)
		}
		if _, err := s.ReadAt(make([]byte, ps), units*stripeUnit); !errors.Is(err, storage.ErrOutOfRange) {
			t.Fatalf("read past the stripe: %v", err)
		}
		misaligned := []storage.WriteReq{{P: make([]byte, ps), Off: 0}, {P: make([]byte, ps), Off: stripeUnit + 1}}
		if _, err := s.WriteBatch(misaligned); !errors.Is(err, storage.ErrUnaligned) {
			t.Fatalf("misaligned write: %v", err)
		}
		if len(recs[0].subs) != n0 {
			t.Fatal("a rejected submission reached a member")
		}
	})

	t.Run("a failed log read forgets the chunk's pages", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		l, err := storage.NewValueLog(s)
		if err != nil {
			t.Fatal(err)
		}
		// Records on units 0 and 1, one per member, both written.
		var keys, vals [][]byte
		for i := range 100 {
			keys = append(keys, []byte{byte(i), 'k'})
			vals = append(vals, make([]byte, 1000))
		}
		words := make([]uint64, len(keys))
		if err := l.AppendBatch(keys, vals, words); err != nil {
			t.Fatal(err)
		}
		var reqs []storage.ValueReadReq
		pages := map[int64]bool{}
		for _, w := range words {
			if off, n, _, _ := storage.DecodeValuePtr(w); off < 4*ps || off >= stripeUnit && off < stripeUnit+4*ps {
				reqs = append(reqs, storage.ValueReadReq{Ptr: w})
				pages[off/ps], pages[(off+int64(n)-1)/ps] = true, true
			}
		}
		if len(reqs) < 2 {
			t.Fatalf("%d records on the units read", len(reqs))
		}
		// A read of all of them fails while member 1 fails, after member
		// 0's share was served; the next read requests every page again.
		boom := errors.New("member 1 fault")
		recs[1].SetFault(func(storage.Op, int64, int) error { return boom })
		if _, err := l.ReadRecordsBatch(reqs, nil); !errors.Is(err, boom) {
			t.Fatalf("read %v, want member 1's fault", err)
		}
		recs[1].SetFault(nil)
		before := s.Counters().Reads
		if _, err := l.ReadRecordsBatch(reqs, nil); err != nil {
			t.Fatal(err)
		}
		if got := s.Counters().Reads - before; got != uint64(len(pages)) {
			t.Fatalf("the read after the fault requested %d pages, want all %d again", got, len(pages))
		}
		for i, r := range reqs {
			if _, ok := storage.VerifyRecord(r.Rec, keys[slices.Index(words, r.Ptr)]); !ok {
				t.Fatalf("record %d does not verify", i)
			}
		}
	})
}

// sum returns a and b added.
func sum(a, b storage.Counters) storage.Counters {
	a.Add(b)
	return a
}
