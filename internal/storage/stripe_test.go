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

// stripeUnit is TestStripe's unit: one smallBlockSSD erase block.
// modelUnit, two of them, is the unit of the stripes the device-model
// lists add: as for the SSD and the disk there, a 256 KB value log's unit
// holds a record of 9 pages.
const (
	stripeUnit = 32 << 10
	modelUnit  = 64 << 10
)

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

// newStripe builds a stripe of capacity bytes in modelUnit units dealt by
// pattern over members that member makes, member i on clocks[i]. It
// panics on an invalid layout, which is a bug in the test.
func newStripe(capacity int64, pattern []int, member func(capacity int64, c *vclock.Clock) faultable, clocks ...*vclock.Clock) *faultStripe {
	s := &faultStripe{}
	devs := make([]storage.Device, len(clocks))
	for i, n := range storage.StripeShares(pattern, len(clocks), capacity/modelUnit) {
		s.members = append(s.members, member(n*modelUnit, clocks[i]))
		devs[i] = s.members[i]
	}
	var err error
	if s.Stripe, err = storage.NewStripe(modelUnit, pattern, devs...); err != nil {
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
// clock: SSD members dealt every third unit to the second, and disk
// members dealt alternately.
func ssdStripe(lanes int, capacity int64, c *vclock.Clock) *faultStripe {
	return newStripe(capacity, []int{0, 0, 1}, ssdMember(lanes), c, c)
}

func diskStripe(capacity int64, c *vclock.Clock) *faultStripe {
	return newStripe(capacity, []int{0, 1}, diskMember, c, c)
}

// stripeModels builds one fresh instance of each two-member stripe, for
// the lists of device models that run a property on every device.
func stripeModels(capacity int64) []model {
	c1, c2 := vclock.New(), vclock.New()
	return []model{
		{name: "stripe-ssd", dev: ssdStripe(8, capacity, c1), clock: c1},
		{name: "stripe-disk", dev: diskStripe(capacity, c2), clock: c2},
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

// TestStripe checks the stripe's semantics on a 1-in-3 stripe of SSDs,
// each on its own clock, over ten units: units 0, 1, 3, 4, 6, 7 and 9 on
// member 0, units 2, 5 and 8 on member 1.
func TestStripe(t *testing.T) {
	const units = 10
	pattern := []int{0, 0, 1}
	// open builds the stripe over recording members, and twins: bare
	// devices of the same layout that a test serves each member's share
	// directly.
	open := func(t *testing.T) (*storage.Stripe, [2]*recordingDevice, [2]*vclock.Clock, [2]storage.Device, [2]*vclock.Clock) {
		t.Helper()
		var recs [2]*recordingDevice
		var clocks, twinClocks [2]*vclock.Clock
		var twins [2]storage.Device
		devs := make([]storage.Device, 2)
		for i, n := range storage.StripeShares(pattern, 2, units) {
			clocks[i], twinClocks[i] = vclock.New(), vclock.New()
			recs[i] = &recordingDevice{faultable: ssd.New(smallBlockSSD(8), n*stripeUnit, clocks[i])}
			twins[i] = ssd.New(smallBlockSSD(8), n*stripeUnit, twinClocks[i])
			devs[i] = recs[i]
		}
		s, err := storage.NewStripe(stripeUnit, pattern, devs...)
		if err != nil {
			t.Fatal(err)
		}
		return s, recs, clocks, twins, twinClocks
	}
	// at is the member offset of stripe unit u's byte in.
	at := func(u, in int64) int64 {
		return map[int64]int64{0: 0, 1: 1, 3: 2, 4: 3, 6: 4, 7: 5, 9: 6, 2: 0, 5: 1, 8: 2}[u]*stripeUnit + in
	}
	const ps = 4096

	t.Run("geometry", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		g := s.Geometry()
		want := storage.Geometry{Capacity: units * stripeUnit, PageSize: ps, Lanes: 16, EraseBlock: stripeUnit}
		if g != want || g.Capacity != recs[0].Geometry().Capacity+recs[1].Geometry().Capacity {
			t.Fatalf("geometry %+v, want %+v, the members' capacities summed", g, want)
		}
		if shares := storage.StripeShares(pattern, 2, units); !slices.Equal(shares, []int64{7, 3}) {
			t.Fatalf("shares %v, want [7 3]", shares)
		}
		short := ssd.New(smallBlockSSD(8), 2*stripeUnit, vclock.New())
		if _, err := storage.NewStripe(stripeUnit, pattern, recs[0], short); err == nil {
			t.Fatal("a member short of its share was accepted")
		}
		if _, err := storage.NewStripe(stripeUnit/2, pattern, recs[0], recs[1]); err == nil {
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
		wantWrites := [2][][2]int64{
			{{0, 2 * stripeUnit}, {2 * stripeUnit, 2 * stripeUnit}, {4 * stripeUnit, 2 * stripeUnit}, {6 * stripeUnit, stripeUnit}},
			{{0, stripeUnit}, {stripeUnit, stripeUnit}, {2 * stripeUnit, stripeUnit}},
		}
		for m, rec := range recs {
			if len(rec.subs) != 2 || !slices.Equal(rec.subs[1], wantWrites[m]) {
				t.Fatalf("member %d served writes %v, want two of %v", m, rec.subs, wantWrites[m])
			}
			rec.subs = nil
		}
		// A submission of views on units 0, 2 and 4, a copy of units 0 and
		// 1, which member 0 holds in a row, and half of unit 2, and a copy
		// of units 1 and 2.
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
			{{at(0, 3*ps), ps}, {at(0, stripeUnit/2), 3 * stripeUnit / 2}, {at(1, stripeUnit-2*ps), 2 * ps}, {at(4, 5*ps), 100}},
			{{at(2, 0), stripeUnit / 2}, {at(2, 0), stripeUnit - 2*ps}, {at(2, ps), ps}},
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

	t.Run("a view goes to its member whole", func(t *testing.T) {
		s, recs, _, _, _ := open(t)
		image := make([]byte, units*stripeUnit)
		rand.New(rand.NewSource(2)).Read(image)
		if _, err := s.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		recs[0].subs, recs[1].subs = nil, nil
		// Views on each member, two ending at a unit's last byte: unit 2's
		// last page and the stripe's last 10 bytes, in unit 9.
		reqs := []storage.ReadReq{
			{Off: 0, N: ps, View: true},
			{Off: 3*stripeUnit - ps, N: ps, View: true},
			{Off: 5*stripeUnit + 7*ps + 3, N: 50, View: true},
			{Off: units*stripeUnit - 10, N: 10, View: true},
		}
		if _, err := s.ReadBatch(reqs); err != nil {
			t.Fatal(err)
		}
		want := [2][][2]int64{
			{{at(0, 0), ps}, {at(9, stripeUnit-10), 10}},
			{{at(2, stripeUnit-ps), ps}, {at(5, 7*ps+3), 50}},
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
		reqs := []storage.ReadReq{{Off: 0, N: ps, View: true}, {Off: 2 * stripeUnit, N: ps, View: true}}
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
		misaligned := []storage.WriteReq{{P: make([]byte, ps), Off: 0}, {P: make([]byte, ps), Off: 2*stripeUnit + 1}}
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
		// Records on units 0 and 2, one per member, both written.
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
			if off, n, _, _ := storage.DecodeValuePtr(w); off < 4*ps || off >= 2*stripeUnit && off < 2*stripeUnit+4*ps {
				reqs = append(reqs, storage.ValueReadReq{Ptr: w})
				pages[off/ps], pages[(off+int64(n)-1)/ps] = true, true
			}
		}
		if len(reqs) < 2 {
			t.Fatalf("%d records on the units read", len(reqs))
		}
		boom := errors.New("member 1 fault")
		defer l.EndChunk()
		// The chunk reads member 0's records first, then all of them while
		// member 1 fails: the failure forgets the pages read before it.
		if _, err := l.ReadRecordsBatch(slices.Clone(reqs[:1]), nil); err != nil {
			t.Fatal(err)
		}
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
	})
}

// sum returns a and b added.
func sum(a, b storage.Counters) storage.Counters {
	a.Add(b)
	return a
}
