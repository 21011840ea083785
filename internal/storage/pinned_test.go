package storage_test

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// faultable is a device model with a fault-injection hook.
type faultable interface {
	storage.Device
	SetFault(storage.FaultFunc)
}

// model is one device model on its own clock.
type model struct {
	name  string
	dev   faultable
	clock *vclock.Clock
	trim  func(off, n int64) error // the SSD's Trim; nil on the disk
}

// models builds one fresh instance of every device model.
func models(capacity int64) []model {
	var ms []model
	for _, name := range []string{"ssd-intel", "ssd-transcend", "disk"} {
		clock := vclock.New()
		m := model{name: name, clock: clock}
		switch name {
		case "ssd-intel", "ssd-transcend":
			prof := ssd.IntelX18M()
			if name == "ssd-transcend" {
				prof = ssd.TranscendTS32()
			}
			s := ssd.New(prof, capacity, clock)
			m.dev, m.trim = s, s.Trim
		case "disk":
			m.dev = disk.New(disk.Hitachi7K80(), capacity, clock)
		}
		ms = append(ms, m)
	}
	return ms
}

// streamResult is what TestDeviceStreamsPinned pins per model.
type streamResult struct {
	Clock    time.Duration
	Counters storage.Counters
	Reads    uint64 // FNV-1a over every request read: offset and bytes
	Ops      uint64 // FNV-1a over every submission's latency and error
}

// deviceStream drives one seeded mixed stream through m's device:
// one-request and batched reads (few or many requests, contiguous runs,
// views), each submission sorted by address as devices require,
// one-request and batched writes, SSD trims, idle gaps, one injected read
// fault and one injected write fault.
func deviceStream(t *testing.T, m model) streamResult {
	t.Helper()
	dev, clock := m.dev, m.clock
	rng := rand.New(rand.NewSource(0x5eed))
	g := dev.Geometry()
	ps := int64(g.PageSize)
	pages := g.Capacity / ps
	reads, ops := fnv.New64a(), fnv.New64a()
	word := func(h hash.Hash64, v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	note := func(lat time.Duration, err error) {
		word(ops, int64(lat))
		if err != nil {
			ops.Write([]byte(err.Error()))
		}
	}
	data := func(n int64) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}

	// req builds a request of n bytes at off: a view if view is set
	// and the range lies inside one page, else a copy.
	req := func(off, n int64, view bool) storage.ReadReq {
		if view && off/ps == (off+n-1)/ps {
			return storage.ReadReq{Off: off, N: int(n), View: true}
		}
		return storage.ReadReq{P: make([]byte, n), Off: off}
	}
	readReq := func(view bool) storage.ReadReq {
		pg := rng.Int63n(pages)
		if rng.Intn(4) == 0 { // sub-page
			lo := rng.Int63n(ps)
			return req(pg*ps+lo, 1+rng.Int63n(ps-lo), view)
		}
		n := 1 + rng.Int63n(min(3, pages-pg))
		return req(pg*ps, n*ps, view)
	}
	readBatch := func() []storage.ReadReq {
		view := rng.Intn(2) == 0
		var reqs []storage.ReadReq
		switch rng.Intn(5) {
		case 0: // one request
			reqs = append(reqs, readReq(view))
		case 1, 2: // sorted, or reversed
			for range 2 + rng.Intn(7) {
				reqs = append(reqs, readReq(view))
			}
			for i := 1; i < len(reqs); i++ {
				for j := i; j > 0 && reqs[j].Off < reqs[j-1].Off; j-- {
					reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
				}
			}
			if rng.Intn(2) == 0 {
				for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
					reqs[i], reqs[j] = reqs[j], reqs[i]
				}
			}
		case 3: // unsorted, past one insertion run
			for range 17 + rng.Intn(48) {
				reqs = append(reqs, readReq(view))
			}
		case 4: // a contiguous run, shuffled
			k := 2 + rng.Int63n(5)
			start := rng.Int63n(pages - k)
			for i := range k {
				reqs = append(reqs, req((start+i)*ps, ps, view))
			}
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		}
		return reqs
	}
	// split checks that a submission of op charged its service time lat
	// to op's share of the busy time, and nothing to the other's.
	split := func(op storage.Op, c0 storage.Counters, lat time.Duration) {
		c := dev.Counters()
		dr, dw := c.ReadBusy-c0.ReadBusy, c.WriteBusy-c0.WriteBusy
		if op == storage.OpWrite {
			dr, dw = dw, dr
		}
		if dr != lat || dw != 0 {
			t.Fatalf("a submission of %v charged %v: read busy %v -> %v, write busy %v -> %v",
				lat, op, c0.ReadBusy, c.ReadBusy, c0.WriteBusy, c.WriteBusy)
		}
	}
	doReads := func(reqs []storage.ReadReq) error {
		sortReads(reqs)
		var lat time.Duration
		var err error
		c0 := dev.Counters()
		if len(reqs) == 1 && !reqs[0].View {
			lat, err = dev.ReadAt(reqs[0].P, reqs[0].Off)
		} else {
			lat, err = dev.ReadBatch(reqs)
		}
		split(storage.OpRead, c0, lat)
		note(lat, err)
		if err == nil {
			for _, r := range reqs {
				word(reads, r.Off)
				reads.Write(r.P)
			}
		}
		return err
	}

	// writeBatch builds a valid submission: at distinct 8-page slots or as
	// one contiguous run.
	writeBatch := func(k int) []storage.WriteReq {
		var reqs []storage.WriteReq
		if k > 1 && rng.Intn(3) == 0 { // one contiguous run
			pg := rng.Int63n(pages - 2*int64(k))
			for range k {
				n := 1 + rng.Int63n(2)
				reqs = append(reqs, storage.WriteReq{P: data(n * ps), Off: pg * ps})
				pg += n
			}
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			return reqs
		}
		for _, slot := range rng.Perm(int(pages / 8))[:k] {
			lo := rng.Int63n(8)
			n := 1 + rng.Int63n(8-lo)
			reqs = append(reqs, storage.WriteReq{P: data(n * ps), Off: (int64(slot)*8 + lo) * ps})
		}
		return reqs
	}
	doWrites := func(reqs []storage.WriteReq) error {
		sortWrites(reqs)
		var lat time.Duration
		var err error
		c0 := dev.Counters()
		if len(reqs) == 1 {
			lat, err = dev.WriteAt(reqs[0].P, reqs[0].Off)
		} else {
			lat, err = dev.WriteBatch(reqs)
		}
		split(storage.OpWrite, c0, lat)
		note(lat, err)
		return err
	}

	for step := 0; step < 1500; step++ {
		switch step {
		case 500: // a read fault on the third request of a batch
			reqs := []storage.ReadReq{readReq(false), readReq(true), readReq(false), readReq(false)}
			bad := reqs[2].Off
			dev.SetFault(func(op storage.Op, off int64, _ int) error {
				if op == storage.OpRead && off == bad {
					return errors.New("injected read fault")
				}
				return nil
			})
			if err := doReads(reqs); err == nil {
				t.Fatal("faulted read submission succeeded")
			}
			dev.SetFault(nil)
			continue
		case 700: // a write fault on the last request of a batch
			reqs := writeBatch(3)
			bad := reqs[len(reqs)-1].Off
			dev.SetFault(func(op storage.Op, off int64, _ int) error {
				if op == storage.OpWrite && off == bad {
					return errors.New("injected write fault")
				}
				return nil
			})
			if err := doWrites(reqs); err == nil {
				t.Fatal("faulted write submission succeeded")
			}
			dev.SetFault(nil)
			continue
		}
		switch op := rng.Intn(100); {
		case op < 40:
			if err := doReads(readBatch()); err != nil {
				t.Fatalf("step %d: read: %v", step, err)
			}
		case op < 80:
			k := 1
			if rng.Intn(2) == 0 {
				k = 2 + rng.Intn(5)
			}
			if err := doWrites(writeBatch(k)); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
		case op < 88 && m.trim != nil:
			n := 1 + rng.Int63n(16)
			if err := m.trim(rng.Int63n(pages-n)*ps, n*ps); err != nil {
				t.Fatalf("step %d: trim: %v", step, err)
			}
		default:
			clock.Advance(time.Duration(rng.Int63n(int64(200 * time.Microsecond))))
		}
	}
	return streamResult{Clock: clock.Now(), Counters: dev.Counters(), Reads: reads.Sum64(), Ops: ops.Sum64()}
}

// TestBusySplit runs the pinned device stream on every model (see
// deviceStream, which checks that each submission charges its service
// time to its own op's share) and requires ReadBusy and WriteBusy to sum
// to BusyTime, each of them non-zero.
func TestBusySplit(t *testing.T) {
	for _, m := range models(2 << 20) {
		t.Run(m.name, func(t *testing.T) {
			c := deviceStream(t, m).Counters
			if c.ReadBusy == 0 || c.WriteBusy == 0 || c.ReadBusy+c.WriteBusy != c.BusyTime {
				t.Fatalf("read busy %v + write busy %v, busy time %v", c.ReadBusy, c.WriteBusy, c.BusyTime)
			}
		})
	}
}

// TestDeviceStreamsPinned runs one seeded stream of every submission shape
// through every device model and pins the final clock, every Counters
// field, and digests of the bytes read and of each submission's latency
// and error: any change to a model's pricing, its overlap, its FTL or its
// error handling shows here.
func TestDeviceStreamsPinned(t *testing.T) {
	type c = storage.Counters
	want := map[string]streamResult{
		"ssd-intel": {774149156, c{Reads: 6233, Writes: 1500, Erases: 119, BytesRead: 38599457, BytesWritten: 14221312,
			PagesMoved: 982, GCRuns: 80, BusyTime: 754277728, ReadBusy: 348836448, WriteBusy: 405441280}, 0x582b81cc5153b15a, 0x3f6eb5856373fbf8},
		"ssd-transcend": {17047964772, c{Reads: 6233, Writes: 1500, Erases: 355, BytesRead: 38599457, BytesWritten: 14221312,
			PagesMoved: 7456, BusyTime: 17028093344, ReadBusy: 3357711264, WriteBusy: 13670382080}, 0x582b81cc5153b15a, 0xdf2ea5aef1f9f7d},
		"disk": {47997014184, c{Reads: 6948, Writes: 1527, BytesRead: 42654686, BytesWritten: 15736832,
			BusyTime: 47970182235, ReadBusy: 38709472463, WriteBusy: 9260709772}, 0x32386983a51ccf7a, 0x21a3a111e6f75fd1},
	}
	for _, m := range models(2 << 20) {
		t.Run(m.name, func(t *testing.T) {
			got := deviceStream(t, m)
			if w := want[m.name]; got != w {
				t.Fatalf("got %#v\nwant %#v", got, w)
			}
		})
	}
}
