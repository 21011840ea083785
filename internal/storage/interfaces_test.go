package storage_test

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// These tests pin the storage-layer contracts the value log and the
// incarnation layouts rely on: the SSD's Trim, and the batch service every
// device model implements.

// sortReads and sortWrites stably order a submission by address, as
// devices require; requests at equal offsets keep their order.
func sortReads(reqs []storage.ReadReq) {
	slices.SortStableFunc(reqs, func(a, b storage.ReadReq) int { return cmp.Compare(a.Off, b.Off) })
}

func sortWrites(reqs []storage.WriteReq) {
	slices.SortStableFunc(reqs, func(a, b storage.WriteReq) int { return cmp.Compare(a.Off, b.Off) })
}

// TestTrimmerInterface exercises the SSD's Trim on both FTL flavours.
func TestTrimmerInterface(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  *ssd.SSD
	}{
		{"page-mapped", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())},
		{"block-mapped", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			page := tc.dev.Geometry().PageSize
			data := bytes.Repeat([]byte{0xAB}, 2*page)
			if _, err := tc.dev.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			// Trim the first page only; the second must survive.
			if err := tc.dev.Trim(0, int64(page)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 2*page)
			if _, err := tc.dev.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < page; i++ {
				if got[i] != 0 {
					t.Fatalf("trimmed byte %d = %#x, want 0", i, got[i])
				}
			}
			// The block-mapped FTL trims whole erase blocks (it has no
			// per-page map), so only the page-mapped device guarantees the
			// neighbouring page survives a sub-block trim.
			if tc.name == "page-mapped" && !bytes.Equal(got[page:], data[page:]) {
				t.Fatal("untrimmed page corrupted")
			}
			// Partial-page trims must be rejected as unaligned.
			if err := tc.dev.Trim(int64(page/2), int64(page)); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page trim: %v, want ErrUnaligned", err)
			}
			if err := tc.dev.Trim(0, int64(page)/2); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page-length trim: %v, want ErrUnaligned", err)
			}
		})
	}
}

// TestSerialIOAllocs pins that ReadAt and WriteAt, the one-request form of
// every device model's batch service, keep their request on the stack. A
// heap-allocated request would add one allocation per serial I/O, which is
// every probe and flush of the serial store path. Warm batched
// submissions, the lookup and insert pipelines' I/O, allocate nothing.
func TestSerialIOAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  storage.Device
	}{
		{"ssd-intel", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())},
		{"ssd-transcend", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New())},
		{"disk", disk.New(disk.Hitachi7K80(), 4<<20, vclock.New())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.dev.Geometry()
			p := make([]byte, g.PageSize)
			write := func() { // rewrites page 0
				if _, err := tc.dev.WriteAt(p, 0); err != nil {
					t.Fatal(err)
				}
			}
			for range 32 { // warm the store and the FTL
				write()
			}
			read := func() {
				if _, err := tc.dev.ReadAt(p, 0); err != nil {
					t.Fatal(err)
				}
			}
			if a := testing.AllocsPerRun(200, read); a != 0 {
				t.Errorf("ReadAt allocates %v per call, want 0", a)
			}
			if a := testing.AllocsPerRun(200, write); a != 0 {
				t.Errorf("WriteAt allocates %v per call, want 0", a)
			}

			// Warm submissions allocate nothing either: 64 scattered reads,
			// sorted as devices require, and 8 writes at every other page.
			rreqs := make([]storage.ReadReq, 64)
			for i := range rreqs {
				rreqs[i] = storage.ReadReq{P: make([]byte, g.PageSize), Off: int64(i*37%64) * int64(g.PageSize)}
			}
			sortReads(rreqs)
			readBatch := func() {
				if _, err := tc.dev.ReadBatch(rreqs); err != nil {
					t.Fatal(err)
				}
			}
			readBatch()
			if a := testing.AllocsPerRun(200, readBatch); a != 0 {
				t.Errorf("64-request ReadBatch allocates %v per call, want 0", a)
			}
			wreqs := make([]storage.WriteReq, 8)
			for i := range wreqs {
				wreqs[i] = storage.WriteReq{P: p, Off: int64(i+1) * 2 * int64(g.PageSize)}
			}
			writeBatch := func() {
				if _, err := tc.dev.WriteBatch(wreqs); err != nil {
					t.Fatal(err)
				}
			}
			writeBatch()
			if a := testing.AllocsPerRun(200, writeBatch); a != 0 {
				t.Errorf("8-request WriteBatch allocates %v per call, want 0", a)
			}
		})
	}
}

// TestBatchWriterContract exercises WriteBatch on every device model
// against a twin device driven by serial WriteAt: identical stored bytes
// and write counters, and batch service time never above the serial sum
// (run detection and lane overlap can only help).
func TestBatchWriterContract(t *testing.T) {
	mkDevices := func() map[string]storage.Device {
		return map[string]storage.Device{
			"ssd-intel":     ssd.New(ssd.IntelX18M(), 4<<20, vclock.New()),
			"ssd-transcend": ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New()),
			"disk":          disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()),
		}
	}
	serialDevs, batchDevs := mkDevices(), mkDevices()
	for name := range serialDevs {
		t.Run(name, func(t *testing.T) {
			sd, bd := serialDevs[name], batchDevs[name]
			// 128 KB chunks at scattered, non-contiguous addresses, in the ascending order devices
			// require.
			const chunk = 128 << 10
			var reqs []storage.WriteReq
			for i := 0; i < 8; i++ {
				p := bytes.Repeat([]byte{byte('A' + i)}, chunk)
				reqs = append(reqs, storage.WriteReq{P: p, Off: int64(i) * 2 * chunk})
			}
			var serialSum time.Duration
			for _, r := range reqs {
				lat, err := sd.WriteAt(r.P, r.Off)
				if err != nil {
					t.Fatal(err)
				}
				serialSum += lat
			}
			batchLat, err := bd.WriteBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if batchLat <= 0 || batchLat > serialSum {
				t.Fatalf("batch latency %v outside (0, serial sum %v]", batchLat, serialSum)
			}
			sc, bc := sd.Counters(), bd.Counters()
			if bc.Writes != sc.Writes || bc.BytesWritten != sc.BytesWritten {
				t.Fatalf("write counters diverge: serial %+v, batched %+v", sc, bc)
			}
			got := make([]byte, chunk)
			want := make([]byte, chunk)
			for _, r := range reqs {
				if _, err := bd.ReadAt(got, r.Off); err != nil {
					t.Fatal(err)
				}
				if _, err := sd.ReadAt(want, r.Off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || !bytes.Equal(got, r.P) {
					t.Fatalf("batched write at %d stored wrong bytes", r.Off)
				}
			}
		})
	}
}

// TestBatchWriterSequentialRunDiscount pins the run discount: a batch of
// address-contiguous writes must cost less than the same pages written as
// discontiguous requests (which pay the fixed cost every time).
func TestBatchWriterSequentialRunDiscount(t *testing.T) {
	mk := func() storage.Device {
		return ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())
	}
	const page = 4096
	seq, scattered := mk(), mk()
	var seqReqs, scatReqs []storage.WriteReq
	for i := 0; i < 32; i++ {
		p := bytes.Repeat([]byte{byte(i)}, page)
		seqReqs = append(seqReqs, storage.WriteReq{P: p, Off: int64(i) * page})
		scatReqs = append(scatReqs, storage.WriteReq{P: p, Off: int64(i) * 3 * page})
	}
	seqLat, err := seq.WriteBatch(seqReqs)
	if err != nil {
		t.Fatal(err)
	}
	scatLat, err := scattered.WriteBatch(scatReqs)
	if err != nil {
		t.Fatal(err)
	}
	if seqLat >= scatLat {
		t.Fatalf("sequential batch %v not cheaper than scattered %v", seqLat, scatLat)
	}
}

// TestReadViewContract pins ReadReq.View on every device model against a
// twin device serving the same ranges by copy: the same latency, Counters
// and bytes; a view request comes back with a slice of its N bytes whose
// capacity ends with the range, and an unwritten page reads as zeros; a
// request without View keeps its own buffer, which a later write does not
// change; a submission that fails hands back no slice; and a view
// crossing a page boundary fails the submission's checks, charging
// nothing.
func TestReadViewContract(t *testing.T) {
	devices := func() map[string]storage.Device {
		return map[string]storage.Device{
			"ssd-intel":     ssd.New(ssd.IntelX18M(), 4<<20, vclock.New()),
			"ssd-transcend": ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New()),
			"disk":          disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()),
		}
	}
	copyDevs, viewDevs := devices(), devices()
	for name := range copyDevs {
		t.Run(name, func(t *testing.T) {
			cd, vd := copyDevs[name], viewDevs[name]
			g := vd.Geometry()
			ps := int64(g.PageSize)
			for _, d := range []storage.Device{cd, vd} {
				for i := int64(0); i < 4; i++ { // pages 0..3
					if _, err := d.WriteAt(bytes.Repeat([]byte{byte(0x10 + i)}, int(ps)), i*ps); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Written pages, a two-page range (which no view may cover, so
			// both devices copy it), a sub-page range and an unwritten
			// page, in ascending order.
			shape := []struct{ off, n int64 }{{0, ps}, {ps, 2 * ps}, {2*ps + 16, 64}, {3 * ps, ps}, {9 * ps, ps}}
			onePage := func(off, n int64) bool { return off/ps == (off+n-1)/ps }
			submit := func(d storage.Device, view bool) ([]storage.ReadReq, map[int64][]byte, time.Duration) {
				t.Helper()
				reqs := make([]storage.ReadReq, len(shape))
				own := map[int64][]byte{}
				for i, s := range shape {
					if view && onePage(s.off, s.n) {
						reqs[i] = storage.ReadReq{Off: s.off, N: int(s.n), View: true}
						continue
					}
					reqs[i] = storage.ReadReq{P: make([]byte, s.n), Off: s.off}
					own[s.off] = reqs[i].P
				}
				lat, err := d.ReadBatch(reqs)
				if err != nil {
					t.Fatal(err)
				}
				return reqs, own, lat
			}
			creqs, cown, clat := submit(cd, false)
			vreqs, vown, vlat := submit(vd, true)
			if clat != vlat || cd.Counters() != vd.Counters() {
				t.Fatalf("view read charged %v and %+v, copying read %v and %+v", vlat, vd.Counters(), clat, cd.Counters())
			}
			for i, v := range vreqs {
				c := creqs[i]
				if c.Off != v.Off || !bytes.Equal(c.P, v.P) {
					t.Fatalf("view read at %d returned different bytes than the copying read", v.Off)
				}
				if v.Off == 9*ps && !bytes.Equal(v.P, make([]byte, ps)) {
					t.Fatalf("unwritten page read %#x..., want zeros", v.P[:4])
				}
				if &c.P[0] != &cown[c.Off][0] {
					t.Fatalf("request without View at %d lost its own buffer", c.Off)
				}
				if !v.View {
					if &v.P[0] != &vown[v.Off][0] {
						t.Fatalf("request without View at %d lost its own buffer", v.Off)
					}
				} else if len(v.P) != v.N || cap(v.P) != v.N {
					t.Fatalf("view request at %d of %d bytes came back with len %d, cap %d", v.Off, v.N, len(v.P), cap(v.P))
				}
			}
			// A later write must not show through a copied buffer.
			before := append([]byte(nil), creqs[0].P...)
			if _, err := cd.WriteAt(bytes.Repeat([]byte{0xC3}, int(ps)), 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(creqs[0].P, before) {
				t.Fatal("a write changed the buffer of an earlier read without View")
			}

			// Failing submissions: a faulted request, an out-of-range one
			// and a view crossing a page boundary, each last in address
			// order; no view may come back and nothing may be charged.
			boom := errors.New("injected read fault")
			vd.(interface{ SetFault(storage.FaultFunc) }).SetFault(func(op storage.Op, off int64, _ int) error {
				if op == storage.OpRead && off == 3*ps {
					return boom
				}
				return nil
			})
			for _, last := range []struct{ off, n int64 }{{3 * ps, ps}, {g.Capacity, ps}, {2*ps + 1, ps}} {
				reqs := []storage.ReadReq{{Off: 0, N: int(ps), View: true}, {Off: last.off, N: int(last.n), View: true}}
				was := vd.Counters()
				_, err := vd.ReadBatch(reqs)
				if err == nil {
					t.Fatalf("submission ending at %d succeeded", last.off)
				}
				if !onePage(last.off, last.n) && !errors.Is(err, storage.ErrUnaligned) {
					t.Fatalf("view across a page boundary failed with %v, want ErrUnaligned", err)
				}
				if vd.Counters() != was {
					t.Fatalf("failed submission ending at %d charged %+v, had %+v", last.off, vd.Counters(), was)
				}
				for i := range reqs {
					if reqs[i].P != nil {
						t.Fatalf("failed submission ending at %d handed request %d a slice", last.off, i)
					}
				}
			}
		})
	}
}

// TestRejectedSubmissionsChargeNothing pins that a submission failing its
// request checks or the fault hook is free on every model: the clock, the
// Counters and the stored bytes stay as they were, and so does every state
// a later I/O would see — a twin device that never saw the rejected
// submission prices the next read identically. Each device is first driven
// into a state where an SSD would run idle GC on its next I/O.
func TestRejectedSubmissionsChargeNothing(t *testing.T) {
	boom := errors.New("injected fault")
	type submit func(d faultable, g storage.Geometry) error
	valid := func(g storage.Geometry) storage.WriteReq {
		return storage.WriteReq{P: make([]byte, g.PageSize), Off: 3 * int64(g.PageSize)}
	}
	faultOn := func(d faultable, op storage.Op, at int64) {
		d.SetFault(func(o storage.Op, off int64, _ int) error {
			if o == op && off == at {
				return boom
			}
			return nil
		})
	}
	cases := []struct {
		name string
		skip string // model the case does not apply to
		want error  // the error the submission must fail with
		run  submit
	}{
		{name: "read-out-of-range", want: storage.ErrOutOfRange, run: func(d faultable, g storage.Geometry) error {
			_, err := d.ReadBatch([]storage.ReadReq{{P: make([]byte, g.PageSize)}, {P: make([]byte, g.PageSize), Off: g.Capacity}})
			return err
		}},
		{name: "write-out-of-range", want: storage.ErrOutOfRange, run: func(d faultable, g storage.Geometry) error {
			_, err := d.WriteBatch([]storage.WriteReq{valid(g), {P: make([]byte, g.PageSize), Off: g.Capacity}})
			return err
		}},
		// Disks accept byte-granular writes.
		{name: "write-unaligned", skip: "disk", want: storage.ErrUnaligned, run: func(d faultable, g storage.Geometry) error {
			_, err := d.WriteBatch([]storage.WriteReq{valid(g), {P: make([]byte, g.PageSize/2), Off: 8 * int64(g.PageSize)}})
			return err
		}},
		// A descending pair fails the order check ahead of the fault hook,
		// which is armed on the first request.
		{name: "read-unsorted", want: storage.ErrUnsorted, run: func(d faultable, g storage.Geometry) error {
			faultOn(d, storage.OpRead, 5*int64(g.PageSize))
			_, err := d.ReadBatch([]storage.ReadReq{{P: make([]byte, g.PageSize), Off: 5 * int64(g.PageSize)}, {P: make([]byte, g.PageSize)}})
			return err
		}},
		{name: "write-unsorted", want: storage.ErrUnsorted, run: func(d faultable, g storage.Geometry) error {
			faultOn(d, storage.OpWrite, 8*int64(g.PageSize))
			_, err := d.WriteBatch([]storage.WriteReq{{P: make([]byte, g.PageSize), Off: 8 * int64(g.PageSize)}, valid(g)})
			return err
		}},
		{name: "read-fault", want: boom, run: func(d faultable, g storage.Geometry) error {
			faultOn(d, storage.OpRead, 5*int64(g.PageSize))
			_, err := d.ReadBatch([]storage.ReadReq{{P: make([]byte, g.PageSize)}, {P: make([]byte, g.PageSize), Off: 5 * int64(g.PageSize)}})
			return err
		}},
		{name: "write-fault", want: boom, run: func(d faultable, g storage.Geometry) error {
			faultOn(d, storage.OpWrite, 8*int64(g.PageSize))
			_, err := d.WriteBatch([]storage.WriteReq{valid(g), {P: make([]byte, g.PageSize), Off: 8 * int64(g.PageSize)}})
			return err
		}},
	}
	// prepare writes pages 0..2, fills an SSD and overwrites a few of its
	// pages so it has GC victims, and leaves an idle gap.
	prepare := func(t *testing.T, m model) {
		g := m.dev.Geometry()
		ps := int64(g.PageSize)
		if _, err := m.dev.WriteAt(bytes.Repeat([]byte{0x3C}, 3*g.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		if m.trim != nil {
			const block = 128 << 10 // the SSD models' erase block
			for off := int64(0); off < g.Capacity; off += block {
				if _, err := m.dev.WriteAt(make([]byte, block), off); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(0); i < 64; i++ {
				if _, err := m.dev.WriteAt(bytes.Repeat([]byte{byte(i)}, g.PageSize), i*7%(g.Capacity/ps)*ps); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.clock.Advance(10 * time.Millisecond)
	}
	for _, tc := range cases {
		for i, m := range models(1 << 20) {
			if m.name == tc.skip {
				continue
			}
			twin := models(1 << 20)[i]
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				prepare(t, m)
				prepare(t, twin)
				g := m.dev.Geometry()
				clock, counters := m.clock.Now(), m.dev.Counters()
				if err := tc.run(m.dev, g); !errors.Is(err, tc.want) {
					t.Fatalf("submission returned %v, want %v", err, tc.want)
				}
				m.dev.SetFault(nil)
				if m.clock.Now() != clock || m.dev.Counters() != counters {
					t.Fatalf("rejected submission charged: clock %v → %v, counters %+v → %+v",
						clock, m.clock.Now(), counters, m.dev.Counters())
				}
				// The next read prices and returns the same on both twins.
				n := 32 * int64(g.PageSize)
				if m.name == "disk" {
					n = 16 * int64(g.PageSize)
				}
				got, want := make([]byte, n), make([]byte, n)
				lat, err := m.dev.ReadAt(got, 0)
				if err != nil {
					t.Fatal(err)
				}
				twinLat, err := twin.dev.ReadAt(want, 0)
				if err != nil {
					t.Fatal(err)
				}
				if lat != twinLat || !bytes.Equal(got, want) || m.dev.Counters() != twin.dev.Counters() {
					t.Fatalf("after the rejected submission a read costs %v (twin %v), bytes equal %v, counters %+v (twin %+v)",
						lat, twinLat, bytes.Equal(got, want), m.dev.Counters(), twin.dev.Counters())
				}
			})
		}
	}
}

// TestEqualOffsetsServed pins that ties are a valid submission order: the
// value log submits one read per in-batch duplicate record, so two
// requests at one offset are served, each with the stored bytes.
func TestEqualOffsetsServed(t *testing.T) {
	for _, m := range models(1 << 20) {
		t.Run(m.name, func(t *testing.T) {
			ps := m.dev.Geometry().PageSize
			page := bytes.Repeat([]byte{0x5A}, ps)
			if _, err := m.dev.WriteAt(page, 0); err != nil {
				t.Fatal(err)
			}
			reqs := []storage.ReadReq{{P: make([]byte, ps)}, {N: ps / 2, View: true}}
			if _, err := m.dev.ReadBatch(reqs); err != nil {
				t.Fatalf("equal offsets: %v", err)
			}
			if !bytes.Equal(reqs[0].P, page) || !bytes.Equal(reqs[1].P, page[:ps/2]) {
				t.Fatal("equal-offset reads returned wrong bytes")
			}
			if c := m.dev.Counters(); c.Reads != 2 {
				t.Fatalf("equal-offset submission counted %d reads, want 2", c.Reads)
			}
		})
	}
}
