package storage_test

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/flashchip"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// These tests pin the storage-layer contracts the value log and the
// incarnation layouts rely on: the Trimmer/Eraser optional interfaces as
// seen through a plain storage.Device, and the batch service every device
// model implements.

// sortReads and sortWrites stably order a submission by address, as
// devices require; requests at equal offsets keep their order.
func sortReads(reqs []storage.ReadReq) {
	slices.SortStableFunc(reqs, func(a, b storage.ReadReq) int { return cmp.Compare(a.Off, b.Off) })
}

func sortWrites(reqs []storage.WriteReq) {
	slices.SortStableFunc(reqs, func(a, b storage.WriteReq) int { return cmp.Compare(a.Off, b.Off) })
}

// TestTrimmerInterface exercises Trim through the optional interface from
// a plain Device value, on both FTL flavours.
func TestTrimmerInterface(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  storage.Device
	}{
		{"page-mapped", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())},
		{"block-mapped", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, ok := tc.dev.(storage.Trimmer)
			if !ok {
				t.Fatal("SSD does not expose storage.Trimmer")
			}
			page := tc.dev.Geometry().PageSize
			data := bytes.Repeat([]byte{0xAB}, 2*page)
			if _, err := tc.dev.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			// Trim the first page only; the second must survive.
			if err := tr.Trim(0, int64(page)); err != nil {
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
			if err := tr.Trim(int64(page/2), int64(page)); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page trim: %v, want ErrUnaligned", err)
			}
			if err := tr.Trim(0, int64(page)/2); !errors.Is(err, storage.ErrUnaligned) {
				t.Fatalf("partial-page-length trim: %v, want ErrUnaligned", err)
			}
		})
	}
	// Disks have no FTL and must NOT advertise Trimmer.
	if _, ok := interface{}(disk.New(disk.Hitachi7K80(), 4<<20, vclock.New())).(storage.Trimmer); ok {
		t.Fatal("disk claims storage.Trimmer")
	}
}

// TestEraserInterface exercises Erase through the optional interface from
// a plain Device value.
func TestEraserInterface(t *testing.T) {
	var dev storage.Device = flashchip.New(flashchip.DefaultConfig(1<<20), vclock.New())
	er, ok := dev.(storage.Eraser)
	if !ok {
		t.Fatal("flash chip does not expose storage.Eraser")
	}
	g := dev.Geometry()
	bs := int64(g.BlockSize)

	// Program block 0, then overwrite without erase: must fail.
	page := make([]byte, g.PageSize)
	for i := range page {
		page[i] = 0x5A
	}
	if _, err := dev.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(page, 0); !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("rewrite without erase: %v, want ErrProgramOrder", err)
	}
	// Erase the block: contents read as 0xFF and the page can be
	// programmed again.
	if lat, err := er.Erase(0, bs); err != nil || lat <= 0 {
		t.Fatalf("erase: lat=%v err=%v", lat, err)
	}
	got := make([]byte, g.PageSize)
	if _, err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xFF {
			t.Fatalf("erased byte %d = %#x, want 0xFF", i, b)
		}
	}
	if _, err := dev.WriteAt(page, 0); err != nil {
		t.Fatalf("program after erase: %v", err)
	}

	// Erase must be block-aligned, in offset and length.
	if _, err := er.Erase(bs/2, bs); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("partial-block erase offset: %v, want ErrUnaligned", err)
	}
	if _, err := er.Erase(0, bs/2); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("partial-block erase length: %v, want ErrUnaligned", err)
	}
	if _, err := er.Erase(g.Capacity, bs); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range erase: %v, want ErrOutOfRange", err)
	}

	// SSDs hide their erase behind the FTL and must NOT advertise Eraser.
	if _, ok := interface{}(ssd.New(ssd.IntelX18M(), 4<<20, vclock.New())).(storage.Eraser); ok {
		t.Fatal("SSD claims storage.Eraser")
	}
}

// TestSerialIOAllocs pins that ReadAt and WriteAt, the one-request form of
// every device model's batch service, keep their request on the stack. A
// heap-allocated request would add one allocation per serial I/O, which is
// every probe and flush of the serial store path. The only allowed
// allocation is the raw chip's: a program lands on a freshly erased page,
// which the sparse store materialises. Warm batched submissions, the
// lookup and insert pipelines' I/O, allocate nothing.
func TestSerialIOAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dev         storage.Device
		writeAllocs float64
	}{
		{"ssd-intel", ssd.New(ssd.IntelX18M(), 4<<20, vclock.New()), 0},
		{"ssd-transcend", ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New()), 0},
		{"chip", flashchip.New(flashchip.DefaultConfig(4<<20), vclock.New()), 1},
		{"disk", disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.dev.Geometry()
			p := make([]byte, g.PageSize)
			// Raw NAND programs block 0's pages in order and erases the block
			// when it is full; the other media rewrite page 0.
			er, _ := tc.dev.(storage.Eraser)
			var next int64
			write := func() {
				if er != nil && next == int64(g.BlockSize) {
					if _, err := er.Erase(0, int64(g.BlockSize)); err != nil {
						t.Fatal(err)
					}
					next = 0
				}
				if _, err := tc.dev.WriteAt(p, next); err != nil {
					t.Fatal(err)
				}
				if er != nil {
					next += int64(g.PageSize)
				}
			}
			for i := 0; i < g.BlockSize/g.PageSize; i++ { // warm the store and the FTL
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
			if a := testing.AllocsPerRun(200, write); a != tc.writeAllocs {
				t.Errorf("WriteAt allocates %v per call, want %v", a, tc.writeAllocs)
			}

			// Warm submissions allocate nothing either: 64 scattered reads,
			// sorted as devices require, and (except on raw NAND, which
			// would program fresh pages) 8 writes at every other page.
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
			if er != nil {
				return
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
			"chip":          flashchip.New(flashchip.DefaultConfig(4<<20), vclock.New()),
			"disk":          disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()),
		}
	}
	serialDevs, batchDevs := mkDevices(), mkDevices()
	for name := range serialDevs {
		t.Run(name, func(t *testing.T) {
			sd, bd := serialDevs[name], batchDevs[name]
			// 128 KB chunks (whole erase blocks on NAND) at scattered,
			// non-contiguous addresses, in the ascending order devices
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

// TestBatchWriterProgramOrder: on raw NAND a batch violating program order
// must fail, exactly as serial writes would.
func TestBatchWriterProgramOrder(t *testing.T) {
	chip := flashchip.New(flashchip.DefaultConfig(1<<20), vclock.New())
	g := chip.Geometry()
	p := bytes.Repeat([]byte{0x5A}, g.PageSize)
	// Page 1 of block 0 without page 0 first: a valid submission order,
	// but out of program order.
	_, err := chip.WriteBatch([]storage.WriteReq{{P: p, Off: int64(g.PageSize)}})
	if !errors.Is(err, storage.ErrProgramOrder) {
		t.Fatalf("out-of-order batch write: %v, want ErrProgramOrder", err)
	}
}

// TestReadViewContract pins ReadReq.View on every device model against a
// twin device serving the same submission by copy: the same latency,
// Counters and bytes; an unwritten page reads as the medium's fill byte; a
// submission that fails replaces no buffer; and a request without View
// keeps its own buffer, which a later write does not change.
func TestReadViewContract(t *testing.T) {
	devices := func() map[string]storage.Device {
		return map[string]storage.Device{
			"ssd-intel":     ssd.New(ssd.IntelX18M(), 4<<20, vclock.New()),
			"ssd-transcend": ssd.New(ssd.TranscendTS32(), 4<<20, vclock.New()),
			"chip":          flashchip.New(flashchip.DefaultConfig(4<<20), vclock.New()),
			"disk":          disk.New(disk.Hitachi7K80(), 4<<20, vclock.New()),
		}
	}
	fills := map[string]byte{"ssd-intel": 0x00, "ssd-transcend": 0x00, "chip": 0xFF, "disk": 0x00}
	copyDevs, viewDevs := devices(), devices()
	for name := range copyDevs {
		t.Run(name, func(t *testing.T) {
			cd, vd := copyDevs[name], viewDevs[name]
			g := vd.Geometry()
			ps := int64(g.PageSize)
			for _, d := range []storage.Device{cd, vd} {
				for i := int64(0); i < 4; i++ { // pages 0..3, in program order
					if _, err := d.WriteAt(bytes.Repeat([]byte{byte(0x10 + i)}, int(ps)), i*ps); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Written pages, a two-page range (which no single page can
			// back), a sub-page range and an unwritten page, in ascending
			// order.
			shape := []struct{ off, n int64 }{{0, ps}, {ps, 2 * ps}, {2*ps + 16, 64}, {3 * ps, ps}, {9 * ps, ps}}
			submit := func(d storage.Device, view bool) ([]storage.ReadReq, map[int64][]byte, time.Duration) {
				t.Helper()
				reqs := make([]storage.ReadReq, len(shape))
				own := map[int64][]byte{}
				for i, s := range shape {
					reqs[i] = storage.ReadReq{P: make([]byte, s.n), Off: s.off, View: view}
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
				if v.Off == 9*ps && !bytes.Equal(v.P, bytes.Repeat([]byte{fills[name]}, int(ps))) {
					t.Fatalf("unwritten page read %#x..., want fill byte %#x", v.P[:4], fills[name])
				}
				if &c.P[0] != &cown[c.Off][0] {
					t.Fatalf("request without View at %d lost its own buffer", c.Off)
				}
				spansPages := v.Off/ps != (v.Off+int64(len(v.P))-1)/ps
				if copied := &v.P[0] == &vown[v.Off][0]; copied != spansPages {
					t.Fatalf("view request at %d (spanning pages: %v) copied: %v", v.Off, spansPages, copied)
				}
			}
			// A later write must not show through a copied buffer.
			before := append([]byte(nil), creqs[0].P...)
			if er, ok := cd.(storage.Eraser); ok {
				if _, err := er.Erase(0, int64(g.BlockSize)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cd.WriteAt(bytes.Repeat([]byte{0xC3}, int(ps)), 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(creqs[0].P, before) {
				t.Fatal("a write changed the buffer of an earlier read without View")
			}

			// Failing submissions: a faulted request, then an out-of-range
			// one, each last in address order; no buffer may be replaced.
			boom := errors.New("injected read fault")
			vd.(interface{ SetFault(storage.FaultFunc) }).SetFault(func(op storage.Op, off int64, _ int) error {
				if op == storage.OpRead && off == 3*ps {
					return boom
				}
				return nil
			})
			for _, last := range []int64{3 * ps, g.Capacity} {
				reqs := []storage.ReadReq{{P: make([]byte, ps), Off: 0, View: true}, {P: make([]byte, ps), Off: last, View: true}}
				own := []*byte{&reqs[0].P[0], &reqs[1].P[0]}
				if _, err := vd.ReadBatch(reqs); err == nil {
					t.Fatalf("submission ending at %d succeeded", last)
				}
				for i := range reqs {
					if &reqs[i].P[0] != own[i] {
						t.Fatalf("failed submission ending at %d replaced request %d's buffer", last, i)
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
	valid := func(g storage.Geometry) storage.WriteReq { // the chip's next page in program order
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
		only string // model the case is limited to
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
		{name: "erase-fault", only: "chip", want: boom, run: func(d faultable, g storage.Geometry) error {
			faultOn(d, storage.OpErase, 0)
			_, err := d.(storage.Eraser).Erase(0, int64(g.BlockSize))
			return err
		}},
	}
	// prepare programs pages 0..2 (in program order on the chip), overwrites
	// a few pages of an SSD so it has GC victims, and leaves an idle gap.
	prepare := func(t *testing.T, m model) {
		g := m.dev.Geometry()
		ps := int64(g.PageSize)
		if _, err := m.dev.WriteAt(bytes.Repeat([]byte{0x3C}, 3*g.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.dev.(storage.Trimmer); ok {
			for off := int64(0); off < g.Capacity; off += int64(g.BlockSize) {
				if _, err := m.dev.WriteAt(make([]byte, g.BlockSize), off); err != nil {
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
			if m.name == tc.skip || tc.only != "" && m.name != tc.only {
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
				n := int64(g.BlockSize)
				if g.BlockSize == 0 {
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
			reqs := []storage.ReadReq{{P: make([]byte, ps)}, {P: make([]byte, ps/2), View: true}}
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
