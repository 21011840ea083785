package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"
)

func TestCheckRange(t *testing.T) {
	g := Geometry{Capacity: 4096, PageSize: 512}
	if err := CheckRange(g, 0, 4096, 512); err != nil {
		t.Fatalf("full-range access rejected: %v", err)
	}
	if err := CheckRange(g, 512, 512, 512); err != nil {
		t.Fatalf("aligned access rejected: %v", err)
	}
	if err := CheckRange(g, 0, 8192, 512); err == nil {
		t.Fatal("out-of-range access accepted")
	}
	if err := CheckRange(g, -512, 512, 512); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := CheckRange(g, 100, 512, 512); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := CheckRange(g, 0, 100, 512); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if err := CheckRange(g, 100, 10, 1); err != nil {
		t.Fatalf("align=1 should accept byte granularity: %v", err)
	}
}

// written counts the pages s holds bytes for.
func written(s *SparseStore) int {
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestSparseStoreReadUnwritten(t *testing.T) {
	s := NewSparseStore(512)
	buf := bytes.Repeat([]byte{0xFF}, 100)
	s.ReadAt(buf, 1000)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestSparseStoreRoundTrip(t *testing.T) {
	s := NewSparseStore(512)
	data := []byte("hello, sparse world")
	s.WriteAt(data, 700) // crosses a page boundary
	got := make([]byte, len(data))
	s.ReadAt(got, 700)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %q", got)
	}
}

func TestSparseStoreCrossPageWrite(t *testing.T) {
	s := NewSparseStore(8)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i + 1)
	}
	s.WriteAt(data, 4) // spans 5 pages
	got := make([]byte, 40)
	s.ReadAt(got, 0)
	for i := 0; i < 4; i++ {
		if got[i] != 0 {
			t.Fatalf("leading zeros corrupted at %d: %#x", i, got[i])
		}
	}
	if !bytes.Equal(got[4:36], data) {
		t.Fatal("cross-page data wrong")
	}
	if got[36] != 0 {
		t.Fatal("trailing zeros corrupted")
	}
}

func TestSparseStoreDropWholePages(t *testing.T) {
	s := NewSparseStore(16)
	s.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0) // 4 pages of 0xFF
	if written(s) != 4 {
		t.Fatalf("%d pages allocated, want 4", written(s))
	}
	s.Drop(16, 32) // pages 1 and 2
	if written(s) != 2 {
		t.Fatalf("%d pages allocated after drop, want 2", written(s))
	}
	buf := make([]byte, 64)
	s.ReadAt(buf, 0)
	for i := 0; i < 16; i++ {
		if buf[i] != 0xFF {
			t.Fatal("page 0 corrupted by drop")
		}
	}
	for i := 16; i < 48; i++ {
		if buf[i] != 0 {
			t.Fatalf("dropped region not zeroed at %d", i)
		}
	}
}

func TestSparseStoreDropBoundaryCases(t *testing.T) {
	const page = 16
	fresh := func() *SparseStore {
		s := NewSparseStore(page)
		data := make([]byte, 5*page)
		for i := range data {
			data[i] = byte(i + 1)
		}
		s.WriteAt(data, 0)
		return s
	}
	check := func(t *testing.T, s *SparseStore, dropOff, dropN int64) {
		t.Helper()
		got := make([]byte, 5*page)
		s.ReadAt(got, 0)
		for i := int64(0); i < int64(len(got)); i++ {
			want := byte(i + 1)
			if i >= dropOff && i < dropOff+dropN {
				want = 0
			}
			if got[i] != want {
				t.Fatalf("byte %d = %#x, want %#x (drop [%d, %d))", i, got[i], want, dropOff, dropOff+dropN)
			}
		}
	}

	t.Run("exactly-page-aligned", func(t *testing.T) {
		s := fresh()
		s.Drop(page, 2*page)
		if written(s) != 3 {
			t.Fatalf("%d pages allocated, want 3 (two whole pages freed)", written(s))
		}
		check(t, s, page, 2*page)
	})
	t.Run("straddles-both-boundaries", func(t *testing.T) {
		// Partial page 0 tail + whole pages 1,2 + partial page 3 head.
		s := fresh()
		s.Drop(page-4, 2*page+8)
		if written(s) != 3 {
			t.Fatalf("%d pages allocated, want 3", written(s))
		}
		check(t, s, page-4, 2*page+8)
	})
	t.Run("within-one-page", func(t *testing.T) {
		s := fresh()
		s.Drop(page+3, 7)
		if written(s) != 5 {
			t.Fatalf("%d pages allocated, want 5 (no page fully covered)", written(s))
		}
		check(t, s, page+3, 7)
	})
	t.Run("ends-exactly-on-boundary", func(t *testing.T) {
		s := fresh()
		s.Drop(page+4, page-4) // tail of page 1 only, up to page 2's start
		if written(s) != 5 {
			t.Fatalf("%d pages allocated, want 5", written(s))
		}
		check(t, s, page+4, page-4)
	})
	t.Run("single-byte", func(t *testing.T) {
		s := fresh()
		s.Drop(2*page, 1)
		check(t, s, 2*page, 1)
	})
	t.Run("unallocated-pages-are-noop", func(t *testing.T) {
		s := NewSparseStore(page)
		s.WriteAt(make([]byte, page), 0)
		s.Drop(3*page, 2*page) // never written
		if written(s) != 1 {
			t.Fatalf("%d pages allocated, want 1", written(s))
		}
	})
}

func TestSparseStoreDropPartialPage(t *testing.T) {
	s := NewSparseStore(16)
	data := bytes.Repeat([]byte{0xFF}, 16)
	s.WriteAt(data, 0) // page 0 all 0xFF
	s.Drop(4, 8)       // partial drop within page 0
	buf := make([]byte, 16)
	s.ReadAt(buf, 0)
	for i := 0; i < 4; i++ {
		if buf[i] != 0xFF {
			t.Fatal("prefix clobbered")
		}
	}
	for i := 4; i < 12; i++ {
		if buf[i] != 0 {
			t.Fatalf("partial drop not zeroed at %d", i)
		}
	}
	for i := 12; i < 16; i++ {
		if buf[i] != 0xFF {
			t.Fatal("suffix clobbered")
		}
	}
}

func TestSparseStoreQuick(t *testing.T) {
	// Property: a sparse store behaves exactly like a flat byte array.
	const size = 1 << 12
	s := NewSparseStore(64)
	ref := make([]byte, size)
	f := func(off16 uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(off16) % (size - int64(len(data)))
		if off < 0 {
			off = 0
		}
		s.WriteAt(data, off)
		copy(ref[off:], data)
		got := make([]byte, len(data))
		s.ReadAt(got, off)
		if !bytes.Equal(got, ref[off:off+int64(len(data))]) {
			return false
		}
		// Also verify a wider window.
		wide := make([]byte, size)
		s.ReadAt(wide, 0)
		return bytes.Equal(wide, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSparseStore runs op sequences against a SparseStore and a flat byte
// slice, its model: every ReadAt, and every Read by copy or as a view,
// must return the model's bytes, a view must end its capacity with its
// range, and the store must hold exactly the pages written since they were
// last dropped whole. Page sizes run from 8 to 4096 bytes and the model
// spans 16 pages, so reads reach past the highest page written and drops
// cover pages never written.
//
// An op is 4 bytes: the op, an offset scaled onto the model, and a length
// scaled onto what is left of it (of its page, for a view).
func FuzzSparseStore(f *testing.F) {
	op := func(o byte, off uint16, n byte) []byte { return []byte{o, byte(off), byte(off >> 8), n} }
	prog := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(uint16(0), prog(op(0, 0x1000, 40), op(3, 0x1000, 255), op(3, 0xF000, 255), op(1, 0, 255)))
	f.Add(uint16(92), prog(op(0, 0, 255), op(4, 0x2000, 90), op(2, 0x1800, 255), op(3, 0x2100, 128), op(4, 0x8000, 255), op(1, 0, 255)))
	f.Add(uint16(504), prog(op(4, 0x4000, 200), op(0, 0x7000, 10), op(3, 0x7000, 255), op(4, 0x6000, 255), op(2, 0x6FFF, 255)))
	f.Add(uint16(4088), prog(op(0, 0x3000, 30), op(0, 0x3100, 30), op(3, 0x3100, 128), op(4, 0x3000, 16), op(3, 0xC000, 255), op(2, 0x2F00, 255), op(1, 0xFFFF, 255)))
	f.Fuzz(func(t *testing.T, psSeed uint16, prog []byte) {
		ps := 8 + int(psSeed)%(4096-8+1)
		const pages = 16
		size := pages * ps
		s := NewSparseStore(ps)
		model := make([]byte, size)
		var held [pages]bool // pages the store must hold bytes for
		for k := 0; len(prog) >= 4; k, prog = k+1, prog[4:] {
			off := int(binary.LittleEndian.Uint16(prog[1:3])) * size >> 16
			n := int(prog[3]) * (size - off) / 255
			first, last := off/ps, (off+n-1)/ps
			switch prog[0] % 5 {
			case 0:
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(k*7 + i + 1)
				}
				s.WriteAt(p, int64(off))
				copy(model[off:], p)
				for pg := first; n > 0 && pg <= last; pg++ {
					held[pg] = true
				}
			case 1:
				p := bytes.Repeat([]byte{0xA5}, n)
				s.ReadAt(p, int64(off))
				if !bytes.Equal(p, model[off:off+n]) {
					t.Fatalf("op %d: ReadAt(%d, %d) differs from the model", k, off, n)
				}
			case 2:
				r := ReadReq{P: bytes.Repeat([]byte{0xA5}, n), Off: int64(off)}
				s.Read(&r)
				if !bytes.Equal(r.P, model[off:off+n]) {
					t.Fatalf("op %d: copying Read(%d, %d) differs from the model", k, off, n)
				}
			case 3:
				lo := off % ps
				n = int(prog[3]) * (ps - lo) / 255
				r := ReadReq{Off: int64(off), N: n, View: true}
				s.Read(&r)
				if len(r.P) != n || cap(r.P) != n || !bytes.Equal(r.P, model[off:off+n]) {
					t.Fatalf("op %d: view Read(%d, %d) got %d bytes (cap %d), or bytes other than the model's", k, off, n, len(r.P), cap(r.P))
				}
			case 4:
				s.Drop(int64(off), int64(n))
				clear(model[off : off+n])
				for pg := first; n > 0 && pg <= last; pg++ {
					if pg*ps >= off && (pg+1)*ps <= off+n {
						held[pg] = false
					}
				}
			}
			want := 0
			for _, h := range held {
				if h {
					want++
				}
			}
			if got := written(s); got != want {
				t.Fatalf("op %d: the store holds %d pages, want %d", k, got, want)
			}
		}
	})
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Reads: 1, Writes: 2, Erases: 3, BytesRead: 4, BytesWritten: 5, PagesMoved: 6, GCRuns: 7, BusyTime: 8,
		ReadBusy: 9, WriteBusy: 10}
	b := Counters{Reads: 10, Writes: 20, Erases: 30, BytesRead: 40, BytesWritten: 50, PagesMoved: 60, GCRuns: 70, BusyTime: 80,
		ReadBusy: 90, WriteBusy: 100}
	a.Add(b)
	want := Counters{Reads: 11, Writes: 22, Erases: 33, BytesRead: 44, BytesWritten: 55, PagesMoved: 66, GCRuns: 77, BusyTime: 88,
		ReadBusy: 99, WriteBusy: 110}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
}

func TestOverlapLanes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	svc := []time.Duration{ms(4), ms(1), ms(1), ms(2)}
	if got := overlapLanes(svc, 1); got != ms(8) {
		t.Fatalf("1 lane = %v, want serial sum %v", got, ms(8))
	}
	// Least-loaded placement: 4 | 1+1+2 -> max 4.
	if got := overlapLanes(svc, 2); got != ms(4) {
		t.Fatalf("2 lanes = %v, want %v", got, ms(4))
	}
	// More lanes than requests: bounded by the largest request.
	if got := overlapLanes(svc, 16); got != ms(4) {
		t.Fatalf("16 lanes = %v, want %v", got, ms(4))
	}
	if got := overlapLanes(nil, 4); got != 0 {
		t.Fatalf("empty batch = %v, want 0", got)
	}
}
