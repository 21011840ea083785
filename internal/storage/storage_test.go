package storage

import (
	"bytes"
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
	if len(s.pages) != 4 {
		t.Fatalf("%d pages allocated, want 4", len(s.pages))
	}
	s.Drop(16, 32) // pages 1 and 2
	if len(s.pages) != 2 {
		t.Fatalf("%d pages allocated after drop, want 2", len(s.pages))
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
		if len(s.pages) != 3 {
			t.Fatalf("%d pages allocated, want 3 (two whole pages freed)", len(s.pages))
		}
		check(t, s, page, 2*page)
	})
	t.Run("straddles-both-boundaries", func(t *testing.T) {
		// Partial page 0 tail + whole pages 1,2 + partial page 3 head.
		s := fresh()
		s.Drop(page-4, 2*page+8)
		if len(s.pages) != 3 {
			t.Fatalf("%d pages allocated, want 3", len(s.pages))
		}
		check(t, s, page-4, 2*page+8)
	})
	t.Run("within-one-page", func(t *testing.T) {
		s := fresh()
		s.Drop(page+3, 7)
		if len(s.pages) != 5 {
			t.Fatalf("%d pages allocated, want 5 (no page fully covered)", len(s.pages))
		}
		check(t, s, page+3, 7)
	})
	t.Run("ends-exactly-on-boundary", func(t *testing.T) {
		s := fresh()
		s.Drop(page+4, page-4) // tail of page 1 only, up to page 2's start
		if len(s.pages) != 5 {
			t.Fatalf("%d pages allocated, want 5", len(s.pages))
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
		if len(s.pages) != 1 {
			t.Fatalf("%d pages allocated, want 1", len(s.pages))
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

func TestCountersAdd(t *testing.T) {
	a := Counters{Reads: 1, Writes: 2, Erases: 3, BytesRead: 4, BytesWritten: 5, PagesMoved: 6, GCRuns: 7, BusyTime: 8}
	b := Counters{Reads: 10, Writes: 20, Erases: 30, BytesRead: 40, BytesWritten: 50, PagesMoved: 60, GCRuns: 70, BusyTime: 80}
	a.Add(b)
	want := Counters{Reads: 11, Writes: 22, Erases: 33, BytesRead: 44, BytesWritten: 55, PagesMoved: 66, GCRuns: 77, BusyTime: 88}
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
