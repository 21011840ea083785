package core

import "testing"

func TestValuePtrRoundTrip(t *testing.T) {
	cases := []struct {
		off int64
		n   int
	}{
		{0, 0},
		{0, 1},
		{1, 16},
		{4096, 8 + 20 + 4096},
		{MaxValuePtrOff, MaxValuePtrLen},
		{MaxValuePtrOff - 1, 1},
	}
	for _, c := range cases {
		word, ok := EncodeValuePtr(c.off, c.n)
		if !ok {
			t.Fatalf("EncodeValuePtr(%d, %d) rejected", c.off, c.n)
		}
		off, n, ok := DecodeValuePtr(word)
		if !ok || off != c.off || n != c.n {
			t.Fatalf("round trip (%d, %d) -> %#x -> (%d, %d, %v)", c.off, c.n, word, off, n, ok)
		}
	}
}

func TestValuePtrRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		off int64
		n   int
	}{
		{-1, 0},
		{0, -1},
		{MaxValuePtrOff + 1, 0},
		{0, MaxValuePtrLen + 1},
	} {
		if _, ok := EncodeValuePtr(c.off, c.n); ok {
			t.Errorf("EncodeValuePtr(%d, %d) accepted out-of-range location", c.off, c.n)
		}
	}
}

func TestValuePtrInlineValuesDecodeAsNotPointers(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1<<63 - 1} {
		if _, _, ok := DecodeValuePtr(v); ok {
			t.Errorf("inline value %#x decoded as pointer", v)
		}
	}
	// A value with the tag bit set decodes as a pointer even if it was
	// stored through the U64 path; the byte path's key verification is what
	// keeps that safe, not the decoder.
	if _, _, ok := DecodeValuePtr(valuePtrTag | 7); !ok {
		t.Error("tagged word did not decode")
	}
}

func TestLookupResultValuePointer(t *testing.T) {
	word, _ := EncodeValuePtr(512, 64)
	r := LookupResult{Value: word, Found: true}
	off, n, ok := r.ValuePointer()
	if !ok || off != 512 || n != 64 {
		t.Fatalf("ValuePointer = (%d, %d, %v)", off, n, ok)
	}
	r.Found = false
	if _, _, ok := r.ValuePointer(); ok {
		t.Fatal("missed lookup produced a pointer")
	}
	r = LookupResult{Value: 99, Found: true}
	if _, _, ok := r.ValuePointer(); ok {
		t.Fatal("inline value produced a pointer")
	}
}

// FuzzValuePtr checks the value-pointer codec over arbitrary locations and
// words: a location encodes iff it is in range, and then decodes back
// exactly; a rejected location yields the zero word; and any word decodes
// as a pointer iff its tag bit is set, re-encoding to the same word.
func FuzzValuePtr(f *testing.F) {
	f.Add(int64(0), 0, uint64(0))
	f.Add(int64(4096), 4124, valuePtrTag|1)
	f.Add(MaxValuePtrOff, MaxValuePtrLen, ^uint64(0))
	f.Add(MaxValuePtrOff+1, -1, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, off int64, n int, word uint64) {
		inRange := off >= 0 && off <= MaxValuePtrOff && n >= 0 && n <= MaxValuePtrLen
		w, ok := EncodeValuePtr(off, n)
		switch {
		case ok != inRange:
			t.Fatalf("EncodeValuePtr(%d, %d) ok=%v, in range %v", off, n, ok, inRange)
		case !ok && w != 0:
			t.Fatalf("EncodeValuePtr(%d, %d) rejected with word %#x", off, n, w)
		case ok:
			if doff, dn, dok := DecodeValuePtr(w); !dok || doff != off || dn != n {
				t.Fatalf("(%d, %d) -> %#x -> (%d, %d, %v)", off, n, w, doff, dn, dok)
			}
		}
		doff, dn, dok := DecodeValuePtr(word)
		if dok != (word&valuePtrTag != 0) {
			t.Fatalf("DecodeValuePtr(%#x) ok=%v", word, dok)
		}
		if !dok {
			if doff != 0 || dn != 0 {
				t.Fatalf("inline word %#x decoded as (%d, %d)", word, doff, dn)
			}
			return
		}
		if back, ok := EncodeValuePtr(doff, dn); !ok || back != word {
			t.Fatalf("%#x -> (%d, %d) -> %#x, %v", word, doff, dn, back, ok)
		}
	})
}
