package storage

import "testing"

func TestValuePtrRoundTrip(t *testing.T) {
	if MaxValueRecordBytes != 2<<20-1 || MaxValueLogBytes != 64<<30 {
		t.Fatalf("limits: record %d, log %d; want 2 MiB - 1 and 64 GiB", MaxValueRecordBytes, MaxValueLogBytes)
	}
	cases := []struct {
		off   int64
		n     int
		cycle uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 16, 2},
		{4096, 8 + 20 + 4096, cycleMask},
		{MaxValueLogBytes - 1, MaxValueRecordBytes, cycleMask},
		{MaxValueLogBytes - 2, 1, 1},
		{12345, 99, cycleMask + 1}, // the tag keeps the cycle mod 2^valuePtrCycleBits
		{12345, 99, ^uint64(0)},
	}
	for _, c := range cases {
		word, ok := encodeValuePtr(c.off, c.n, c.cycle)
		if !ok {
			t.Fatalf("encodeValuePtr(%d, %d, %d) rejected", c.off, c.n, c.cycle)
		}
		off, n, cycle, ok := decodeValuePtr(word)
		if !ok || off != c.off || n != c.n || cycle != c.cycle&cycleMask {
			t.Fatalf("round trip (%d, %d, %d) -> %#x -> (%d, %d, %d, %v)", c.off, c.n, c.cycle, word, off, n, cycle, ok)
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
		{MaxValueLogBytes, 0},
		{0, MaxValueRecordBytes + 1},
		{64 << 30, 8},   // one past the 64 GiB log
		{0, 2 << 20},    // one past the 2 MiB - 1 record
		{1 << 40, 64},   // inside the previous layout's 256 GiB offset field
		{0, 32<<20 - 1}, // the previous layout's largest record
	} {
		for _, cycle := range []uint64{0, 1, cycleMask} {
			if w, ok := encodeValuePtr(c.off, c.n, cycle); ok || w != 0 {
				t.Errorf("encodeValuePtr(%d, %d, %d) = (%#x, %v), want a rejection", c.off, c.n, cycle, w, ok)
			}
		}
	}
}

func TestValuePtrInlineValuesDecodeAsNotPointers(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1<<63 - 1} {
		if _, _, _, ok := decodeValuePtr(v); ok || IsValuePtr(v) {
			t.Errorf("inline value %#x decoded as pointer", v)
		}
	}
	// A value with the tag bit set decodes as a pointer even if it was
	// stored through the U64 path; the byte path's key verification is what
	// keeps that safe, not the decoder.
	if _, _, _, ok := decodeValuePtr(valuePtrTag | 7); !ok || !IsValuePtr(valuePtrTag|7) {
		t.Error("tagged word did not decode")
	}
}

// FuzzValuePtr checks the value-pointer codec over arbitrary locations,
// cycles and words: a location encodes iff it is in range, and then
// decodes back exactly, with the cycle mod 2^valuePtrCycleBits; a rejected
// location yields the zero word; and any word decodes as a pointer iff its
// tag bit is set, re-encoding to the same word.
func FuzzValuePtr(f *testing.F) {
	f.Add(int64(0), 0, uint64(0), uint64(0))
	f.Add(int64(4096), 4124, uint64(1), valuePtrTag|1)
	f.Add(MaxValueLogBytes-1, MaxValueRecordBytes, uint64(cycleMask), ^uint64(0))
	f.Add(MaxValueLogBytes, -1, uint64(cycleMask+1), uint64(1)<<62)
	f.Add(int64(1)<<40, MaxValueRecordBytes+1, ^uint64(0), valuePtrTag|uint64(cycleMask)<<57)
	f.Fuzz(func(t *testing.T, off int64, n int, cycle, word uint64) {
		inRange := off >= 0 && off < MaxValueLogBytes && n >= 0 && n <= MaxValueRecordBytes
		w, ok := encodeValuePtr(off, n, cycle)
		switch {
		case ok != inRange:
			t.Fatalf("encodeValuePtr(%d, %d, %d) ok=%v, in range %v", off, n, cycle, ok, inRange)
		case !ok && w != 0:
			t.Fatalf("encodeValuePtr(%d, %d, %d) rejected with word %#x", off, n, cycle, w)
		case ok:
			doff, dn, dcycle, dok := decodeValuePtr(w)
			if !dok || doff != off || dn != n || dcycle != cycle&cycleMask {
				t.Fatalf("(%d, %d, %d) -> %#x -> (%d, %d, %d, %v)", off, n, cycle, w, doff, dn, dcycle, dok)
			}
		}
		doff, dn, dcycle, dok := decodeValuePtr(word)
		if dok != (word&valuePtrTag != 0) || dok != IsValuePtr(word) {
			t.Fatalf("decodeValuePtr(%#x) ok=%v", word, dok)
		}
		if !dok {
			if doff != 0 || dn != 0 || dcycle != 0 {
				t.Fatalf("inline word %#x decoded as (%d, %d, %d)", word, doff, dn, dcycle)
			}
			return
		}
		if back, ok := encodeValuePtr(doff, dn, dcycle); !ok || back != word {
			t.Fatalf("%#x -> (%d, %d, %d) -> %#x, %v", word, doff, dn, dcycle, back, ok)
		}
	})
}
