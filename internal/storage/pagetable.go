package storage

import "math/bits"

// PageTable numbers the distinct device page numbers added to it, from 0
// in the order each was first added, so that a batch reading each page
// once keeps its per-page state (the read serving the page, or its view)
// in slices indexed by that number. Core's lookup batches dedupe their
// first probing round's pages through one, and the value log its get
// chunk's record pages.
//
// It is an open-addressed table with linear probing, kept at most half
// full: a slot holds a page's number plus one, 0 when free, and the pages
// themselves sit in insertion order, so a table of 4-byte slots stays in
// the nearest caches. A page's first probe slot is the top bits of its
// Fibonacci hash, which spreads runs of adjacent pages. The table grows
// on demand, and Reset sizes it for as many pages as its last use held
// (see FitSlots), so it tracks the pages a batch actually gathers, not
// the batch's keys.
type PageTable struct {
	slots []int32
	pages []uint64
	shift uint // 64 minus the bit length of len(slots)-1
}

// minPageSlots is the smallest table.
const minPageSlots = 16

// FitSlots sizes an open-addressed table of size slots, kept at most half
// full, for its next use after one that held n entries: the least power
// of two of at least 2n slots, and at least 16, unless size already holds
// that many and is at most 8 times it. Tables serving batches of varying
// sizes then keep their size instead of regrowing batch after batch, and
// one that served a large batch shrinks back once a few small ones follow.
func FitSlots(size, n int) int {
	fit := minPageSlots
	for fit < 2*n {
		fit <<= 1
	}
	if size >= fit && size <= 8*fit {
		return size
	}
	return fit
}

// Reset empties the table, sized for as many pages as it held before (see
// FitSlots). An empty table stays as it is.
func (t *PageTable) Reset() {
	if len(t.pages) == 0 {
		return
	}
	size := FitSlots(len(t.slots), len(t.pages))
	t.pages = t.pages[:0]
	t.resize(size)
}

// resize empties the slots, sets their number to size, a power of two,
// and re-inserts the pages.
func (t *PageTable) resize(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.Len(uint(size-1)))
	for id, page := range t.pages {
		s := t.home(page)
		for t.slots[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		t.slots[s] = int32(id) + 1
	}
}

// home is page's first probe slot.
func (t *PageTable) home(page uint64) int { return int(page * 0x9e3779b97f4a7c15 >> t.shift) }

// Add returns page's number, adding page if it is absent, and reports
// whether it was.
func (t *PageTable) Add(page uint64) (id int, fresh bool) {
	if 2*(len(t.pages)+1) > len(t.slots) {
		t.resize(max(2*len(t.slots), minPageSlots))
	}
	mask := len(t.slots) - 1
	for s := t.home(page); ; s = (s + 1) & mask {
		e := int(t.slots[s]) - 1
		if e < 0 {
			t.slots[s] = int32(len(t.pages)) + 1
			t.pages = append(t.pages, page)
			return len(t.pages) - 1, true
		}
		if t.pages[e] == page {
			return e, false
		}
	}
}
