package storage

import (
	"fmt"
	"math/bits"
	"slices"
)

// PageReads is the set of device pages a batch reads, each once: core's
// probing rounds and the value log's record reads go through one. It
// numbers the distinct pages added to it from 0 in first-add order. A set
// built to split its device's members (see NewPageReads) keeps count of
// each member's pages not yet submitted, which it submits in first-add
// order, so that a caller can hand each member of a stripe its own pages;
// any other set keeps them as one member's. Submit reads the first pages not yet
// submitted of the members it is given as one address-sorted ReadBatch of
// whole-page view requests (ReadReq.View), so a page costs one request
// however many keys or records lie in it, adjacent pages chain into one
// sequential run, and the requests overlap across the device's queue
// lanes. View hands back a submitted page's view by its number.
//
// A submission of more pages than the device has lanes (Geometry.Lanes)
// fills its lanes, so its time follows the summed lane time: it then also
// reads through every hole of at most Geometry.ReadGap pages between two
// of its pages that lie on one member, within one stripe unit on a stripe
// of several: it requests the hole's pages as read-through views
// (ReadReq.Through), whose bytes nobody reads, so the page after the hole
// continues a sequential run and skips the run's fixed cost. A submission
// at or under the lanes reads exactly its pages: each has a lane of its
// own, so reading through would only add requests. Read-through pages are
// requested whether or not the set holds them, and never become a page's
// view; so every page of the set is read once between Resets, as a page
// of its own, however many times it is also read through.
//
// The set indexes its pages in an open-addressed table with linear
// probing, kept at most half full, whose 4-byte slots hold a page's
// number plus one (0 when free). A page's first probe slot is the top
// bits of its Fibonacci hash, which spreads runs of adjacent pages. The
// table grows as pages are added, and Reset sizes it for as many pages as
// the set held (see FitSlots), so it tracks the pages a batch actually
// gathers, not the batch's keys.
type PageReads struct {
	dev      Device
	md       MemberDevice // dev, when it has members; else nil
	pageSize int

	// A submission of more than lanes pages reads through holes of at
	// most gap pages (0 when the set's pages are not the device's).
	lanes, gap int

	pages   []uint64 // page numbers, by number in the set
	views   [][]byte // each submitted page's view, by number
	members []uint8  // each page's member, by number

	// A member's pages are submitted in number order, so per member:
	// next is at most the number of its first page not yet submitted,
	// unsentOn counts those pages, and upto is Submit's scratch, next
	// once the submission succeeds. unsent is their sum.
	next, unsentOn, upto []int
	unsent               int

	slots []int32 // the table
	shift uint    // 64 minus the bit length of len(slots)-1

	// Submit's scratch: a word per page, its page number above its
	// number in the set, and the requests.
	order []uint64
	reqs  []ReadReq
}

// AllMembers selects every member of a page-read set (see Submit).
const AllMembers = ^uint64(0)

// placeBits is the width of a page's number in the set, below its page
// number in the word Submit sorts; NewPageReads rejects devices whose page
// numbers would not fit above it.
const placeBits = 32

// NewPageReads returns an empty set of reads of dev's pageSize-byte pages,
// page n lying at byte n·pageSize. With split, a dev that is a
// MemberDevice of at most 64 members has its members' pages kept apart
// (see PageReads), for a caller that hands each member pages while its own
// timeline is idle; every other set has one member. It fails when dev
// holds more than 2^32 such pages, whose numbers would not fit the words
// Submit sorts.
func NewPageReads(dev Device, pageSize int, split bool) (PageReads, error) {
	g := dev.Geometry()
	if c := g.Capacity; c/int64(pageSize) > 1<<(64-placeBits) {
		return PageReads{}, fmt.Errorf("storage: device capacity %d holds more than 2^%d %d-byte pages", c, 64-placeBits, pageSize)
	}
	r := PageReads{dev: dev, pageSize: pageSize, lanes: max(g.Lanes, 1)}
	if pageSize == g.PageSize {
		r.gap = g.ReadGap
	}
	members := 1
	if md, ok := dev.(MemberDevice); ok {
		r.md = md
		if split && md.Members() > 1 {
			if members = md.Members(); members > 64 {
				return PageReads{}, fmt.Errorf("storage: page reads split over %d members, at most 64", members)
			}
		}
	}
	r.next, r.unsentOn, r.upto = make([]int, members), make([]int, members), make([]int, members)
	r.resize(minPageSlots)
	return r, nil
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

// Members returns the number of members whose pages the set keeps apart.
func (r *PageReads) Members() int { return len(r.next) }

// Unsent returns the number of pages not yet submitted.
func (r *PageReads) Unsent() int { return r.unsent }

// UnsentOn returns the number of member m's pages not yet submitted.
func (r *PageReads) UnsentOn(m int) int { return r.unsentOn[m] }

// Reset empties the set, its table sized for as many pages as it held
// (see FitSlots). An empty set stays as it is.
func (r *PageReads) Reset() {
	if len(r.pages) == 0 {
		return
	}
	size := FitSlots(len(r.slots), len(r.pages))
	r.pages, r.views, r.members, r.unsent = r.pages[:0], r.views[:0], r.members[:0], 0
	clear(r.next)
	clear(r.unsentOn)
	r.resize(size)
}

// resize empties the slots, sets their number to size, a power of two,
// and re-inserts the pages.
func (r *PageReads) resize(size int) {
	if cap(r.slots) < size {
		r.slots = make([]int32, size)
	} else {
		r.slots = r.slots[:size]
		clear(r.slots)
	}
	r.shift = uint(64 - bits.Len(uint(size-1)))
	for id, page := range r.pages {
		s := r.home(page)
		for r.slots[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		r.slots[s] = int32(id) + 1
	}
}

// home is page's first probe slot.
func (r *PageReads) home(page uint64) int { return int(page * 0x9e3779b97f4a7c15 >> r.shift) }

// Add returns page's number, adding page to the set, not yet submitted,
// if it is absent.
func (r *PageReads) Add(page uint64) int {
	mask := len(r.slots) - 1
	s := r.home(page)
	for ; r.slots[s] != 0; s = (s + 1) & mask {
		if id := int(r.slots[s]) - 1; r.pages[id] == page {
			return id
		}
	}
	if 2*(len(r.pages)+1) > len(r.slots) {
		r.resize(2 * len(r.slots))
		return r.Add(page)
	}
	id := len(r.pages)
	r.slots[s] = int32(id) + 1
	r.pages = append(r.pages, page)
	r.views = append(r.views, nil)
	m := 0
	if len(r.next) > 1 {
		m = r.md.Member(int64(page) * int64(r.pageSize))
	}
	r.members = append(r.members, uint8(m))
	r.unsentOn[m]++
	r.unsent++
	return id
}

// Submit reads the first n pages not yet submitted of each member whose
// bit is set in members (all of a member's when it has fewer; bit m is
// member m, AllMembers every member), in first-add order, as one ReadBatch
// of whole-page view requests in ascending address order, and records
// each page's view. A submission of more pages than the device's lanes
// also reads through the holes of at most the device's ReadGap pages
// between them (see PageReads). A submission of no pages does nothing. On
// error the pages stay unsubmitted.
func (r *PageReads) Submit(n int, members uint64) error {
	r.order = r.order[:0]
	for m := range r.next {
		if members&(1<<m) == 0 {
			continue
		}
		id := r.next[m]
		for k := min(n, r.unsentOn[m]); k > 0; id++ {
			if int(r.members[id]) == m {
				r.order = append(r.order, r.pages[id]<<placeBits|uint64(id))
				k--
			}
		}
		r.upto[m] = id
	}
	if len(r.order) == 0 {
		return nil
	}
	slices.Sort(r.order)
	through := r.gap > 0 && len(r.order) > r.lanes
	r.reqs = r.reqs[:0]
	for j, w := range r.order {
		page := w >> placeBits
		if through && j > 0 {
			r.readThrough(r.order[j-1]>>placeBits, page)
		}
		r.reqs = append(r.reqs, ReadReq{Off: int64(page) * int64(r.pageSize), N: r.pageSize, View: true})
	}
	if _, err := r.dev.ReadBatch(r.reqs); err != nil {
		return err
	}
	j := 0
	for _, q := range r.reqs {
		if !q.Through {
			r.views[r.order[j]&(1<<placeBits-1)] = q.P
			j++
		}
	}
	for m := range r.next {
		if members&(1<<m) != 0 {
			r.unsentOn[m] -= min(n, r.unsentOn[m])
			r.next[m] = r.upto[m]
		}
	}
	r.unsent -= len(r.order)
	return nil
}

// readThrough appends a read-through request for each page between pages
// a and b, a submission's consecutive pages, when there are at most r.gap
// of them and they all lie on the member holding a and b.
func (r *PageReads) readThrough(a, b uint64) {
	if hole := b - a - 1; hole == 0 || hole > uint64(r.gap) {
		return
	}
	ps := int64(r.pageSize)
	if r.md != nil {
		m := r.md.Member(int64(a) * ps)
		for p := a + 1; p <= b; p++ {
			if r.md.Member(int64(p)*ps) != m {
				return
			}
		}
	}
	for p := a + 1; p < b; p++ {
		r.reqs = append(r.reqs, ReadReq{Off: int64(p) * ps, N: r.pageSize, View: true, Through: true})
	}
}

// View returns the view of submitted page id: the device's stored page,
// read-only and valid until the device's next write or trim.
func (r *PageReads) View(id int) []byte { return r.views[id] }
