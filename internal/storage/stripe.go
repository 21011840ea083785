package storage

import (
	"fmt"
	"slices"
	"time"
)

// Stripe is a Device striped over member devices, RAID-0 style
// (Patterson, Gibson and Katz, SIGMOD 1988). Its address space is cut into
// stripe units, dealt to the members round-robin in member order: unit u
// of a stripe of n members lies on member u mod n, as that member's unit
// u/n, so each member holds its units back to back in stripe order. A
// unit is a whole number of every member's erase blocks. The stripe
// reports one round, n units, as its own EraseBlock: the smallest span
// that replaces whole blocks on every member, so a writer that writes
// whole, aligned rounds (the value log) writes whole blocks on each member
// in one submission. A unit still lands whole on one member, so a
// whole-unit write at a unit boundary (an index image) reaches one member
// alone.
//
// ReadBatch and WriteBatch split a submission into one submission per
// member: each request's pieces, cut at unit boundaries, keep the
// submission's ascending order on their member, and all of a request's
// pieces on one member, which lie there back to back, are one request,
// so a sequential run stays one request on each member, priced as one. A
// request of several pieces on a member goes through the member's
// scratch: a write gathers them there, and a read fills the scratch and
// scatters it back. The members serve their shares in member
// order, each on its own queue and clock, which advances by its own
// share's service time only; the stripe returns the longest share's. A
// member's failure fails the submission with that member's error, and
// the shares of the members before it stay served and charged, as on a
// real array. Counters are the sum of the members', Geometry's Capacity
// the sum of theirs, its Lanes the sum of theirs and its ReadGap the least
// of theirs.
//
// The stripe keeps per-member scratch, so a submission allocates nothing
// once the scratch has grown. It is not safe for concurrent use.
type Stripe struct {
	members []Device
	unit    int64
	geom    Geometry

	// Per-member scratch: the share of the submission being split, for
	// each read the stripe request it serves, the bytes of the requests
	// gathered from several pieces, the number of the request whose bytes
	// end the gathered ones (-1 for none), and for a read the pieces to
	// scatter back once the member has read them.
	reads   [][]ReadReq
	readOf  [][]int
	writes  [][]WriteReq
	gather  [][]byte
	tail    []int
	scatter [][]scatterPiece
	seen    []bool // the members the request being split has reached
}

// scatterPiece is a piece of a gathered read: the bytes at at in the
// member's request req go to dst.
type scatterPiece struct {
	req, at int
	dst     []byte
}

// StripeShare returns how many of n stripe units a stripe of members
// members deals to member i.
func StripeShare(n int64, members, i int) int64 {
	return (n + int64(members-1-i)) / int64(members)
}

// NewStripe returns a stripe of unit-byte units dealt round-robin over
// members (see Stripe), whose EraseBlock is len(members) units. The
// members must share one page size, unit must be a multiple of it and of
// each member's erase block, and each member must hold exactly its share
// of all the members' units together (see StripeShare), at least one.
func NewStripe(unit int, members ...Device) (*Stripe, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("storage: stripe of no members")
	}
	s := &Stripe{
		members: members,
		unit:    int64(unit),
		reads:   make([][]ReadReq, len(members)),
		readOf:  make([][]int, len(members)),
		writes:  make([][]WriteReq, len(members)),
		gather:  make([][]byte, len(members)),
		tail:    make([]int, len(members)),
		scatter: make([][]scatterPiece, len(members)),
		seen:    make([]bool, len(members)),
	}
	ps := members[0].Geometry().PageSize
	var units int64
	s.geom.ReadGap = members[0].Geometry().ReadGap
	for i, d := range members {
		g := d.Geometry()
		switch {
		case g.PageSize != ps:
			return nil, fmt.Errorf("storage: stripe member %d has %d-byte pages, member 0 %d-byte ones", i, g.PageSize, ps)
		case unit <= 0 || unit%ps != 0 || g.EraseBlock > 0 && unit%g.EraseBlock != 0:
			return nil, fmt.Errorf("storage: stripe unit %d is no multiple of member %d's %d-byte pages and %d-byte erase blocks",
				unit, i, ps, g.EraseBlock)
		case g.Capacity%s.unit != 0:
			return nil, fmt.Errorf("storage: stripe member %d's capacity %d is no whole number of %d-byte units", i, g.Capacity, unit)
		}
		units += g.Capacity / s.unit
		s.geom.Lanes += max(g.Lanes, 1)
		s.geom.ReadGap = min(s.geom.ReadGap, g.ReadGap)
	}
	for i, d := range members {
		if have, n := d.Geometry().Capacity/s.unit, StripeShare(units, len(members), i); have != n || n == 0 {
			return nil, fmt.Errorf("storage: stripe member %d holds %d of the %d units, its round-robin share is %d (at least 1)", i, have, units, n)
		}
	}
	s.geom.Capacity, s.geom.PageSize, s.geom.EraseBlock = units*s.unit, ps, len(members)*unit
	return s, nil
}

// locate maps stripe offset off to its member and the offset there, and
// returns the bytes left in its unit.
func (s *Stripe) locate(off int64) (member int, moff, left int64) {
	u, in := off/s.unit, off%s.unit
	n := int64(len(s.members))
	return int(u % n), u/n*s.unit + in, s.unit - in
}

// Members implements MemberDevice: the number of member devices.
func (s *Stripe) Members() int { return len(s.members) }

// Member implements MemberDevice: the member holding stripe offset off.
func (s *Stripe) Member(off int64) int { return int(off / s.unit % int64(len(s.members))) }

// Geometry implements Device.
func (s *Stripe) Geometry() Geometry { return s.geom }

// Counters implements Device: the sum of the members'.
func (s *Stripe) Counters() Counters {
	var c Counters
	for _, d := range s.members {
		c.Add(d.Counters())
	}
	return c
}

// ReadAt implements Device as a one-request ReadBatch.
func (s *Stripe) ReadAt(p []byte, off int64) (time.Duration, error) {
	one := [1]ReadReq{{P: p, Off: off}}
	return s.ReadBatch(one[:])
}

// WriteAt implements Device as a one-request WriteBatch.
func (s *Stripe) WriteAt(p []byte, off int64) (time.Duration, error) {
	one := [1]WriteReq{{P: p, Off: off}}
	return s.WriteBatch(one[:])
}

// check validates a submission's order and ranges on the stripe before
// any member sees it: offsets ascend, every range lies on the stripe and
// respects align, and a view lies inside one page.
func (s *Stripe) check(n, align int, req func(i int) (off, size int64, view bool)) error {
	ps := int64(s.geom.PageSize)
	prev := int64(0)
	for i := range n {
		off, size, view := req(i)
		if i > 0 && off < prev {
			return unsorted(i, prev, off)
		}
		prev = off
		if err := CheckRange(s.geom, off, size, align); err != nil {
			return err
		}
		if view && size > 0 && off/ps != (off+size-1)/ps {
			return fmt.Errorf("%w: view off=%d n=%d crosses a %d-byte page", ErrUnaligned, off, size, ps)
		}
	}
	return nil
}

// split cuts the range of n bytes at stripe offset off at unit
// boundaries and calls piece for each piece, in order: its member, its
// offset there, its place in the range and its length, and whether an
// earlier piece of the range reached the member, which the piece then
// continues back to back there. An empty range is one empty piece.
func (s *Stripe) split(off, n int64, piece func(m int, moff, at, k int64, cont bool)) {
	clear(s.seen)
	for at := int64(0); at < n || at == 0; {
		m, moff, left := s.locate(off + at)
		k := min(left, n-at)
		piece(m, moff, at, k, s.seen[m])
		s.seen[m], at = true, at+k
		if k == 0 {
			return
		}
	}
}

// begin empties every member's share and scratch for a new submission.
func (s *Stripe) begin() {
	for m := range s.members {
		s.reads[m], s.readOf[m], s.writes[m] = s.reads[m][:0], s.readOf[m][:0], s.writes[m][:0]
		s.gather[m], s.scatter[m], s.tail[m] = s.gather[m][:0], s.scatter[m][:0], -1
	}
}

// extend returns have, the bytes of member m's request req, followed by k
// more bytes for the caller to fill, all in the member's gather scratch:
// have is copied to the scratch's end unless it ends it already.
func (s *Stripe) extend(m, req int, have []byte, k int64) []byte {
	g := s.gather[m]
	if s.tail[m] != req {
		g, s.tail[m] = append(g, have...), req
	}
	n := len(have) + int(k)
	g = slices.Grow(g, int(k))[:len(g)+int(k)]
	s.gather[m] = g
	return g[len(g)-n:]
}

// ReadBatch implements Device: reqs split into one submission per member
// (see Stripe). A view request lies inside one page, so inside one unit:
// it goes to its member whole, without a split, and gets the member's
// view back.
func (s *Stripe) ReadBatch(reqs []ReadReq) (time.Duration, error) {
	if err := s.check(len(reqs), 1, func(i int) (int64, int64, bool) {
		return reqs[i].Off, int64(reqs[i].size()), reqs[i].View
	}); err != nil {
		return 0, err
	}
	s.begin()
	for i, r := range reqs {
		if r.View {
			m, moff, _ := s.locate(r.Off)
			s.reads[m] = append(s.reads[m], ReadReq{Off: moff, N: r.N, View: true, Through: r.Through})
			s.readOf[m] = append(s.readOf[m], i)
			continue
		}
		s.split(r.Off, int64(len(r.P)), func(m int, moff, at, k int64, cont bool) {
			p, last := r.P[at:at+k], len(s.reads[m])-1
			if !cont {
				s.reads[m] = append(s.reads[m], ReadReq{P: p, Off: moff, Through: r.Through})
				s.readOf[m] = append(s.readOf[m], i)
				return
			}
			have := s.reads[m][last].P
			if s.tail[m] != last {
				s.scatter[m] = append(s.scatter[m], scatterPiece{req: last, dst: have})
			}
			s.scatter[m] = append(s.scatter[m], scatterPiece{req: last, at: len(have), dst: p})
			s.reads[m][last].P = s.extend(m, last, have, k)
		})
	}
	var lat time.Duration
	for m, d := range s.members {
		if len(s.reads[m]) == 0 {
			continue
		}
		l, err := d.ReadBatch(s.reads[m])
		lat = max(lat, l)
		if err != nil {
			return lat, err
		}
		for j, r := range s.reads[m] {
			if r.View {
				reqs[s.readOf[m][j]].P = r.P
			}
		}
		for _, p := range s.scatter[m] {
			copy(p.dst, s.reads[m][p.req].P[p.at:])
		}
	}
	return lat, nil
}

// WriteBatch implements Device: reqs split into one submission per member
// (see Stripe). Writes must be aligned to the members' page, as on every
// device model.
func (s *Stripe) WriteBatch(reqs []WriteReq) (time.Duration, error) {
	if err := s.check(len(reqs), s.geom.PageSize, func(i int) (int64, int64, bool) {
		return reqs[i].Off, int64(len(reqs[i].P)), false
	}); err != nil {
		return 0, err
	}
	s.begin()
	for _, r := range reqs {
		s.split(r.Off, int64(len(r.P)), func(m int, moff, at, k int64, cont bool) {
			p, last := r.P[at:at+k], len(s.writes[m])-1
			if !cont {
				s.writes[m] = append(s.writes[m], WriteReq{P: p, Off: moff})
				return
			}
			have := s.writes[m][last].P
			s.writes[m][last].P = s.extend(m, last, have, k)
			copy(s.writes[m][last].P[len(have):], p)
		})
	}
	var lat time.Duration
	for m, d := range s.members {
		if len(s.writes[m]) == 0 {
			continue
		}
		l, err := d.WriteBatch(s.writes[m])
		lat = max(lat, l)
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}
