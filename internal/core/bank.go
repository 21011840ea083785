package core

import (
	"repro/internal/bitslice"
	"repro/internal/bloom"
)

// filterBank is the per-super-table Bloom filter state: one filter per
// incarnation plus a staging filter for the in-memory buffer. Query returns
// a bitmask over window offsets 0..k-1 (0 = oldest position, k-1 = newest);
// offsets holding no live incarnation never match (their columns are zero).
//
// Two implementations exist so the §7.3.1 bit-slicing ablation can compare
// them: bitslice.Bank (the paper's design) and naiveBank (k+1 plain
// filters).
type filterBank interface {
	AddStaging(keyHash uint64)
	QueryStaging(keyHash uint64) bool
	Query(keyHash uint64) uint64
	Rotate()
	MemoryBits() uint64
}

// bitslice.Bank satisfies filterBank directly.
var _ filterBank = (*bitslice.Bank)(nil)

// naiveBank is the non-bit-sliced reference organization: k separate
// incarnation filters plus a staging filter.
type naiveBank struct {
	k       int
	m       uint64
	h       int
	filters []*bloom.Filter // len k, oldest first; nil = empty column
	staging *bloom.Filter
	// spare recycles the evicted filter to avoid reallocating.
	spare *bloom.Filter
}

func newNaiveBank(m uint64, k, h int) *naiveBank {
	return &naiveBank{
		k:       k,
		m:       m,
		h:       h,
		filters: make([]*bloom.Filter, k),
		staging: bloom.New(m, h),
	}
}

func (n *naiveBank) AddStaging(kh uint64) { n.staging.Add(kh) }

func (n *naiveBank) QueryStaging(kh uint64) bool { return n.staging.MayContain(kh) }

func (n *naiveBank) Query(kh uint64) uint64 {
	var mask uint64
	for j, f := range n.filters {
		if f != nil && f.MayContain(kh) {
			mask |= 1 << j
		}
	}
	return mask
}

func (n *naiveBank) Rotate() {
	evicted := n.filters[0]
	copy(n.filters, n.filters[1:])
	n.filters[n.k-1] = n.staging
	if evicted != nil {
		evicted.Reset()
		n.spare = evicted
	}
	if n.spare != nil {
		n.staging, n.spare = n.spare, nil
	} else {
		n.staging = bloom.New(n.m, n.h)
	}
}

func (n *naiveBank) MemoryBits() uint64 {
	return uint64(n.k+1) * n.m
}
