// Package bitslice implements the bit-sliced Bloom filter organization with
// a sliding window described in §5.1.3 of the paper.
//
// A super table holds k incarnations plus the in-memory buffer, each with a
// Bloom filter of m bits. Instead of storing k separate incarnation
// filters, the bank stores m *slices*: slice p concatenates bit p of every
// incarnation filter. A lookup that probes h bit positions then retrieves h
// slices, ANDs them, and the 1-bits of the result identify the
// incarnations that may contain the key — h word operations instead of k·h
// bit probes.
//
// # Window layout
//
// Each slice is a ring of L bits, L the smallest of 32, 64 or 128 that
// holds the k live bits plus one clearing chunk of 8 bits (L ≥ k+8): 4-byte
// slices for k ≤ 24, 8-byte for k ≤ 56, 16-byte above. Positions are modulo
// L and s is the window start:
//
//	[s, s+k)         bits of the k incarnations, oldest at s, newest at s+k-1
//	[s&^7, s)        stale bits of evicted incarnations, not yet cleared
//	everything else  zero
//
// A query ANDs the h raw slices under a mask of the live window, so stale
// bits never match, and maps the surviving physical positions to window
// offsets once at the end: one load and one AND per probed slice.
//
// # Chunked clearing
//
// Eviction uses the paper's sliding window: rotating the bank moves s one
// position and retires the oldest column without touching its bits. When
// s crosses a chunk boundary the vacated 8-bit chunk of every slice is
// zeroed with one masked store, so the next 8 columns the window grows into
// are already clean. This is the paper's "w extra bits" at w = 8: clearing
// costs one store per slice every 8 rotations instead of one per slice and
// rotation, and the slack costs one byte per slice instead of a word.
//
// # Staging filter
//
// The buffer's filter is not a column of the slices but a flat m-bit
// bitmap (16 KB at m = 2^17), so AddStaging and QueryStaging touch a small,
// cache-resident array instead of h scattered slices. Rotate folds the
// bitmap's set bits into the new newest column in one ascending pass over
// the slices and then zeroes the bitmap. The bitmap holds exactly the bits a
// staging column would, so every answer is still that of k+1 plain Bloom
// filters.
//
// # Why not a blocked layout
//
// A blocked Bloom filter (Putze, Sanders & Singler, WEA 2007) keeps a key's
// probes inside one cache line. Here every probe is its own slice, so a
// line holds only a few slices; confining a key's h = 22 probes to one or
// two lines would turn each filter into a ~32-position blocked filter,
// raising the false-positive rate from about 1e-6 to about 1e-2 and paying
// for it in spurious flash probes. Compact slices and the flat staging
// filter keep the paper's false-positive rate and give bit-identical
// answers.
package bitslice

import (
	"fmt"
	"math/bits"

	"repro/internal/hashutil"
)

// chunkBits is the clearing granularity: the window's slack beyond the k
// live bits, zeroed one chunk of every slice at a time.
const chunkBits = 8

// Bank is a bit-sliced bank of k incarnation Bloom filters plus one staging
// (buffer) filter. Not safe for concurrent use.
type Bank struct {
	k        int    // incarnations per super table
	h        int    // hash functions per filter
	m        uint64 // bits per filter (number of slices)
	sliceLen int    // L: bits per slice, 32, 64 or 128
	words    int    // uint32 words per slice
	slices   []uint32
	staging  []uint64  // flat m-bit staging filter
	start    int       // s: window start bit position
	live     [4]uint32 // slice positions of the live window [s, s+k)
	scratch  []uint64
}

// NewBank creates a bank for k incarnations with m-bit filters and h hash
// functions. k must be in [1, 64].
func NewBank(m uint64, k, h int) *Bank {
	if k < 1 || k > 64 {
		panic(fmt.Sprintf("bitslice: k=%d out of range [1,64]", k))
	}
	if m == 0 || h < 1 {
		panic("bitslice: non-positive filter parameters")
	}
	L := 32
	for L < k+chunkBits {
		L *= 2
	}
	b := &Bank{
		k:        k,
		h:        h,
		m:        m,
		sliceLen: L,
		words:    L / 32,
		slices:   make([]uint32, int(m)*(L/32)),
		staging:  make([]uint64, (m+63)/64),
		scratch:  make([]uint64, 0, h),
	}
	b.setLive()
	return b
}

// K returns the number of incarnation columns.
func (b *Bank) K() int { return b.k }

// Hashes returns the number of hash functions per filter.
func (b *Bank) Hashes() int { return b.h }

// FilterBits returns m, the number of bits per filter.
func (b *Bank) FilterBits() uint64 { return b.m }

// MemoryBits returns the total memory consumed by the bank in bits: the
// L-bit slices, including the sliding window's slack, plus the m-bit
// staging filter.
func (b *Bank) MemoryBits() uint64 {
	return uint64(len(b.slices))*32 + uint64(len(b.staging))*64
}

// AddStaging adds a pre-hashed key to the staging (buffer) filter.
func (b *Bank) AddStaging(keyHash uint64) {
	b.scratch = hashutil.DoubleHash(keyHash, b.h, b.m, b.scratch[:0])
	for _, row := range b.scratch {
		b.staging[row/64] |= 1 << (row % 64)
	}
}

// QueryStaging reports whether the staging filter may contain the key.
func (b *Bank) QueryStaging(keyHash uint64) bool {
	b.scratch = hashutil.DoubleHash(keyHash, b.h, b.m, b.scratch[:0])
	for _, row := range b.scratch {
		if b.staging[row/64]&(1<<(row%64)) == 0 {
			return false
		}
	}
	return true
}

// Query returns a bitmask over the k incarnation columns: bit j set means
// the incarnation at window offset j (0 = oldest position, k-1 = newest)
// may contain the key. Columns that currently hold no incarnation are
// all-zero and thus never match.
func (b *Bank) Query(keyHash uint64) uint64 {
	return b.QueryWith(keyHash, &b.scratch)
}

// QueryWith is Query against caller-owned hash scratch (grown in place and
// reused across calls). The bank's slices are only read, so concurrent
// QueryWith calls with distinct scratch are safe while no writer runs —
// the property the parallel phase-A lanes of a batched lookup rely on;
// Query itself uses the bank's own scratch and stays single-caller.
func (b *Bank) QueryWith(keyHash uint64, scratch *[]uint64) uint64 {
	rows := hashutil.DoubleHash(keyHash, b.h, b.m, (*scratch)[:0])
	*scratch = rows
	acc := b.live
	w := b.words
	for _, row := range rows {
		slice := b.slices[int(row)*w : int(row)*w+w]
		var alive uint32
		for i, v := range slice {
			acc[i] &= v
			alive |= acc[i]
		}
		if alive == 0 {
			return 0
		}
	}
	// Map the surviving slice positions to window offsets.
	var mask uint64
	for i, v := range acc[:w] {
		for v != 0 {
			p := i*32 + bits.TrailingZeros32(v)
			mask |= 1 << ((p - b.start) & (b.sliceLen - 1))
			v &= v - 1
		}
	}
	return mask
}

// Rotate slides the window one position: the staging filter becomes the
// newest incarnation, the oldest incarnation column falls out of the
// window, and the staging filter starts empty.
//
// When the window start crosses a chunk boundary, one masked store per
// slice zeroes the chunk it vacated (§5.1.3's batched clearing of stale
// bits). Then one ascending pass over the staging bitmap's set bits ORs
// them into the column just past the old window, which the invariant keeps
// zero, and clears the bitmap.
func (b *Bank) Rotate() {
	L := b.sliceLen
	col := (b.start + b.k) % L
	b.start = (b.start + 1) % L
	w := b.words
	if b.start%chunkBits == 0 {
		// The window will not reach the vacated chunk again until it has
		// wrapped past the other L-k-8 ≥ 0 free positions.
		vacated := (b.start - chunkBits + L) % L
		stale := uint32(1<<chunkBits-1) << (vacated % 32)
		for i := vacated / 32; i < len(b.slices); i += w {
			b.slices[i] &^= stale
		}
	}
	colWord, bit := col/32, uint32(1)<<(col%32)
	for wi, bm := range b.staging {
		base := wi*64*w + colWord
		for bm != 0 {
			b.slices[base+bits.TrailingZeros64(bm)*w] |= bit
			bm &= bm - 1
		}
		b.staging[wi] = 0
	}
	b.setLive()
}

// setLive recomputes the slice positions of the live window [s, s+k).
func (b *Bank) setLive() {
	b.live = [4]uint32{}
	for j := 0; j < b.k; j++ {
		p := (b.start + j) % b.sliceLen
		b.live[p/32] |= 1 << (p % 32)
	}
}

// MatchOffsets appends the window offsets of the set bits in mask to dst
// (ascending, i.e. oldest first), using the precomputed-table technique the
// paper describes (here: hardware ctz).
func MatchOffsets(mask uint64, dst []int) []int {
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		dst = append(dst, j)
		mask &= mask - 1
	}
	return dst
}
