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
// Each slice is a ring of L bits, L the smallest of 8, 16, 32 or 64 that
// holds the k live bits (L ≥ k): 1-byte slices for k ≤ 8, 2-byte for
// k ≤ 16, 4-byte for k ≤ 32, 8-byte above. The bank keeps its slices as a
// Go slice of that width, so a probe is one load of a slice's own type.
// Positions are modulo L and s is the window start:
//
//	[s, s+k)         bits of the k incarnations, oldest at s, newest at s+k-1
//	everything else  stale bits of evicted incarnations (L > k only)
//
// A query ANDs the h raw slices under a mask of the live window, so stale
// bits never match, and rotates the surviving physical positions to window
// offsets once at the end: one load and one AND per probed slice.
//
// # Column rewrite
//
// Eviction uses the paper's sliding window: rotating the bank moves s one
// position and retires the oldest column without touching its bits. The
// new newest column is position s+k (mod L) of the old window: at L = k
// the column just evicted, at L > k one whose stale bits an older
// incarnation left. Rotate rewrites that one column in every slice, bit
// for bit, from the staging filter, so no column needs clearing ahead of
// time and the window needs no slack beyond the rounding of k up to L.
//
// # Staging filter
//
// The buffer's filter is not a column of the slices but a flat m-bit
// bitmap (16 KB at m = 2^17), so AddStaging touches a small, cache-resident
// array instead of h scattered slices. Query reads it at the rows it reads
// the slices at, so one query answers for the buffer and the incarnations
// alike. Rotate copies the bitmap into the new newest column in one dense
// pass over the slices, 64 slices per bitmap word, and then zeroes the
// bitmap. The bitmap holds exactly the bits a staging column would, so
// every answer is still that of k+1 plain Bloom filters.
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

	"repro/internal/hashutil"
)

// word is a slice's storage type: one of the four slice lengths.
type word interface {
	uint8 | uint16 | uint32 | uint64
}

// Bank is a bit-sliced bank of k incarnation Bloom filters plus one staging
// (buffer) filter. Not safe for concurrent use.
type Bank struct {
	k        int    // incarnations per super table
	h        int    // hash functions per filter
	m        uint64 // bits per filter (number of slices)
	sliceLen int    // L: bits per slice, 8, 16, 32 or 64
	// The m slices, held in the one of these that is L bits wide.
	s8      []uint8
	s16     []uint16
	s32     []uint32
	s64     []uint64
	staging []uint64 // flat m-bit staging filter
	start   int      // s: window start bit position
	live    uint64   // slice positions of the live window [s, s+k)
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
	L := 8
	for L < k {
		L *= 2
	}
	b := &Bank{k: k, h: h, m: m, sliceLen: L, staging: make([]uint64, (m+63)/64)}
	switch L {
	case 8:
		b.s8 = make([]uint8, m)
	case 16:
		b.s16 = make([]uint16, m)
	case 32:
		b.s32 = make([]uint32, m)
	default:
		b.s64 = make([]uint64, m)
	}
	b.setLive()
	return b
}

// MemoryBits returns the total memory consumed by the bank in bits: the
// m L-bit slices plus the m-bit staging filter, rounded up to whole words.
func (b *Bank) MemoryBits() uint64 {
	return uint64(b.sliceLen)*b.m + uint64(len(b.staging))*64
}

// AddStaging adds a pre-hashed key to the staging (buffer) filter. Like
// every bank operation it generates the key's h rows inline with the
// Kirsch–Mitzenmacher construction, which keeps the false-positive rate of
// h independent hash functions: the sequence h1 + i·h2 with
// h2 = Mix64(h1)|1, each reduced by hashutil.Reduce.
func (b *Bank) AddStaging(keyHash uint64) {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for range b.h {
		row := hashutil.Reduce(h1, b.m)
		b.staging[row/64] |= 1 << (row % 64)
		h1 += h2
	}
}

// queryGroup is how many rows Query ANDs between two tests of its
// answers: the group's loads issue back to back instead of each waiting on
// the previous row's early-exit branch.
const queryGroup = 4

// Query answers for all k+1 filters at once (§5.1.3). mask is a bitmask
// over the k incarnation columns: bit j set means the incarnation at
// window offset j (0 = oldest position, k-1 = newest) may contain the key.
// Columns that currently hold no incarnation are all-zero and thus never
// match. staged reports whether the staging (buffer) filter may contain
// it.
//
// The h rows are AddStaging's sequence, generated once and read from the
// slices and the staging bitmap alike, and the answers are tested once per
// queryGroup rows: the query stops as soon as neither can hold.
func (b *Bank) Query(keyHash uint64) (mask uint64, staged bool) {
	switch b.sliceLen {
	case 8:
		return query(b, b.s8, keyHash)
	case 16:
		return query(b, b.s16, keyHash)
	case 32:
		return query(b, b.s32, keyHash)
	}
	return query(b, b.s64, keyHash)
}

// query is Query over the bank's slices s, of type T. a accumulates the
// slices, and bit 0 of g the staging bits, each shifted down to it. While
// both answers are open each row group reads both; once one settles, the
// other finishes alone.
func query[T word](b *Bank, s []T, keyHash uint64) (uint64, bool) {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	m := b.m
	s = s[:m]
	f := b.staging
	a, g := T(b.live), uint64(1)
	i := 0
	for ; i+queryGroup <= b.h && a != 0 && g&1 != 0; i += queryGroup {
		r0, r1 := hashutil.Reduce(h1, m), hashutil.Reduce(h1+h2, m)
		r2, r3 := hashutil.Reduce(h1+2*h2, m), hashutil.Reduce(h1+3*h2, m)
		a &= s[r0] & s[r1] & s[r2] & s[r3]
		g &= (f[r0/64] >> (r0 % 64)) & (f[r1/64] >> (r1 % 64)) & (f[r2/64] >> (r2 % 64)) & (f[r3/64] >> (r3 % 64))
		h1 += queryGroup * h2
	}
	switch {
	case a != 0 && g&1 != 0: // fewer rows than a group are left
		for ; i < b.h; i++ {
			r := hashutil.Reduce(h1, m)
			a &= s[r]
			g &= f[r/64] >> (r % 64)
			h1 += h2
		}
	case a != 0: // the staging filter rules the key out
		for ; i+queryGroup <= b.h && a != 0; i += queryGroup {
			a &= s[hashutil.Reduce(h1, m)] & s[hashutil.Reduce(h1+h2, m)] &
				s[hashutil.Reduce(h1+2*h2, m)] & s[hashutil.Reduce(h1+3*h2, m)]
			h1 += queryGroup * h2
		}
		for ; i < b.h && a != 0; i++ {
			a &= s[hashutil.Reduce(h1, m)]
			h1 += h2
		}
	case g&1 != 0: // every incarnation rules the key out
		for ; i < b.h && g&1 != 0; i++ {
			r := hashutil.Reduce(h1, m)
			g &= f[r/64] >> (r % 64)
			h1 += h2
		}
	}
	// Rotate the surviving slice positions right by s: position s becomes
	// window offset 0. The shifts are of T, so the ring wraps at L bits.
	return uint64(a>>b.start | a<<(b.sliceLen-b.start)), g&1 != 0
}

// Rotate slides the window one position: the staging filter becomes the
// newest incarnation, the oldest incarnation column falls out of the
// window, and the staging filter starts empty.
//
// The new newest column is position s+k (mod L): at L = k the oldest
// column, which leaves the window now, and at L > k a stale one the live
// mask keeps out of every query. One dense pass over the staging bitmap
// rewrites that bit of every slice from the bitmap, then zeroes it.
func (b *Bank) Rotate() {
	col := (b.start + b.k) % b.sliceLen
	b.start = (b.start + 1) % b.sliceLen
	switch b.sliceLen {
	case 8:
		rewrite(b.s8, b.staging, col)
	case 16:
		rewrite(b.s16, b.staging, col)
	case 32:
		rewrite(b.s32, b.staging, col)
	default:
		rewrite(b.s64, b.staging, col)
	}
	b.setLive()
}

// rewrite sets bit col of every slice to the staging bitmap's bit for that
// slice and zeroes the bitmap, 64 slices per bitmap word, unrolled by 8.
func rewrite[T word](s []T, staging []uint64, col int) {
	bit := T(1) << col
	keep := ^bit
	full := len(s) / 64
	for wi, bm := range staging[:full] {
		p := (*[64]T)(s[wi*64:])
		for j := 0; j < 64; j += 8 {
			q := (*[8]T)(p[j:])
			q[0] = q[0]&keep | -T(bm&1)&bit
			q[1] = q[1]&keep | -T(bm>>1&1)&bit
			q[2] = q[2]&keep | -T(bm>>2&1)&bit
			q[3] = q[3]&keep | -T(bm>>3&1)&bit
			q[4] = q[4]&keep | -T(bm>>4&1)&bit
			q[5] = q[5]&keep | -T(bm>>5&1)&bit
			q[6] = q[6]&keep | -T(bm>>6&1)&bit
			q[7] = q[7]&keep | -T(bm>>7&1)&bit
			bm >>= 8
		}
	}
	// A filter size that is not a multiple of 64 leaves a partial word.
	for j := full * 64; j < len(s); j++ {
		s[j] = s[j]&keep | -T(staging[full]>>(j%64)&1)&bit
	}
	clear(staging)
}

// setLive recomputes the slice positions of the live window [s, s+k).
func (b *Bank) setLive() {
	b.live = 0
	for j := 0; j < b.k; j++ {
		b.live |= 1 << ((b.start + j) % b.sliceLen)
	}
}
