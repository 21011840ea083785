// Package bloom implements the Bloom filters BufferHash keeps in DRAM, one
// per in-flash incarnation (§5.1). Keys are pre-hashed 64-bit values; the h
// probe positions are derived with the Kirsch–Mitzenmacher double-hashing
// construction, which preserves the asymptotic false-positive rate of h
// independent functions.
//
// The package also exposes the sizing math used by §6.2/§6.4: the optimal
// hash count h = (m/n)·ln2 and the resulting false-positive rate (1/2)^h.
package bloom

import (
	"math"

	"repro/internal/hashutil"
)

// Filter is a Bloom filter over pre-hashed 64-bit keys. The zero value is
// not usable; call New.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	h    int    // number of hash functions
}

// New returns a filter with m bits and h hash functions. m is rounded up to
// a multiple of 64; m and h must be positive.
func New(m uint64, h int) *Filter {
	if m == 0 || h <= 0 {
		panic("bloom: non-positive filter parameters")
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, h: h}
}

// OptimalHashes returns the false-positive-minimizing hash count
// h = (m/n)·ln2 for m bits and n keys, at least 1 (§6.2).
func OptimalHashes(m uint64, n int) int {
	if n <= 0 {
		return 1
	}
	h := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if h < 1 {
		h = 1
	}
	return h
}

// FalsePositiveRate returns the standard approximation
// (1 - e^(-hn/m))^h for a filter with m bits, n keys and h hashes.
func FalsePositiveRate(m uint64, n, h int) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(h)*float64(n)/float64(m)), float64(h))
}

// Add inserts a pre-hashed key. Probe positions use hashutil.Reduce
// (mask/fastrange) instead of a 64-bit division, matching MayContain.
func (f *Filter) Add(keyHash uint64) {
	h1 := keyHash
	h2 := hashutil.Mix64(keyHash) | 1
	for i := 0; i < f.h; i++ {
		p := hashutil.Reduce(h1, f.m)
		f.bits[p/64] |= 1 << (p % 64)
		h1 += h2
	}
}

// MayContain reports whether the key may have been added. False positives
// occur with probability ≈ FalsePositiveRate; false negatives never.
func (f *Filter) MayContain(keyHash uint64) bool {
	h1 := keyHash
	h2 := hashutil.Mix64(keyHash) | 1
	for i := 0; i < f.h; i++ {
		p := hashutil.Reduce(h1, f.m)
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// Reset clears the filter for reuse.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}
