// Package workload generates the synthetic workloads of the paper's
// evaluation: key streams with controlled lookup success ratio (§7.2,
// "keys are generated using random distribution with varying range; the
// range effects the lookup success rate"), and object-level traces with
// controlled redundancy standing in for the UW-Madison packet traces (§8;
// the paper notes its synthetic-trace results are "qualitatively
// similar").
package workload

import (
	"math/rand"
)

// KeyStream produces the paper's core workload: "every key is first looked
// up, and then inserted", with keys drawn uniformly from a range sized to
// hit a target lookup success ratio.
type KeyStream struct {
	rng      *rand.Rand
	keyRange uint64
}

// NewKeyStream builds a stream over keyRange distinct keys. With a store
// retaining the most recent W distinct keys, the steady-state LSR of
// lookup-then-insert is ≈ W/keyRange (clamped at 1).
func NewKeyStream(seed int64, keyRange uint64) *KeyStream {
	if keyRange == 0 {
		keyRange = 1
	}
	return &KeyStream{rng: rand.New(rand.NewSource(seed)), keyRange: keyRange}
}

// Next returns the next key.
func (s *KeyStream) Next() uint64 {
	return uint64(s.rng.Int63n(int64(s.keyRange))) + 1
}

// ZipfStream draws keys from a Zipf popularity distribution over a fixed
// rank range — the skewed counterpart of KeyStream, used to exercise the
// sharded batch router under hot-key concentration. Rank r is mapped to a
// stable fingerprint with hashutil-style mixing so a hot rank stays one hot
// key (popularity skew is preserved) while distinct ranks spread uniformly
// over the key space (shard routing by high bits stays meaningful).
type ZipfStream struct {
	z *rand.Zipf
}

// NewZipfStream builds a stream over keyRange ranks with Zipf exponent
// s > 1 (larger = more skew; 1.2 concentrates ~1/3 of draws on the hottest
// few keys).
func NewZipfStream(seed int64, s float64, keyRange uint64) *ZipfStream {
	if keyRange == 0 {
		keyRange = 1
	}
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfStream{z: rand.NewZipf(rng, s, 1, keyRange-1)}
}

// Next returns the next key: a mixed fingerprint of the drawn rank.
func (s *ZipfStream) Next() uint64 {
	r := s.z.Uint64() + 1
	// SplitMix64 finalizer (hashutil.Mix64; duplicated to keep workload
	// dependency-free): a bijection, so rank popularity carries over.
	x := r
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RangeForLSR returns the key range that yields the target LSR for a store
// whose steady-state population is storeEntries.
func RangeForLSR(storeEntries uint64, lsr float64) uint64 {
	if lsr <= 0 {
		return 1 << 62 // effectively all misses
	}
	if lsr > 1 {
		lsr = 1
	}
	r := uint64(float64(storeEntries) / lsr)
	if r == 0 {
		r = 1
	}
	return r
}
