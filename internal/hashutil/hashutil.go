// Package hashutil provides the hash primitives shared by BufferHash and its
// substrates: 64-bit avalanche mixers, seeded hashing of byte strings, the
// Kirsch–Mitzenmacher double-hashing scheme used by the Bloom filters, and
// the partition/key split used by partitioned super tables (§5.2 of the
// paper: the first k1 bits of a key select the super table, the remaining k2
// bits are the key within it).
package hashutil

import (
	"encoding/binary"
	"math/bits"
)

// Mix64 applies the SplitMix64 finalizer, a fast full-avalanche 64-bit mixer.
// It is the core primitive from which all seeded hashes below are derived.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64Seed hashes x under the given seed. Distinct seeds yield
// (empirically) independent hash functions, which is how the cuckoo tables
// and Bloom filters derive their function families.
func Hash64Seed(x, seed uint64) uint64 {
	return Mix64(x ^ SeedMix(seed))
}

// SeedMix returns the mixed seed Hash64Seed folds into its input, so a
// caller hashing many keys under one seed can compute it once:
// Hash64Seed(x, seed) == Mix64(x ^ SeedMix(seed)).
func SeedMix(seed uint64) uint64 { return Mix64(seed + 0x9e3779b97f4a7c15) }

// HashBytes hashes an arbitrary byte string with a seeded FNV-1a/mix hybrid:
// FNV-1a accumulates the bytes, Mix64 finalizes to full avalanche.
func HashBytes(p []byte, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ Mix64(seed)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return Mix64(h)
}

// FastRange64 maps a 64-bit hash uniformly into [0, m) without a division,
// using Lemire's multiply-shift reduction: the high 64 bits of x·m. A 64-bit
// integer division costs ~20-40 cycles on current cores; the multiply costs
// ~3, which matters on the Bloom-query hot path where every lookup performs
// h reductions before any flash I/O is even considered.
func FastRange64(x, m uint64) uint64 {
	hi, _ := bits.Mul64(x, m)
	return hi
}

// Reduce maps x into [0, m): a mask when m is a power of two (preserving the
// full-residue coverage of odd double-hashing strides), FastRange64 otherwise.
func Reduce(x, m uint64) uint64 {
	if m&(m-1) == 0 {
		return x & (m - 1)
	}
	return FastRange64(x, m)
}

// Split divides a hash key into a partition index (top partitionBits bits)
// and the remaining in-partition key, implementing §5.2's k = k1 + k2 split.
// partitionBits must be in [0, 63].
func Split(key uint64, partitionBits uint) (partition uint64, rest uint64) {
	if partitionBits == 0 {
		return 0, key
	}
	return key >> (64 - partitionBits), key & (^uint64(0) >> partitionBits)
}

// PutEntry encodes a (key, value) pair into a 16-byte hash entry, the entry
// size used throughout the paper's evaluation (§7.1.1). Little-endian: key in
// bytes [0,8), value in bytes [8,16).
func PutEntry(dst []byte, key, value uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], key)
	binary.LittleEndian.PutUint64(dst[8:16], value)
}

// GetEntry decodes a 16-byte hash entry written by PutEntry.
func GetEntry(src []byte) (key, value uint64) {
	return binary.LittleEndian.Uint64(src[0:8]), binary.LittleEndian.Uint64(src[8:16])
}

// EntrySize is the on-flash size of one hash entry in bytes.
const EntrySize = 16
