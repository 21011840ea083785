package bitslice

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashutil"
)

// naiveBank is the straightforward implementation the bit-sliced bank must
// be equivalent to: k+1 separate Bloom filters rotated on eviction.
type naiveBank struct {
	k       int
	filters []*bloom.Filter // len k, oldest first; nil = empty column
	staging *bloom.Filter
	m       uint64
	h       int
}

func newNaive(m uint64, k, h int) *naiveBank {
	return &naiveBank{k: k, filters: make([]*bloom.Filter, k), staging: bloom.New(m, h), m: m, h: h}
}

func (n *naiveBank) AddStaging(kh uint64)        { n.staging.Add(kh) }
func (n *naiveBank) QueryStaging(kh uint64) bool { return n.staging.MayContain(kh) }

func (n *naiveBank) Rotate() {
	copy(n.filters, n.filters[1:])
	n.filters[n.k-1] = n.staging
	n.staging = bloom.New(n.m, n.h)
}

func (n *naiveBank) Query(kh uint64) uint64 {
	var mask uint64
	for j, f := range n.filters {
		if f != nil && f.MayContain(kh) {
			mask |= 1 << j
		}
	}
	return mask
}

func TestEquivalenceWithNaiveBank(t *testing.T) {
	// Property: under an arbitrary interleaving of inserts and rotations,
	// the bit-sliced bank answers every query identically to k+1 plain
	// Bloom filters.
	const (
		m = 1 << 10
		k = 16
		h = 4
	)
	for seed := int64(0); seed < 5; seed++ {
		bank := NewBank(m, k, h)
		ref := newNaive(m, k, h)
		rng := rand.New(rand.NewSource(seed))
		var keys []uint64
		for step := 0; step < 3000; step++ {
			switch rng.Intn(10) {
			case 0: // rotate (evict oldest, flush staging)
				bank.Rotate()
				ref.Rotate()
			default:
				kh := rng.Uint64()
				keys = append(keys, kh)
				bank.AddStaging(kh)
				ref.AddStaging(kh)
			}
			// Check a recent key, a random key, and an old key.
			probes := []uint64{rng.Uint64()}
			if len(keys) > 0 {
				probes = append(probes, keys[len(keys)-1], keys[rng.Intn(len(keys))])
			}
			for _, p := range probes {
				if got, want := bank.Query(p), ref.Query(p); got != want {
					t.Fatalf("seed %d step %d: Query(%#x) = %#x, want %#x", seed, step, p, got, want)
				}
				if got, want := bank.QueryStaging(p), ref.QueryStaging(p); got != want {
					t.Fatalf("seed %d step %d: QueryStaging(%#x) = %v, want %v", seed, step, p, got, want)
				}
			}
		}
	}
}

func TestLongRotationWrapsWindow(t *testing.T) {
	// Rotate far more times than the slice length to exercise wrap-around
	// and the chunk-batched clearing, verifying equivalence throughout.
	const (
		m = 256
		k = 16
		h = 3
	)
	bank := NewBank(m, k, h)
	ref := newNaive(m, k, h)
	rng := rand.New(rand.NewSource(42))
	for rot := 0; rot < 1000; rot++ {
		for i := 0; i < 8; i++ {
			kh := rng.Uint64()
			bank.AddStaging(kh)
			ref.AddStaging(kh)
		}
		bank.Rotate()
		ref.Rotate()
		for i := 0; i < 4; i++ {
			p := rng.Uint64()
			if got, want := bank.Query(p), ref.Query(p); got != want {
				t.Fatalf("rotation %d: Query(%#x) = %#x, want %#x", rot, p, got, want)
			}
		}
	}
}

func TestFreshKeyFoundInNewestColumn(t *testing.T) {
	bank := NewBank(1<<12, 16, 4)
	bank.AddStaging(0xABCD)
	if !bank.QueryStaging(0xABCD) {
		t.Fatal("staging lost the key")
	}
	if bank.Query(0xABCD) != 0 {
		// Might be a false positive, but with an empty bank all columns
		// are zero, so this must be exact.
		t.Fatal("key visible in incarnations before rotation")
	}
	bank.Rotate()
	mask := bank.Query(0xABCD)
	if mask&(1<<15) == 0 {
		t.Fatalf("key not in newest column after rotation: mask %#x", mask)
	}
	if bank.QueryStaging(0xABCD) {
		t.Fatal("fresh staging column not empty (false positive impossible on empty filter)")
	}
}

func TestKeyAgesOutAfterKRotations(t *testing.T) {
	const k = 8
	bank := NewBank(1<<12, k, 4)
	bank.AddStaging(0x1234)
	bank.Rotate()
	for i := 0; i < k-1; i++ {
		if bank.Query(0x1234) == 0 {
			t.Fatalf("key lost after only %d of %d rotations", i+1, k)
		}
		bank.Rotate()
	}
	// One more rotation evicts it.
	bank.Rotate()
	if bank.Query(0x1234) != 0 {
		t.Fatal("key still visible after k+1 rotations (stale bits not retired)")
	}
}

func TestMaskOffsetsShiftWithRotation(t *testing.T) {
	const k = 16
	bank := NewBank(1<<12, k, 4)
	bank.AddStaging(7)
	bank.Rotate() // key now at offset k-1 (newest)
	for age := 1; age < k; age++ {
		bank.Rotate()
		mask := bank.Query(7)
		want := uint64(1) << (k - 1 - age)
		if mask&want == 0 {
			t.Fatalf("after %d rotations mask = %#x, want bit %d", age+1, mask, k-1-age)
		}
	}
}

func TestK64Boundary(t *testing.T) {
	bank := NewBank(512, 64, 3)
	bank.AddStaging(99)
	bank.Rotate()
	if mask := bank.Query(99); mask&(1<<63) == 0 {
		t.Fatalf("k=64: mask = %#x, want bit 63", mask)
	}
	for i := 0; i < 64; i++ {
		bank.Rotate()
	}
	if mask := bank.Query(99); mask != 0 {
		t.Fatalf("k=64: key survived 65 rotations: %#x", mask)
	}
}

func TestK1Boundary(t *testing.T) {
	bank := NewBank(128, 1, 2)
	bank.AddStaging(5)
	bank.Rotate()
	if bank.Query(5)&1 == 0 {
		t.Fatal("k=1: key not found")
	}
	bank.Rotate()
	if bank.Query(5) != 0 {
		t.Fatal("k=1: key survived eviction")
	}
}

func TestMatchOffsets(t *testing.T) {
	got := MatchOffsets(0b1010010, nil)
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("MatchOffsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatchOffsets = %v, want %v", got, want)
		}
	}
	if out := MatchOffsets(0, nil); len(out) != 0 {
		t.Fatal("MatchOffsets(0) should be empty")
	}
}

func TestAccessors(t *testing.T) {
	bank := NewBank(1000, 16, 5)
	if bank.K() != 16 || bank.Hashes() != 5 || bank.FilterBits() != 1000 {
		t.Fatal("accessors wrong")
	}
	if bank.MemoryBits() == 0 {
		t.Fatal("memory accounting missing")
	}
}

func TestMemoryBits(t *testing.T) {
	// The benchmark's shape: 4-byte slices plus the m-bit staging filter.
	const m = 131072
	if got, want := NewBank(m, 16, 22).MemoryBits(), uint64(m*32+m); got != want {
		t.Fatalf("MemoryBits = %d, want %d", got, want)
	}
	// A filter size that is not a multiple of 64 rounds the staging filter
	// up to whole words.
	if got, want := NewBank(1000, 16, 3).MemoryBits(), uint64(1000*32+16*64); got != want {
		t.Fatalf("MemoryBits(m=1000) = %d, want %d", got, want)
	}
}

// sliceLenFor is the slice size the package documents: the smallest of
// 32, 64 and 128 bits holding k live bits plus one 8-bit clearing chunk.
func sliceLenFor(k int) int {
	switch {
	case k <= 24:
		return 32
	case k <= 56:
		return 64
	}
	return 128
}

// boundaryKs are the incarnation counts at and around every slice-size
// boundary, plus both ends of the valid range.
var boundaryKs = []int{1, 15, 16, 23, 24, 25, 31, 32, 55, 56, 57, 63, 64}

func TestEquivalenceAcrossSliceSizes(t *testing.T) {
	// For every slice size, rotate at least 3·L times — so the window wraps
	// the ring repeatedly and every clearing chunk is vacated and reused —
	// with staging adds, staging queries and window queries interleaved
	// between rotations, and compare every answer with k+1 plain filters.
	for _, k := range boundaryKs {
		// A power of two takes DoubleHash's mask reduction, 960 its
		// fastrange reduction (the naive filters round m up to whole
		// words, so m stays a multiple of 64).
		for _, m := range []uint64{512, 960} {
			t.Run(fmt.Sprintf("k=%d/m=%d", k, m), func(t *testing.T) {
				bank := NewBank(m, k, 3)
				if got, want := bank.sliceLen, sliceLenFor(k); got != want {
					t.Fatalf("slice length %d bits, want %d", got, want)
				}
				ref := newNaive(m, k, 3)
				rng := rand.New(rand.NewSource(int64(k)))
				var keys []uint64
				check := func(rot int, p uint64) {
					t.Helper()
					if got, want := bank.Query(p), ref.Query(p); got != want {
						t.Fatalf("rotation %d: Query(%#x) = %#x, want %#x", rot, p, got, want)
					}
					if got, want := bank.QueryStaging(p), ref.QueryStaging(p); got != want {
						t.Fatalf("rotation %d: QueryStaging(%#x) = %v, want %v", rot, p, got, want)
					}
				}
				for rot := 0; rot < 3*bank.sliceLen+chunkBits; rot++ {
					for i := rng.Intn(12); i > 0; i-- {
						kh := rng.Uint64()
						keys = append(keys, kh)
						bank.AddStaging(kh)
						ref.AddStaging(kh)
						check(rot, keys[rng.Intn(len(keys))])
					}
					check(rot, rng.Uint64())
					bank.Rotate()
					ref.Rotate()
					for i := 0; i < 4 && len(keys) > 0; i++ {
						check(rot, keys[len(keys)-1-rng.Intn(min(len(keys), 40*k))])
					}
				}
			})
		}
	}
}

// FuzzBankEquivalence drives the bank and the naive reference through one
// op sequence and requires identical answers at every step. k, m (in
// 64-bit words) and h come from the first three inputs. Each op byte
// selects, by its low two bits, a rotation, a run of staging adds, a
// window query or a staging query; the remaining six bits size the run or
// pick the probed key.
func FuzzBankEquivalence(f *testing.F) {
	// A quarter of the ops rotate, so 1024 ops wrap even a 128-bit slice
	// twice, with about four adds between rotations.
	ops := make([]byte, 1024)
	rng := rand.New(rand.NewSource(1))
	rng.Read(ops)
	for _, k := range boundaryKs {
		f.Add(uint8(k), uint16(0), uint8(3), ops) // m = 64: dense filters
		f.Add(uint8(k), uint16(14), uint8(3), ops)
	}
	f.Add(uint8(16), uint16(1), uint8(22), ops)
	f.Fuzz(func(t *testing.T, kb uint8, mb uint16, hb uint8, ops []byte) {
		k := 1 + int(kb-1)%64
		m := 64 * (1 + uint64(mb)%64) // whole words, as the naive filters round
		h := 1 + int(hb)%24
		bank := NewBank(m, k, h)
		ref := newNaive(m, k, h)
		var added uint64
		for step, op := range ops {
			arg := uint64(op >> 2)
			switch op & 3 {
			case 0:
				bank.Rotate()
				ref.Rotate()
				continue
			case 1:
				for i := arg % 8; i < 8; i++ {
					added++
					kh := hashutil.Mix64(added)
					bank.AddStaging(kh)
					ref.AddStaging(kh)
				}
				continue
			}
			// Half the probes name one of the last 32 keys added, half a
			// key never added.
			p := hashutil.Mix64(added - arg/2%(added+1))
			if arg&1 == 1 {
				p = hashutil.Mix64(uint64(step) | 1<<62)
			}
			if op&3 == 2 {
				if got, want := bank.Query(p), ref.Query(p); got != want {
					t.Fatalf("k=%d m=%d h=%d step %d: Query(%#x) = %#x, want %#x", k, m, h, step, p, got, want)
				}
			} else if got, want := bank.QueryStaging(p), ref.QueryStaging(p); got != want {
				t.Fatalf("k=%d m=%d h=%d step %d: QueryStaging(%#x) = %v, want %v", k, m, h, step, p, got, want)
			}
		}
	})
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBank(0, 16, 4) },
		func() { NewBank(100, 0, 4) },
		func() { NewBank(100, 65, 4) },
		func() { NewBank(100, 16, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkBitslicedQuery(b *testing.B) {
	bank := NewBank(1<<16, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			bank.AddStaging(rng.Uint64())
		}
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkNaiveQuery(b *testing.B) {
	ref := newNaive(1<<16, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			ref.AddStaging(rng.Uint64())
		}
		ref.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkBankQueryFastrange exercises the non-power-of-two filter size,
// where DoubleHash reduces probes with Lemire fastrange instead of %; the
// power-of-two BenchmarkBitslicedQuery above takes the mask path.
func BenchmarkBankQueryFastrange(b *testing.B) {
	bank := NewBank(65521, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		for j := 0; j < 4096; j++ {
			bank.AddStaging(rng.Uint64())
		}
		bank.Rotate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Query(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// The store benchmark's shape: 32 super tables, each a bank of k = 16
// incarnations of m = 2^17 bits with h = 22 hashes, about m/32 keys per
// incarnation.
const (
	shapeBanks = 32
	shapeM     = 1 << 17
	shapeK     = 16
	shapeH     = 22
	shapeKeys  = shapeM / 32
)

// shapeKey is the i-th key the shape benchmarks insert.
func shapeKey(i int) uint64 { return hashutil.Mix64(uint64(i) + 1) }

// fullShape returns the 32 banks with every incarnation column filled.
func fullShape() []*Bank {
	banks := make([]*Bank, shapeBanks)
	i := 0
	for bi := range banks {
		banks[bi] = NewBank(shapeM, shapeK, shapeH)
		for inc := 0; inc < shapeK; inc++ {
			for j := 0; j < shapeKeys; j++ {
				banks[bi].AddStaging(shapeKey(i))
				i++
			}
			banks[bi].Rotate()
		}
	}
	return banks
}

func BenchmarkAddStaging(b *testing.B) {
	banks := make([]*Bank, shapeBanks)
	for i := range banks {
		banks[i] = NewBank(shapeM, shapeK, shapeH)
	}
	for i := 0; b.Loop(); i++ {
		banks[i%shapeBanks].AddStaging(shapeKey(i))
	}
}

func BenchmarkQuery(b *testing.B) {
	banks := fullShape()
	b.Run("hit", func(b *testing.B) {
		// Key i of fullShape went into bank i/(k·keys).
		n := shapeBanks * shapeK * shapeKeys
		for i := 0; b.Loop(); i++ {
			j := int(hashutil.Mix64(uint64(i)) % uint64(n))
			if banks[j/(shapeK*shapeKeys)].Query(shapeKey(j)) == 0 {
				b.Fatal("inserted key missing")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			banks[i%shapeBanks].Query(shapeKey(-1 - i))
		}
	})
}

// BenchmarkRotate folds a staging filter holding one incarnation's keys
// into the slices; each iteration first restores that filter (a 16 KB
// copy).
func BenchmarkRotate(b *testing.B) {
	banks := make([]*Bank, shapeBanks)
	for i := range banks {
		banks[i] = NewBank(shapeM, shapeK, shapeH)
	}
	for j := 0; j < shapeKeys; j++ {
		banks[0].AddStaging(shapeKey(j))
	}
	filled := append([]uint64(nil), banks[0].staging...)
	for i := 0; b.Loop(); i++ {
		bank := banks[i%shapeBanks]
		copy(bank.staging, filled)
		bank.Rotate()
	}
}
