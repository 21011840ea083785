package bitslice

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/hashutil"
)

// filter is a plain Bloom filter of m bits over pre-hashed 64-bit keys:
// the organization the bank must answer like, one filter per column. It
// probes the bank's row sequence bit by bit.
type filter struct {
	bits []uint64
	m    uint64
	h    int
}

func newFilter(m uint64, h int) *filter {
	return &filter{bits: make([]uint64, (m+63)/64), m: m, h: h}
}

func (f *filter) Add(keyHash uint64) {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for range f.h {
		p := hashutil.Reduce(h1, f.m)
		f.bits[p/64] |= 1 << (p % 64)
		h1 += h2
	}
}

func (f *filter) MayContain(keyHash uint64) bool {
	h1, h2 := keyHash, hashutil.Mix64(keyHash)|1
	for range f.h {
		p := hashutil.Reduce(h1, f.m)
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// naiveBank is the straightforward implementation the bit-sliced bank must
// be equivalent to: k+1 separate Bloom filters rotated on eviction.
type naiveBank struct {
	k       int
	filters []*filter // len k, oldest first; nil = empty column
	staging *filter
	m       uint64
	h       int
}

func newNaive(m uint64, k, h int) *naiveBank {
	return &naiveBank{k: k, filters: make([]*filter, k), staging: newFilter(m, h), m: m, h: h}
}

func (n *naiveBank) AddStaging(kh uint64)        { n.staging.Add(kh) }
func (n *naiveBank) QueryStaging(kh uint64) bool { return n.staging.MayContain(kh) }

func (n *naiveBank) Rotate() {
	copy(n.filters, n.filters[1:])
	n.filters[n.k-1] = n.staging
	n.staging = newFilter(n.m, n.h)
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

// newestColumn fills a fresh bank's staging filter with keys and rotates
// it into the newest incarnation column, whose window offset it returns.
func newestColumn(bank *Bank, keys []uint64) uint64 {
	for _, kh := range keys {
		bank.AddStaging(kh)
	}
	bank.Rotate()
	return 1 << (bank.k - 1)
}

// queryMask is Query's incarnation mask alone.
func queryMask(b *Bank, kh uint64) uint64 {
	mask, _ := b.Query(kh)
	return mask
}

// requireNaive fails unless both of the bank's answers for p equal the
// naive reference's: the mask its k incarnation filters give, and its
// staging filter's.
func requireNaive(t *testing.T, bank *Bank, ref *naiveBank, what string, p uint64) {
	t.Helper()
	mask, staged := bank.Query(p)
	if want := ref.Query(p); mask != want {
		t.Fatalf("%s: Query(%#x) mask = %#x, want %#x", what, p, mask, want)
	}
	if want := ref.QueryStaging(p); staged != want {
		t.Fatalf("%s: Query(%#x) staged = %v, want %v", what, p, staged, want)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	bank := NewBank(1<<16, 16, 4)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	newest := newestColumn(bank, keys)
	for _, k := range keys {
		if queryMask(bank, k)&newest == 0 {
			t.Fatalf("false negative for %#x", k)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	property := func(keys []uint64) bool {
		bank := NewBank(1<<12, 16, 5)
		for _, k := range keys {
			bank.AddStaging(k)
			if _, staged := bank.Query(k); !staged {
				return false
			}
		}
		newest := newestColumn(bank, nil)
		for _, k := range keys {
			if queryMask(bank, k)&newest == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateMatchesTheory(t *testing.T) {
	// One incarnation column at 16 bits/key with the optimal h = 11: §6.2
	// predicts fp ≈ 0.00046 per column; measure it.
	const n = 4096
	m := uint64(16 * n)
	h := costmodel.OptimalHashes(m, n)
	bank := NewBank(m, 16, h)
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	newest := newestColumn(bank, keys)
	const probes = 200000
	fp := 0
	for i := 0; i < probes; i++ {
		if queryMask(bank, rng.Uint64())&newest != 0 {
			fp++
		}
	}
	got := float64(fp) / probes
	want := costmodel.FalsePositiveRate(m, n, h)
	t.Logf("measured fp = %.6f, theory = %.6f (h=%d)", got, want, h)
	if got > 5*want+0.001 {
		t.Errorf("measured fp %.6f far above theoretical %.6f", got, want)
	}
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
				requireNaive(t, bank, ref, fmt.Sprintf("seed %d step %d", seed, step), p)
			}
		}
	}
}

func TestLongRotationWrapsWindow(t *testing.T) {
	// Rotate far more times than the slice length to exercise wrap-around
	// and, at L = k, the rewrite of the column just evicted, verifying
	// equivalence throughout.
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
			requireNaive(t, bank, ref, fmt.Sprintf("rotation %d", rot), rng.Uint64())
		}
	}
}

func TestFreshKeyFoundInNewestColumn(t *testing.T) {
	bank := NewBank(1<<12, 16, 4)
	bank.AddStaging(0xABCD)
	mask, staged := bank.Query(0xABCD)
	if !staged {
		t.Fatal("staging lost the key")
	}
	if mask != 0 {
		// Might be a false positive, but with an empty bank all columns
		// are zero, so this must be exact.
		t.Fatal("key visible in incarnations before rotation")
	}
	bank.Rotate()
	mask, staged = bank.Query(0xABCD)
	if mask&(1<<15) == 0 {
		t.Fatalf("key not in newest column after rotation: mask %#x", mask)
	}
	if staged {
		t.Fatal("fresh staging column not empty (false positive impossible on empty filter)")
	}
}

func TestKeyAgesOutAfterKRotations(t *testing.T) {
	const k = 8
	bank := NewBank(1<<12, k, 4)
	bank.AddStaging(0x1234)
	bank.Rotate()
	for i := 0; i < k-1; i++ {
		if queryMask(bank, 0x1234) == 0 {
			t.Fatalf("key lost after only %d of %d rotations", i+1, k)
		}
		bank.Rotate()
	}
	// One more rotation evicts it.
	bank.Rotate()
	if queryMask(bank, 0x1234) != 0 {
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
		mask := queryMask(bank, 7)
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
	if mask := queryMask(bank, 99); mask&(1<<63) == 0 {
		t.Fatalf("k=64: mask = %#x, want bit 63", mask)
	}
	for i := 0; i < 64; i++ {
		bank.Rotate()
	}
	if mask := queryMask(bank, 99); mask != 0 {
		t.Fatalf("k=64: key survived 65 rotations: %#x", mask)
	}
}

func TestK1Boundary(t *testing.T) {
	bank := NewBank(128, 1, 2)
	bank.AddStaging(5)
	bank.Rotate()
	if queryMask(bank, 5)&1 == 0 {
		t.Fatal("k=1: key not found")
	}
	bank.Rotate()
	if queryMask(bank, 5) != 0 {
		t.Fatal("k=1: key survived eviction")
	}
}

func TestAccessors(t *testing.T) {
	bank := NewBank(1000, 16, 5)
	if bank.k != 16 || bank.h != 5 || bank.m != 1000 {
		t.Fatal("accessors wrong")
	}
	if bank.MemoryBits() == 0 {
		t.Fatal("memory accounting missing")
	}
}

func TestMemoryBits(t *testing.T) {
	// L·m bits of slices plus the m-bit staging filter, at every slice
	// width. The benchmark's shape, k = 16 and m = 2^17, takes 2-byte
	// slices: 17·m bits. A filter size that is not a multiple of 64 rounds
	// only the staging filter up to whole words.
	for _, k := range boundaryKs {
		L := uint64(sliceLenFor(k))
		for _, c := range []struct{ m, staging uint64 }{{131072, 131072}, {1000, 16 * 64}} {
			if got, want := NewBank(c.m, k, 22).MemoryBits(), L*c.m+c.staging; got != want {
				t.Fatalf("k=%d m=%d: MemoryBits = %d, want %d", k, c.m, got, want)
			}
		}
	}
}

// sliceLenFor is the slice size the package documents: the smallest of
// 8, 16, 32 and 64 bits holding the k live bits.
func sliceLenFor(k int) int {
	switch {
	case k <= 8:
		return 8
	case k <= 16:
		return 16
	case k <= 32:
		return 32
	}
	return 64
}

// boundaryKs are the incarnation counts at and around every slice-size
// boundary, plus both ends of the valid range. At k = 8, 16, 32 and 64
// the window fills the slice (L = k), so each rotation rewrites the
// column it just evicted.
var boundaryKs = []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64}

// midKs are incarnation counts inside the 32- and 64-bit ranges, where
// the window leaves 7 to 9 stale columns.
var midKs = []int{23, 24, 25, 55, 56, 57}

func TestEquivalenceAcrossSliceSizes(t *testing.T) {
	// For every slice size, rotate more than 3·L times — so the window
	// wraps the ring repeatedly and every column is rewritten over stale
	// bits — with staging adds, staging queries and window queries
	// interleaved between rotations, and compare every answer with k+1
	// plain filters.
	for _, k := range slices.Concat(boundaryKs, midKs) {
		// A power of two takes Reduce's mask, 960 and 1000 its fastrange
		// reduction; 1000 is not a multiple of 64, so Rotate's last staging
		// word covers a partial group of slices. h = 3 is shorter than one
		// of Query's row groups; h = 9 is two groups and a remainder row.
		for _, c := range []struct {
			m uint64
			h int
		}{{512, 3}, {960, 3}, {1000, 3}, {512, 9}, {960, 9}, {1000, 9}} {
			m, h := c.m, c.h
			name := fmt.Sprintf("k=%d/m=%d", k, m)
			if h != 3 {
				name += fmt.Sprintf("/h=%d", h)
			}
			t.Run(name, func(t *testing.T) {
				bank := NewBank(m, k, h)
				if got, want := bank.sliceLen, sliceLenFor(k); got != want {
					t.Fatalf("slice length %d bits, want %d", got, want)
				}
				ref := newNaive(m, k, h)
				rng := rand.New(rand.NewSource(int64(k)))
				var keys []uint64
				check := func(rot int, p uint64) {
					t.Helper()
					requireNaive(t, bank, ref, fmt.Sprintf("rotation %d", rot), p)
				}
				for rot := 0; rot < 3*bank.sliceLen+k; rot++ {
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
// op sequence and requires identical answers at every step. k, m and h
// come from the first three inputs: m is 1 to 64 whole 64-bit words, less
// mb/64 mod 64 bits, so mb ≥ 64 leaves a partial last word. Each op byte
// selects, by its low two bits, a rotation, a run of staging adds, or (two
// codes of four) a query, whose incarnation mask must equal the reference's
// k filters' and whose staging answer its staging filter's; the remaining
// six bits size the run or pick the probed key.
func FuzzBankEquivalence(f *testing.F) {
	// A quarter of the ops rotate, so 1024 ops wrap even a 64-bit slice
	// four times, with about four adds between rotations.
	ops := make([]byte, 1024)
	rng := rand.New(rand.NewSource(1))
	rng.Read(ops)
	for _, k := range boundaryKs {
		f.Add(uint8(k), uint16(0), uint8(3), ops) // m = 64: dense filters
		f.Add(uint8(k), uint16(14), uint8(3), ops)
	}
	f.Add(uint8(16), uint16(1), uint8(22), ops)
	// Filter sizes that are not a power of two (m = 192 and 960 bits, the
	// fastrange reduction, and 923, a partial last word) with row counts
	// that are not a multiple of Query's row group, on every slice width,
	// each where the window fills the slice (L = k) and where it leaves
	// stale columns (L > k).
	for _, k := range []int{7, 8, 9, 16, 17, 32, 33, 57, 64} {
		f.Add(uint8(k), uint16(2), uint8(22), ops)
		f.Add(uint8(k), uint16(14), uint8(7), ops)
		f.Add(uint8(k), uint16(37<<6|14), uint8(7), ops) // m = 923
	}
	f.Fuzz(func(t *testing.T, kb uint8, mb uint16, hb uint8, ops []byte) {
		k := 1 + int(kb-1)%64
		m := 64*(1+uint64(mb)%64) - uint64(mb)/64%64
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
			requireNaive(t, bank, ref, fmt.Sprintf("k=%d m=%d h=%d step %d", k, m, h, step), p)
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
// where Reduce maps probes with Lemire fastrange instead of %; the
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

// fullShape returns the 32 banks with every incarnation column filled and
// each staging filter half full, as a buffer is on average.
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
	for bi := range banks {
		for range shapeKeys / 2 {
			banks[bi].AddStaging(shapeKey(i))
			i++
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
			if queryMask(banks[j/(shapeK*shapeKeys)], shapeKey(j)) == 0 {
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

// BenchmarkBankQuery is the lookup pipeline's phase-A Bloom work in
// isolation: a 4096-key query loop over the store shape's 32 warmed banks,
// with the mix a warmed get-batch-zipf store sees — two keys in five were
// inserted into some incarnation of their bank, the rest never were. It
// reports ns/key.
func BenchmarkBankQuery(b *testing.B) {
	banks := fullShape()
	type probe struct {
		bank *Bank
		key  uint64
	}
	probes := make([]probe, 4096)
	n := shapeBanks * shapeK * shapeKeys
	for i := range probes {
		if i%5 < 2 {
			j := int(hashutil.Mix64(uint64(i)) % uint64(n))
			probes[i] = probe{banks[j/(shapeK*shapeKeys)], shapeKey(j)}
		} else {
			probes[i] = probe{banks[i%shapeBanks], shapeKey(-1 - i)}
		}
	}
	var hits int
	for b.Loop() {
		for _, p := range probes {
			if mask, _ := p.bank.Query(p.key); mask != 0 {
				hits++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/key")
	if hits == 0 {
		b.Fatal("no probe matched")
	}
}
