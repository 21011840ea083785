package bloom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1<<16, 4)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %#x", k)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	f := New(1<<12, 5)
	property := func(keys []uint64) bool {
		f.Reset()
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.MayContain(k) {
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
	// 16 bits/key with optimal h=11 gives fp ≈ 0.00046; measure it.
	const n = 4096
	m := uint64(16 * n)
	h := OptimalHashes(m, n)
	f := New(m, h)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		f.Add(rng.Uint64())
	}
	const probes = 200000
	fp := 0
	for i := 0; i < probes; i++ {
		if f.MayContain(rng.Uint64()) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := FalsePositiveRate(m, n, h)
	t.Logf("measured fp = %.6f, theory = %.6f (h=%d)", got, want, h)
	if got > 5*want+0.001 {
		t.Errorf("measured fp %.6f far above theoretical %.6f", got, want)
	}
}

func TestOptimalHashes(t *testing.T) {
	// m/n = 16 bits/key -> h = 16·ln2 ≈ 11.
	if h := OptimalHashes(16*4096, 4096); h != 11 {
		t.Fatalf("OptimalHashes = %d, want 11", h)
	}
	if h := OptimalHashes(100, 0); h != 1 {
		t.Fatalf("OptimalHashes with n=0 = %d, want 1", h)
	}
	if h := OptimalHashes(1, 1000000); h != 1 {
		t.Fatalf("OptimalHashes should clamp to 1, got %d", h)
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	// (1/2)^h when m/n = h/ln2 (the paper's p = (1/2)^h, §6.2).
	n := 1000
	h := 7
	m := uint64(math.Round(float64(h) * float64(n) / math.Ln2))
	got := FalsePositiveRate(m, n, h)
	want := math.Pow(0.5, float64(h))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("fp rate = %g, want ≈ %g", got, want)
	}
	if FalsePositiveRate(0, 10, 2) != 0 || FalsePositiveRate(100, 0, 2) != 0 {
		t.Fatal("degenerate cases should be 0")
	}
}

func TestReset(t *testing.T) {
	f := New(1024, 3)
	f.Add(42)
	f.Reset()
	for i, w := range f.bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after Reset", i, w)
		}
	}
	if f.MayContain(42) {
		t.Fatal("filter not cleared")
	}
}

func TestSizeRounding(t *testing.T) {
	f := New(100, 2) // rounds to 128
	if f.m != 128 || len(f.bits) != 2 {
		t.Fatalf("m = %d over %d words, want 128 over 2", f.m, len(f.bits))
	}
	if f.h != 2 {
		t.Fatalf("h = %d", f.h)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { New(64, 0) },
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

func TestEstimatedFPRateGrowsWithFill(t *testing.T) {
	// The expected rate at a 1024-bit, 4-hash filter's fill never falls as
	// keys are added.
	prev := FalsePositiveRate(1024, 0, 4)
	for n := 1; n <= 100; n++ {
		cur := FalsePositiveRate(1024, n, 4)
		if cur < prev {
			t.Fatal("estimated fp rate decreased with fill")
		}
		prev = cur
	}
}

func TestDistinctKeysHashDistinctly(t *testing.T) {
	// Guard against a degenerate interaction with hashutil.Mix64: two
	// sequential keys should not probe identical positions.
	f := New(1<<14, 8)
	f.Add(hashutil.Mix64(1))
	if f.MayContain(hashutil.Mix64(2)) {
		t.Skip("coincidental collision (acceptable at fp rate)")
	}
}

// mayContainMod is the pre-fastrange probe loop, the baseline for
// BenchmarkMayContain* (the filters probe identical bit patterns only for
// power-of-two m, where Reduce degenerates to the same mask).
func (f *Filter) mayContainMod(keyHash uint64) bool {
	h1 := keyHash
	h2 := hashutil.Mix64(keyHash) | 1
	for i := 0; i < f.h; i++ {
		p := h1 % f.m
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

func benchFilter(m uint64) *Filter {
	f := New(m, 8)
	for i := uint64(0); i < 4096; i++ {
		f.Add(hashutil.Mix64(i))
	}
	return f
}

func BenchmarkMayContain(b *testing.B) {
	f := benchFilter(65600) // non-power-of-two: fastrange path
	var hits int
	for i := 0; i < b.N; i++ {
		if f.MayContain(hashutil.Mix64(uint64(i))) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkMayContainMod(b *testing.B) {
	f := benchFilter(65600)
	var hits int
	for i := 0; i < b.N; i++ {
		if f.mayContainMod(hashutil.Mix64(uint64(i))) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkMayContainPow2(b *testing.B) {
	f := benchFilter(1 << 16) // mask path
	var hits int
	for i := 0; i < b.N; i++ {
		if f.MayContain(hashutil.Mix64(uint64(i))) {
			hits++
		}
	}
	_ = hits
}
