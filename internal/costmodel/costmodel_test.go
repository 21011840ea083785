package costmodel

import (
	"math"
	"testing"
	"time"
)

const (
	gb = int64(1) << 30
	s  = 32.0 // effective bytes per entry (16 B at 50% utilization, §7.1.1)
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestOptimalBufferMatchesPaper(t *testing.T) {
	// §6.4: B_opt = F/(s·ln²2) ≈ 2F/s with all sizes in bits, i.e.
	// F/(8·s·ln²2) bytes. §7.1.1 states the analytic optimum for the
	// 32 GB / 16 B-entry configuration is 266 MB.
	f := 32 * gb
	got := OptimalBufferBytes(f, s)
	wantMB := 266.0
	gotMB := float64(got) / (1 << 20)
	if math.Abs(gotMB-wantMB)/wantMB > 0.05 {
		t.Fatalf("B_opt = %.0f MB, want ≈ %.0f MB (§7.1.1)", gotMB, wantMB)
	}
	// And the "≈ 2F/s bits" phrasing.
	approxBits := 2 * float64(f) / s
	if math.Abs(float64(got)*8-approxBits)/approxBits > 0.05 {
		t.Fatalf("B_opt = %d bits, want ≈ 2F/s = %g bits", got*8, approxBits)
	}
}

func TestBoptMinimizesLookupCost(t *testing.T) {
	// The analytic optimum must beat nearby allocations under a fixed
	// total memory budget M (splitting M between buffers and filters).
	f := 32 * gb
	m := 4 * gb
	cr := PageReadCost(IntelSSDCosts())
	bOpt := OptimalBufferBytes(f, s)
	cost := func(b int64) time.Duration {
		return LookupCost(f, b, m-b, s, cr)
	}
	c0 := cost(bOpt)
	for _, factor := range []float64{0.25, 0.5, 2, 4} {
		b := int64(float64(bOpt) * factor)
		if cost(b) < c0 {
			t.Errorf("allocation %.2f×B_opt beats B_opt: %v < %v", factor, cost(b), c0)
		}
	}
}

func TestLookupCostMonotonicInBloom(t *testing.T) {
	f := 32 * gb
	cr := PageReadCost(IntelSSDCosts())
	bOpt := OptimalBufferBytes(f, s)
	prev := time.Duration(math.MaxInt64)
	for _, bloomMB := range []int64{10, 100, 1000, 10000} {
		c := LookupCost(f, bOpt, bloomMB<<20, s, cr)
		if c > prev {
			t.Fatalf("lookup cost not decreasing at %d MB", bloomMB)
		}
		prev = c
	}
}

func TestPaperFigure3Claim(t *testing.T) {
	// §6.4: "for BufferHash with 32GB flash and 16 bytes per entry
	// (effective 32 bytes at 50% utilization), allocating 1GB for all
	// Bloom filters is sufficient to limit the expected I/O overhead
	// below 1ms."
	f := 32 * gb
	cr := PageReadCost(IntelSSDCosts())
	c := LookupCost(f, OptimalBufferBytes(f, s), 1*gb, s, cr)
	if ms(c) >= 1.0 {
		t.Fatalf("1GB of filters gives %.3f ms overhead, paper says <1ms", ms(c))
	}
	// And far less memory does not suffice.
	c = LookupCost(f, OptimalBufferBytes(f, s), 100<<20, s, cr)
	if ms(c) < 1.0 {
		t.Fatalf("100MB of filters already gives %.3f ms: curve too flat", ms(c))
	}
}

func TestRequiredBloomBytesInvertsLookupCost(t *testing.T) {
	f := 64 * gb
	cr := PageReadCost(IntelSSDCosts())
	for _, targetMs := range []float64{0.1, 0.5, 1, 5} {
		target := time.Duration(targetMs * float64(time.Millisecond))
		b := RequiredBloomBytes(f, s, cr, target)
		if b <= 0 {
			t.Fatalf("target %.1f ms: no bloom required?", targetMs)
		}
		got := LookupCost(f, OptimalBufferBytes(f, s), b, s, cr)
		if got > target+target/20 {
			t.Errorf("target %v: %d bytes give %v", target, b, got)
		}
	}
	// At B_opt, k = 8·s·ln²2 ≈ 123 incarnations; k·c_r ≈ 19 ms, so only
	// targets above that need no filters.
	// A target above k·cr (no filters needed at all) returns 0.
	if b := RequiredBloomBytes(f, s, cr, time.Hour); b != 0 {
		t.Errorf("huge target should need 0 bloom bytes, got %d", b)
	}
}

func TestRequiredBloomPanicsOnZeroTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RequiredBloomBytes(gb, s, time.Millisecond, 0)
}

func TestFlushCostChipDecomposition(t *testing.T) {
	fc := ChipCosts()
	// Block-sized buffer (128 KB): C1 = write, C2 = full erase, C3 = 0.
	ic := FlushCost(fc, 128<<10)
	if ic.C3 != 0 {
		t.Fatalf("block-aligned buffer has C3 = %v", ic.C3)
	}
	if ic.C2 != fc.EraseFixed {
		t.Fatalf("C2 = %v, want full erase %v", ic.C2, fc.EraseFixed)
	}
	// Sub-block buffer (2 KB = 1 page): C2 scaled by ni/nb, C3 = copying
	// 63 pages.
	ic = FlushCost(fc, 2048)
	if ic.C3 == 0 {
		t.Fatal("sub-block buffer must pay C3 copying")
	}
	if ic.C2 >= fc.EraseFixed {
		t.Fatalf("C2 = %v not scaled down for sub-block buffer", ic.C2)
	}
	// Multi-block buffer (256 KB): no copying, two blocks erased.
	ic = FlushCost(fc, 256<<10)
	if ic.C3 != 0 {
		t.Fatalf("multi-block C3 = %v", ic.C3)
	}
}

func TestAmortizedInsertInverseInBufferSize(t *testing.T) {
	// §6.1: amortized cost is inversely proportional to B′ (for SSDs,
	// where C2=C3=0 and the per-byte term dominates at large B′).
	fc := IntelSSDCosts()
	a1 := AmortizedInsert(fc, 64<<10, s)
	a2 := AmortizedInsert(fc, 512<<10, s)
	if a2 >= a1 {
		t.Fatalf("amortized cost not decreasing: %v -> %v", a1, a2)
	}
}

func TestFigure4ChipOptimumAtBlockSize(t *testing.T) {
	// §6.4: "for the flash chip, both amortized and worst-case cost
	// minimize when the buffer size B′ matches the flash block size."
	// In the linear model the amortized curve flattens past the block
	// size (fixed costs amortize away); the operative claims are that
	// sub-block buffers are strictly worse (C3 copying + scaled C2) and
	// the block-size point is within a whisker of the global minimum.
	fc := ChipCosts()
	curve := Figure4Curve(fc, s, 4<<20, false, 200)
	best := ArgminBuffer(curve)
	atBlock := AmortizedInsert(fc, 128<<10, s)
	if float64(atBlock) > 1.3*float64(best.Cost) {
		t.Fatalf("block-size amortized cost %v far above minimum %v (at %.0f KB)",
			atBlock, best.Cost, best.X/1024)
	}
	subBlock := AmortizedInsert(fc, 8<<10, s)
	if float64(subBlock) < 1.5*float64(atBlock) {
		t.Fatalf("sub-block buffer (8KB: %v) not clearly worse than block-size (%v)", subBlock, atBlock)
	}
	// Worst-case cost is minimized at or below the block size and grows
	// linearly beyond it (Figure 4b).
	worstCurve := Figure4Curve(fc, s, 4<<20, true, 200)
	bestW := ArgminBuffer(worstCurve)
	if bestW.X > 256<<10 {
		t.Fatalf("worst-case optimum at %.0f KB, want ≤ block size", bestW.X/1024)
	}
	if WorstInsert(fc, 1<<20) <= WorstInsert(fc, 128<<10) {
		t.Fatal("worst-case cost should grow past the block size")
	}
}

func TestFigure4SSDTradeoff(t *testing.T) {
	// §6.4 (Figure 4c,d): on SSDs a larger buffer reduces average latency
	// but increases worst-case latency.
	fc := IntelSSDCosts()
	avg := Figure4Curve(fc, s, 16<<20, false, 100)
	if avg[0].Cost <= avg[len(avg)-1].Cost {
		t.Fatal("SSD amortized cost should fall with buffer size")
	}
	worst := Figure4Curve(fc, s, 16<<20, true, 100)
	if worst[0].Cost >= worst[len(worst)-1].Cost {
		t.Fatal("SSD worst-case cost should grow with buffer size")
	}
}

func TestFigure3CurveShape(t *testing.T) {
	// Figure 3's x-axis: 50 filter sizes log-spaced from 10 MB to 10 GB,
	// with the buffer held at B_opt.
	cr := PageReadCost(IntelSSDCosts())
	curve := func(flash int64) []time.Duration {
		bOpt := OptimalBufferBytes(flash, s)
		lo, hi := math.Log10(10e6), math.Log10(10e9)
		out := make([]time.Duration, 50)
		for i := range out {
			bloom := math.Pow(10, lo+(hi-lo)*float64(i)/49)
			out[i] = LookupCost(flash, bOpt, int64(bloom), s, cr)
		}
		return out
	}
	c32 := curve(32 * gb)
	for i := 1; i < len(c32); i++ {
		if c32[i] > c32[i-1] {
			t.Fatalf("overhead increased at point %d", i)
		}
	}
	// Bigger flash needs more filter bits for the same overhead (the
	// F=64GB curve lies above the F=32GB curve, as in Figure 3).
	c64 := curve(64 * gb)
	for i := range c32 {
		if c64[i] < c32[i] {
			t.Fatalf("64GB curve below 32GB curve at %d", i)
		}
	}
}

func TestWorstInsertMatchesPaperScale(t *testing.T) {
	// Paper §7.2.1: worst-case insert (buffer flush) ≈ 2.72 ms on Intel.
	w := WorstInsert(IntelSSDCosts(), 128<<10)
	if ms(w) < 1.5 || ms(w) > 3.5 {
		t.Fatalf("worst insert = %.2f ms, want ≈2.5", ms(w))
	}
	// Amortized over 4096 entries ⇒ microseconds (paper: 0.006 ms incl.
	// CPU costs; pure I/O share is smaller).
	a := AmortizedInsert(IntelSSDCosts(), 128<<10, s)
	if a > 3*time.Microsecond {
		t.Fatalf("amortized insert I/O = %v, want ≤ 3µs", a)
	}
}

func TestPageReadCost(t *testing.T) {
	if c := PageReadCost(ChipCosts()); ms(c) < 0.2 || ms(c) > 0.3 {
		t.Fatalf("chip page read = %.3f ms, want ≈0.24 (Table 2)", ms(c))
	}
	if c := PageReadCost(IntelSSDCosts()); ms(c) < 0.1 || ms(c) > 0.2 {
		t.Fatalf("intel sector read = %.3f ms, want ≈0.15", ms(c))
	}
}

func TestLookupCostDegenerate(t *testing.T) {
	if LookupCost(0, 1, 1, s, time.Millisecond) != 0 {
		t.Fatal("zero flash should cost 0")
	}
	if LookupCost(gb, 0, 1, s, time.Millisecond) != 0 {
		t.Fatal("zero buffer should cost 0")
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
