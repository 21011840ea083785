package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if pts := h.CDF(); len(pts) != 0 {
		t.Fatalf("empty CDF has %d points", len(pts))
	}
}

func TestBasicStats(t *testing.T) {
	var h Histogram
	for _, ms := range []int{1, 2, 3, 4, 5} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v, want 3ms", h.Mean())
	}
	if s := h.Summarize(); s.Min != time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if s := h.Summarize(); s.Min != 0 || s.Max != 0 {
		t.Fatalf("negative sample not clamped: min=%v max=%v", s.Min, s.Max)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Quantiles of a known uniform distribution must be within the ~5%
	// bucket resolution.
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		rel := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if rel > 0.10 {
			t.Errorf("Quantile(%.2f) = %v, exact %v, rel err %.3f", q, got, exact, rel)
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	if h.Quantile(0) != time.Millisecond {
		t.Fatalf("Quantile(0) = %v", h.Quantile(0))
	}
	if h.Quantile(1) != time.Second {
		t.Fatalf("Quantile(1) = %v", h.Quantile(1))
	}
}

func TestCDFMonotonic(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.ExpFloat64() * float64(time.Millisecond)))
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction < pts[i-1].Fraction || pts[i].Latency < pts[i-1].Latency {
			t.Fatalf("CDF not monotonic at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1].Fraction; math.Abs(last-1.0) > 1e-9 {
		t.Fatalf("CDF does not reach 1.0: %f", last)
	}
}

func TestCCDFComplement(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	cdf, ccdf := h.CDF(), h.CCDF()
	if len(cdf) != len(ccdf) {
		t.Fatalf("point count mismatch: %d vs %d", len(cdf), len(ccdf))
	}
	for i := range cdf {
		if math.Abs(cdf[i].Fraction+ccdf[i].Fraction-1.0) > 1e-9 {
			t.Fatalf("CDF+CCDF != 1 at %d", i)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	b.Observe(5 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("Count = %d, want 3", a.Count())
	}
	if a.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v, want 3ms", a.Mean())
	}
	if s := a.Summarize(); s.Min != time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("Min/Max wrong after merge: %v/%v", s.Min, s.Max)
	}
}

func TestMergeEmpty(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	a.Merge(&b) // no-op
	if a.Count() != 1 {
		t.Fatal("merging empty histogram changed count")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Summarize().Min != time.Millisecond {
		t.Fatal("merging into empty histogram lost stats")
	}
}

func TestReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1000 * time.Hour) // beyond the bucket range
	if h.Count() != 1 {
		t.Fatal("overflow sample dropped")
	}
	if h.Quantile(0.5) != 1000*time.Hour {
		// Quantile clamps to max.
		t.Fatalf("Quantile(0.5) = %v", h.Quantile(0.5))
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Summarize()
	if s.Count != 1 {
		t.Fatalf("Count = %d", s.Count)
	}
	if str := s.String(); str == "" {
		t.Fatal("empty summary string")
	}
}

func TestMs(t *testing.T) {
	if Ms(1500*time.Microsecond) != 1.5 {
		t.Fatalf("Ms(1.5ms) = %f", Ms(1500*time.Microsecond))
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for d := time.Duration(1); d < 10*time.Second; d = d*3/2 + 1 {
		i := bucketIndex(d)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %v", d)
		}
		prev = i
	}
}

// TestBucketIndexMatchesLog checks the table-driven bucketIndex against
// its definition, logIndex: at every bucket boundary and one either side
// (which, bucketIndex being a step function of the key, covers every key
// whose range holds a boundary), on random durations of every bit length,
// and at zero, negative and overflow values.
func TestBucketIndexMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketIndex(d), logIndex(d); got != want {
			t.Fatalf("bucketIndex(%d) = %d, logIndex = %d", d, got, want)
		}
	}
	for i := 1; i < len(bucketLo); i++ {
		if logIndex(bucketLo[i]) < i || logIndex(bucketLo[i]-1) >= i {
			t.Fatalf("bucketLo[%d] = %d is not the least duration of bucket %d or higher", i, bucketLo[i], i)
		}
		for d := bucketLo[i] - 1; d <= bucketLo[i]+1; d++ {
			check(d)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for l := 1; l < 64; l++ {
		for range 2000 {
			check(time.Duration(1<<(l-1) | rng.Int63n(1<<(l-1))))
		}
	}
	for _, d := range []time.Duration{
		math.MinInt64, -time.Second, -1, 0, 1, bucketMin - 1, bucketMin,
		bucketLo[numBuckets+1] - 1, bucketLo[numBuckets+1], 1000 * time.Hour, math.MaxInt64,
	} {
		check(d)
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets+1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want the overflow bucket %d", got, numBuckets+1)
	}
}

// BenchmarkBucketIndex maps a spread of microsecond-to-millisecond
// latencies, the range the stores' histograms record, to their buckets.
func BenchmarkBucketIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := make([]time.Duration, 1024)
	for i := range ds {
		ds[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	}
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += bucketIndex(ds[i&(len(ds)-1)])
	}
	sink = sum
}

var sink int

func TestMergedAggregatesShardHistograms(t *testing.T) {
	// Three "shards" with disjoint latency ranges; the merged distribution
	// must match a single histogram fed all samples.
	var want Histogram
	parts := make([]*Histogram, 3)
	rng := rand.New(rand.NewSource(42))
	for s := range parts {
		parts[s] = &Histogram{}
		base := time.Duration(1+s) * time.Millisecond
		for i := 0; i < 1000; i++ {
			d := base + time.Duration(rng.Int63n(int64(time.Millisecond)))
			parts[s].Observe(d)
			want.Observe(d)
		}
	}
	got := &Histogram{}
	for _, p := range parts {
		got.Merge(p)
	}
	if got.Count() != want.Count() || got.Sum() != want.Sum() {
		t.Fatalf("merged count/sum = %d/%v, want %d/%v", got.Count(), got.Sum(), want.Count(), want.Sum())
	}
	if g, w := got.Summarize(), want.Summarize(); g.Min != w.Min || g.Max != w.Max {
		t.Fatalf("merged min/max = %v/%v, want %v/%v", g.Min, g.Max, w.Min, w.Max)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%.2f: merged %v, single %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
	// Inputs must be untouched.
	if parts[0].Count() != 1000 {
		t.Fatal("Merge modified an input histogram")
	}
}

func TestMergedEmpty(t *testing.T) {
	var m Histogram
	m.Merge(&Histogram{})
	if s := m.Summarize(); s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatal("merging empties should stay empty")
	}
}
