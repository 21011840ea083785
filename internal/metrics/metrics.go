// Package metrics provides latency histograms and distribution summaries for
// the experiment harness. The paper reports latency CDFs (Figures 6, 7),
// CCDFs (Figure 8a), averages and worst cases (§7.2); Histogram captures all
// of these from a stream of virtual-time durations.
//
// Buckets are log-spaced with ~5% relative width between 100 ns and 1000 s,
// so percentile estimates carry at most a few percent of relative error —
// far below the order-of-magnitude differences the paper's claims rest on.
// The logarithmic formula (logIndex) defines the buckets, but recording a
// sample does not evaluate it: tables built from it at package init map a
// duration to its bucket with one load and one comparison, exactly as the
// formula would.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	bucketMin   = 100 * time.Nanosecond
	growth      = 1.05
	numBuckets  = 475                     // growth^475 * 100ns ≈ 1.1e12 ns ≈ 18 minutes
	invLnGrowth = 1 / 0.04879016416943205 // 1/ln(1.05)
)

// Histogram accumulates a latency distribution. The zero value is ready to
// use.
type Histogram struct {
	buckets [numBuckets + 2]uint64 // [0]: < bucketMin, [last]: overflow
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// logIndex is the definition of the buckets: bucket i ≥ 1 holds the
// durations d with ⌊ln(d/bucketMin)/ln(growth)⌋ = i-1. It is evaluated only
// to build the lookup tables below (and by tests as their reference).
func logIndex(d time.Duration) int {
	if d < bucketMin {
		return 0
	}
	i := 1 + int(math.Log(float64(d)/float64(bucketMin))*invLnGrowth)
	if i > numBuckets {
		return numBuckets + 1
	}
	return i
}

// keyBits is how many bits below the leading one a bucket key keeps. A key
// (bit length, next keyBits bits) covers durations within a ratio of at
// most 1+2^-keyBits ≈ 1.031 of each other, narrower than one bucket
// (growth = 1.05), so a key's durations span at most two adjacent buckets.
const keyBits = 5

var (
	// bucketLo[i] is the least duration logIndex maps to bucket i or
	// higher.
	bucketLo [numBuckets + 2]time.Duration
	// bucketStart[key] is the bucket of the least duration with that key.
	bucketStart [64 << keyBits]uint16
)

func init() {
	for i := 1; i < len(bucketLo); i++ {
		lo, hi := bucketLo[i-1], time.Duration(math.MaxInt64)
		for lo < hi { // least d with logIndex(d) ≥ i; logIndex(MaxInt64) is the overflow bucket
			mid := lo + (hi-lo)/2
			if logIndex(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketLo[i] = lo
	}
	for l := keyBits + 1; l < 64; l++ {
		for top := 0; top < 1<<keyBits; top++ {
			least := time.Duration(1<<keyBits|top) << (l - keyBits - 1)
			bucketStart[l<<keyBits|top] = uint16(logIndex(least))
		}
	}
}

// bucketIndex maps a duration to its bucket: the bucket of its key's least
// duration, or the next one if d reaches that bucket's upper boundary. It
// equals logIndex(d) for every d.
func bucketIndex(d time.Duration) int {
	if d < bucketMin {
		return 0
	}
	l := bits.Len64(uint64(d))
	top := int(uint64(d)>>(l-keyBits-1)) & (1<<keyBits - 1)
	i := int(bucketStart[(l<<keyBits|top)&(len(bucketStart)-1)]) // the mask only drops the bounds check
	if i <= numBuckets && d >= bucketLo[i+1] {
		i++
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return bucketMin
	}
	return time.Duration(float64(bucketMin) * math.Pow(growth, float64(i)))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// ObserveN records n samples of the same duration — the amortized per-key
// latency of a batched operation — with one bucket computation instead of n.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)] += uint64(n)
	h.count += uint64(n)
	h.sum += d * time.Duration(n)
	if h.count == uint64(n) || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average sample, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1). The estimate
// is the upper bound of the bucket containing the quantile, except that the
// exact Min and Max are returned at the extremes.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Point is one (latency, fraction) point of a CDF or CCDF curve.
type Point struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns the cumulative distribution as a sequence of points over the
// non-empty buckets, suitable for plotting against the paper's Figures 6–7.
func (h *Histogram) CDF() []Point {
	var pts []Point
	if h.count == 0 {
		return pts
	}
	var cum uint64
	for i := range h.buckets {
		if h.buckets[i] == 0 {
			continue
		}
		cum += h.buckets[i]
		pts = append(pts, Point{bucketUpper(i), float64(cum) / float64(h.count)})
	}
	return pts
}

// CCDF returns the complementary CDF (fraction of samples strictly greater
// than each latency), as used in Figure 8(a).
func (h *Histogram) CCDF() []Point {
	pts := h.CDF()
	for i := range pts {
		pts[i].Fraction = 1 - pts[i].Fraction
	}
	return pts
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// Summary is a compact snapshot of a distribution.
type Summary struct {
	Count          uint64
	Mean, Min, Max time.Duration
	P50, P90, P99  time.Duration
	P999           time.Duration
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.min,
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// String formats the summary in milliseconds, the paper's unit.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4fms p50=%.4fms p90=%.4fms p99=%.4fms max=%.4fms",
		s.Count, Ms(s.Mean), Ms(s.P50), Ms(s.P90), Ms(s.P99), Ms(s.Max))
}

// Ms converts a duration to float milliseconds (the unit used throughout the
// paper's tables and figures).
func Ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
