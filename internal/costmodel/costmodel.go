// Package costmodel implements the analytical I/O cost model of §6 of the
// paper: amortized and worst-case insertion costs (§6.1), expected lookup
// cost (§6.2), and the parameter-tuning rules of §6.4 (optimal total buffer
// size B_opt ≈ 2F/s, Bloom filter sizing for a target I/O overhead, and the
// per-buffer size B′ sweep behind Figure 4).
//
// The lookup cost rests on two Bloom filter formulas (§6.2), for one
// incarnation filter of m′ bits holding n′ keys with h hash functions: the
// false-positive rate p = (1 − e^(−h·n′/m′))^h (FalsePositiveRate) and the
// hash count h = (m′/n′)·ln2 that minimizes it (OptimalHashes), where p
// falls to (1/2)^h.
//
// All sizes are in bytes and all costs in time.Duration. The entry size s
// is the *effective* flash footprint per entry — 32 bytes in the paper's
// configuration (16-byte entries at 50% hash table utilization).
package costmodel

import (
	"math"
	"time"
)

// FlashCosts is the linear I/O cost model of §6.1: reading, writing, and
// erasing x bytes cost a_r + b_r·x, a_w + b_w·x, a_e + b_e·x.
type FlashCosts struct {
	ReadFixed    time.Duration // a_r
	ReadPerByte  time.Duration // b_r
	WriteFixed   time.Duration // a_w
	WritePerByte time.Duration // b_w
	EraseFixed   time.Duration // a_e
	ErasePerByte time.Duration // b_e

	PageSize  int64 // S_p: flash page or SSD sector
	BlockSize int64 // S_b: erase block (0 for SSDs: C2/C3 are inside the FTL)
}

// ChipCosts returns the §6 model for the raw flash chip (2 KB pages,
// 128 KB erase blocks). It is the repository's one encoding of the
// paper's chip constants: no device model simulates the chip, so fig4,
// its §6.1 flush split and examples/tuning read them from here.
func ChipCosts() FlashCosts {
	return FlashCosts{
		ReadFixed:    100 * time.Microsecond,
		ReadPerByte:  70 * time.Nanosecond,
		WriteFixed:   150 * time.Microsecond,
		WritePerByte: 50 * time.Nanosecond,
		EraseFixed:   1500 * time.Microsecond,
		ErasePerByte: 0,
		PageSize:     2048,
		BlockSize:    128 << 10,
	}
}

// IntelSSDCosts returns the §6 model for the Intel X18-M profile. C2 and C3
// are handled by the FTL and folded into the write parameters (§6.1:
// "for an SSD, we can ignore the cost of C2 and C3").
func IntelSSDCosts() FlashCosts {
	return FlashCosts{
		ReadFixed:    120 * time.Microsecond,
		ReadPerByte:  8 * time.Nanosecond,
		WriteFixed:   200 * time.Microsecond,
		WritePerByte: 17 * time.Nanosecond,
		PageSize:     4096,
	}
}

// InsertCost is the decomposition of one buffer flush (§6.1).
type InsertCost struct {
	C1 time.Duration // sequential write of the buffer image
	C2 time.Duration // erase cost (chip only)
	C3 time.Duration // valid-page copying for sub-block buffers (chip only)
}

// Flush returns the total cost of one flush, C1+C2+C3 — also the
// worst-case insertion latency C_worst.
func (c InsertCost) Flush() time.Duration { return c.C1 + c.C2 + c.C3 }

// FlushCost computes C1, C2, C3 for flushing a buffer of bufBytes (§6.1).
func FlushCost(fc FlashCosts, bufBytes int64) InsertCost {
	ni := (bufBytes + fc.PageSize - 1) / fc.PageSize // pages per buffer
	var ic InsertCost
	ic.C1 = fc.WriteFixed + time.Duration(ni*fc.PageSize)*fc.WritePerByte
	if fc.BlockSize == 0 {
		return ic // SSD: FTL absorbs C2 and C3
	}
	nb := fc.BlockSize / fc.PageSize // pages per block
	// C2: erase cost, incurred on min(1, ni/nb) of flushes.
	frac := math.Min(1, float64(ni)/float64(nb))
	blocks := (ni + nb - 1) / nb
	erase := fc.EraseFixed + time.Duration(blocks*fc.BlockSize)*fc.ErasePerByte
	ic.C2 = time.Duration(frac * float64(erase))
	// C3: valid pages sharing the erased block must be copied out/back.
	pPrime := ((nb-ni)%nb + nb) % nb
	if pPrime > 0 {
		ic.C3 = fc.ReadFixed + time.Duration(pPrime*fc.PageSize)*fc.ReadPerByte +
			fc.WriteFixed + time.Duration(pPrime*fc.PageSize)*fc.WritePerByte
	}
	return ic
}

// AmortizedInsert returns C_amortized = (C1+C2+C3)·s/B′ (§6.1): the flush
// cost shared across the B′/s entries the buffer holds.
func AmortizedInsert(fc FlashCosts, bufBytes int64, entryBytes float64) time.Duration {
	flush := FlushCost(fc, bufBytes).Flush()
	return time.Duration(float64(flush) * entryBytes / float64(bufBytes))
}

// WorstInsert returns C_worst = C1+C2+C3 (§6.1).
func WorstInsert(fc FlashCosts, bufBytes int64) time.Duration {
	return FlushCost(fc, bufBytes).Flush()
}

// PageReadCost returns c_r, the cost of reading one page/sector, used by the
// lookup model.
func PageReadCost(fc FlashCosts) time.Duration {
	return fc.ReadFixed + time.Duration(fc.PageSize)*fc.ReadPerByte
}

// LookupCost returns the expected flash I/O cost of a lookup (§6.2):
//
//	C = (F/B) · (1/2)^(b·s·ln2/F) · c_r
//
// where F is total flash, B total buffer memory, b total Bloom filter
// memory (all bytes; b and F converted to bits internally as in the paper's
// formula), s the effective entry size in bytes, and c_r the page read
// cost. The formula assumes the optimal h = m′·ln2/n′ hash functions.
func LookupCost(flashBytes, bufBytes, bloomBytes int64, entryBytes float64, cr time.Duration) time.Duration {
	if bufBytes <= 0 || flashBytes <= 0 {
		return 0
	}
	k := float64(flashBytes) / float64(bufBytes) // incarnations per super table
	// h = b·s·ln2/F with b in bits and F in entries-equivalents: the
	// paper's expression uses bits of filter per entry stored on flash.
	// bits per entry = (bloomBytes·8) / (flashBytes/s).
	bitsPerEntry := float64(bloomBytes) * 8 * entryBytes / float64(flashBytes)
	h := bitsPerEntry * math.Ln2
	p := math.Pow(0.5, h) // Bloom hit probability per incarnation
	return time.Duration(k * p * float64(cr))
}

// OptimalHashes returns the false-positive-minimizing hash count
// h = (m/n)·ln2 for m bits and n keys, at least 1 (§6.2).
func OptimalHashes(m uint64, n int) int {
	if n <= 0 {
		return 1
	}
	return max(1, int(math.Round(float64(m)/float64(n)*math.Ln2)))
}

// FalsePositiveRate returns the standard approximation
// (1 - e^(-hn/m))^h for a filter with m bits, n keys and h hashes.
func FalsePositiveRate(m uint64, n, h int) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(h)*float64(n)/float64(m)), float64(h))
}

// OptimalBufferBytes returns B_opt, the total buffer allocation minimizing
// expected lookup cost (§6.4). The paper's formula B_opt = F/(s·(ln2)²) ≈
// 2F/s is stated with every quantity in bits; in bytes it reads
// F/(8·s·(ln2)²). Sanity anchor from §7.1.1: for F = 32 GB and s = 32 B the
// analytic optimum is 266 MB (and the measured optimum in Figure 5 is
// 256 MB). Remarkably B_opt does not depend on the total memory M — extra
// memory should go to Bloom filters, not buffers.
func OptimalBufferBytes(flashBytes int64, entryBytes float64) int64 {
	return int64(float64(flashBytes) / (8 * entryBytes * math.Ln2 * math.Ln2))
}

// RequiredBloomBytes returns the Bloom filter allocation b′ needed to keep
// the expected lookup I/O overhead at or below target (§6.4):
//
//	b′ ≥ F/(s·(ln2)²) · ln( s·(ln2)²·c_r / C_target )
//
// Returns 0 if the target is achievable with no filters at all.
func RequiredBloomBytes(flashBytes int64, entryBytes float64, cr, target time.Duration) int64 {
	if target <= 0 {
		panic("costmodel: non-positive target")
	}
	// The paper's expression with all sizes in bits:
	//   b′ ≥ F/(s·ln²2) · ln(s·ln²2·c_r / C_target).
	ln22 := math.Ln2 * math.Ln2
	sBits := entryBytes * 8
	fBits := float64(flashBytes) * 8
	arg := sBits * ln22 * float64(cr) / float64(target)
	if arg <= 1 {
		return 0 // k·c_r at B_opt already meets the target without filters
	}
	bits := fBits / (sBits * ln22) * math.Log(arg)
	return int64(bits / 8)
}

// Point is one (x, cost) sample of a model curve.
type Point struct {
	X    float64 // bytes (buffer size, filter size) — caller labels it
	Cost time.Duration
}

// Figure4Curve computes amortized or worst-case insert cost versus
// per-super-table buffer size B′ (Figure 4), sampled log-uniformly between
// 1 KB and maxBuf.
func Figure4Curve(fc FlashCosts, entryBytes float64, maxBuf int64, worst bool, points int) []Point {
	out := make([]Point, 0, points)
	lo, hi := math.Log10(1024), math.Log10(float64(maxBuf))
	for i := 0; i < points; i++ {
		buf := int64(math.Pow(10, lo+(hi-lo)*float64(i)/float64(points-1)))
		// Round to whole pages.
		if buf < fc.PageSize {
			buf = fc.PageSize
		}
		buf = (buf / fc.PageSize) * fc.PageSize
		var c time.Duration
		if worst {
			c = WorstInsert(fc, buf)
		} else {
			c = AmortizedInsert(fc, buf, entryBytes)
		}
		out = append(out, Point{X: float64(buf), Cost: c})
	}
	return out
}

// ArgminBuffer returns the buffer size minimizing the given curve.
func ArgminBuffer(points []Point) Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.Cost < best.Cost {
			best = p
		}
	}
	return best
}
