package experiments

import (
	"time"

	"repro/internal/costmodel"
)

// Fig3 regenerates Figure 3: expected lookup I/O overhead versus total
// Bloom filter size for F = 32 GB and 64 GB (analytic, §6.4).
func Fig3() Report {
	r := Report{
		ID:    "fig3",
		Title: "Expected I/O overhead vs Bloom filter size (analytic)",
		PaperClaim: "diminishing returns after a certain size; for F=32GB, " +
			"1GB of filters keeps overhead below 1ms",
	}
	cr := costmodel.PageReadCost(costmodel.IntelSSDCosts())
	const s = 32.0
	r.addRow("%12s %14s %14s", "bloom(MB)", "F=32GB (ms)", "F=64GB (ms)")
	for _, mb := range []int64{10, 30, 100, 300, 1000, 3000, 10000} {
		c32 := costmodel.LookupCost(32<<30, costmodel.OptimalBufferBytes(32<<30, s), mb<<20, s, cr)
		c64 := costmodel.LookupCost(64<<30, costmodel.OptimalBufferBytes(64<<30, s), mb<<20, s, cr)
		r.addRow("%12d %14.3f %14.3f", mb, ms(c32), ms(c64))
	}
	oneGB := costmodel.LookupCost(32<<30, costmodel.OptimalBufferBytes(32<<30, s), 1<<30, s, cr)
	r.metric("overhead_ms_at_1GB_32GB", ms(oneGB))
	r.addRow("check: F=32GB @1GB filters = %.3f ms (paper: <1 ms)", ms(oneGB))
	return r
}

// Fig4 regenerates Figure 4: amortized and worst-case insertion cost versus
// per-super-table buffer size, on the flash chip and the Intel SSD
// (analytic, §6.1/§6.4).
func Fig4() Report {
	r := Report{
		ID:    "fig4",
		Title: "Insertion cost vs buffer size B' (analytic; chip and SSD)",
		PaperClaim: "chip costs minimize when B' matches the 128KB erase block; " +
			"on SSDs larger buffers cut average cost but grow the worst case",
	}
	const s = 32.0
	chip := costmodel.ChipCosts()
	intel := costmodel.IntelSSDCosts()
	r.addRow("%10s | %12s %12s | %12s %12s", "B'(KB)",
		"chip avg(ms)", "chip max(ms)", "ssd avg(ms)", "ssd max(ms)")
	for _, kb := range []int64{2, 8, 32, 64, 128, 256, 512, 1024, 4096} {
		buf := kb << 10
		ca := costmodel.AmortizedInsert(chip, buf, s)
		cw := costmodel.WorstInsert(chip, buf)
		sa := costmodel.AmortizedInsert(intel, buf, s)
		sw := costmodel.WorstInsert(intel, buf)
		r.addRow("%10d | %12.5f %12.3f | %12.5f %12.3f", kb, ms(ca), ms(cw), ms(sa), ms(sw))
	}
	// The §6.1 split of one flush at B' = 128 KB: C1 writes the buffer
	// image, C2 erases, C3 copies the valid pages of a partly rewritten
	// block (zero at a whole block, and inside the FTL on an SSD).
	for _, d := range []struct {
		name  string
		costs costmodel.FlashCosts
	}{{"chip", chip}, {"ssd", intel}} {
		fc := costmodel.FlushCost(d.costs, 128<<10)
		r.addRow("flush at B'=128KB, %-4s: C1 = %.3f ms, C2 = %.3f ms, C3 = %.3f ms",
			d.name, ms(fc.C1), ms(fc.C2), ms(fc.C3))
	}
	atBlockWorst := costmodel.WorstInsert(chip, 128<<10)
	r.metric("chip_worst_at_block_ms", ms(atBlockWorst))
	r.metric("ssd_worst_at_128KB_ms", ms(costmodel.WorstInsert(intel, 128<<10)))
	r.addRow("check: SSD worst at 128KB = %.2f ms (paper: 2.72 ms incl. FTL effects)",
		ms(costmodel.WorstInsert(intel, 128<<10)))
	return r
}

// TuningTable reproduces the §6.4 tuning outputs: B_opt and required Bloom
// memory for target overheads.
func TuningTable() Report {
	r := Report{
		ID:         "tuning",
		Title:      "Parameter tuning (B_opt and Bloom sizing, §6.4)",
		PaperClaim: "B_opt ≈ 2F/s bits (266MB for F=32GB, s=32B); measured optimum 256MB (Fig 5)",
	}
	const s = 32.0
	cr := costmodel.PageReadCost(costmodel.IntelSSDCosts())
	for _, gb := range []int64{32, 64} {
		f := gb << 30
		bopt := costmodel.OptimalBufferBytes(f, s)
		r.addRow("F=%dGB: B_opt = %d MB", gb, bopt>>20)
		for _, target := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
			need := costmodel.RequiredBloomBytes(f, s, cr, target)
			r.addRow("  bloom for %v overhead: %d MB", target, need>>20)
		}
	}
	r.metric("bopt_mb_32GB", float64(costmodel.OptimalBufferBytes(32<<30, s)>>20))
	return r
}
