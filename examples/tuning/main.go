// Tuning example (§6.4): use the analytical cost model to size a CLAM —
// optimal buffer allocation, Bloom filter memory for a latency target, and
// the effect of buffer size on insertion cost — then open a CLAM with the
// derived configuration and check its measured false-positive reads
// against the model's.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/clam"
	"repro/internal/costmodel"
	"repro/internal/metrics"
)

func main() {
	smoke := flag.Bool("smoke", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	const s = 32.0 // effective bytes per entry
	flash := int64(128) << 20
	if *smoke {
		flash = 16 << 20
	}
	cr := costmodel.PageReadCost(costmodel.IntelSSDCosts())

	// 1. How much memory should go to buffers? (Answer: B_opt, and not a
	// byte more — extra DRAM belongs to Bloom filters.)
	bopt := costmodel.OptimalBufferBytes(flash, s)
	fmt.Printf("for F = %d MB: B_opt = %d KB of buffers\n", flash>>20, bopt>>10)

	// 2. How much Bloom memory buys a 0.1 ms expected lookup overhead?
	need := costmodel.RequiredBloomBytes(flash, s, cr, 100*time.Microsecond)
	fmt.Printf("Bloom filters for 0.1 ms overhead: %d KB\n", need>>10)

	// 3. What buffer size minimizes worst-case insert cost on a raw chip?
	// (The erase block, per Figure 4b: below it, C3 valid-page copying
	// dominates; above it, the flush itself grows.)
	curve := costmodel.Figure4Curve(costmodel.ChipCosts(), s, 2<<20, true, 100)
	best := costmodel.ArgminBuffer(curve)
	fmt.Printf("chip worst-case insert minimized near B' = %.0f KB (erase block = 128 KB)\n\n", best.X/1024)

	// 4. Open a CLAM with a memory budget and verify the derived geometry
	// and the predicted lookup overhead.
	st, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(flash),
		clam.WithMemory(flash/8))
	if err != nil {
		log.Fatal(err)
	}
	c := st.(*clam.CLAM)
	cfg := c.Core().Config()
	fmt.Printf("derived: %d super tables × %d incarnations × %d KB buffers, %d bloom bits/entry\n",
		cfg.NumSuperTables(), cfg.NumIncarnations, cfg.BufferBytes>>10, cfg.FilterBitsPerEntry)

	// Fill past one eviction cycle, then measure misses (pure Bloom-filter
	// work plus false-positive reads).
	entries := flash / 32
	for i := int64(0); i < entries*5/4; i++ {
		if err := c.PutU64(uint64(i)+1, uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	c.ResetMetrics()
	for i := 0; i < 50_000; i++ {
		if _, _, err := c.GetU64(uint64(i) + (1 << 60)); err != nil { // guaranteed misses
			log.Fatal(err)
		}
	}
	stats := c.Stats()
	measured := float64(stats.Core.SpuriousProbes) / float64(stats.Core.Lookups)
	fmt.Printf("\nmeasured miss-lookup mean: %.4f ms (pure filter work)\n", metrics.Ms(stats.LookupLatency.Mean))
	fmt.Printf("spurious flash reads: %d in %d lookups (rate %.5f)\n",
		stats.Core.SpuriousProbes, stats.Core.Lookups, measured)

	// 5. Compare with the model (§6.2): a miss probes each of the k
	// incarnation filters, and each answers a false positive with
	// probability p(m′, n′, h), so it costs k·p spurious reads.
	m, n := cfg.FilterBits(), cfg.EntriesPerBuffer()
	model := float64(cfg.NumIncarnations) * costmodel.FalsePositiveRate(m, n, costmodel.OptimalHashes(m, n))
	ratio := measured / model
	fmt.Printf("model: k·p = %d × p(m′=%d, n′=%d) = %.5f spurious reads per miss (measured/model = %.2f)\n",
		cfg.NumIncarnations, m, n, model, ratio)
	if ratio < 0.5 || ratio > 2 {
		log.Fatalf("measured spurious rate is %.2fx the model's, outside [0.5, 2]", ratio)
	}
}
