package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// tiny is an even smaller scale than Small, for fast unit tests of the
// drivers themselves.
var tiny = Scale{
	Name: "tiny", FlashMB: 8, MemMB: 2,
	Ops:          8000,
	TraceObjects: 8, TraceMeanKB: 128,
}

func TestFig3Analytic(t *testing.T) {
	r := Fig3()
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if v := r.Metrics["overhead_ms_at_1GB_32GB"]; v <= 0 || v >= 1 {
		t.Fatalf("1GB overhead = %.3f ms, paper says <1ms", v)
	}
	if !strings.Contains(r.String(), "fig3") {
		t.Fatal("report string malformed")
	}
}

func TestFig4Analytic(t *testing.T) {
	r := Fig4()
	if v := r.Metrics["ssd_worst_at_128KB_ms"]; v < 1.5 || v > 3.5 {
		t.Fatalf("SSD worst at 128KB = %.2f ms, want ≈2.5 (paper 2.72)", v)
	}
}

func TestTuningTable(t *testing.T) {
	r := TuningTable()
	if v := r.Metrics["bopt_mb_32GB"]; v < 250 || v > 280 {
		t.Fatalf("B_opt = %.0f MB, want ≈266 (§7.1.1)", v)
	}
}

// TestAnalyticBlocksMatchGolden pins the analytic reports in plain go test:
// each must appear verbatim in the small-scale golden output of
// cmd/clam-figures, so a cost-model edit fails here and not only in the
// golden diff that reruns every simulated figure.
func TestAnalyticBlocksMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/figures-small.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Report{Fig3(), Fig4(), TuningTable()} {
		if !strings.Contains(string(golden), r.String()) {
			t.Errorf("%s differs from testdata/figures-small.golden:\n%s", r.ID, r.String())
		}
	}
}

func TestFig5SpuriousRateRises(t *testing.T) {
	r, err := Fig5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// As buffers grow (squeezing Bloom memory), the spurious rate must
	// rise — the right branch of the paper's U-curve.
	var rates []float64
	for k, v := range r.Metrics {
		_ = k
		rates = append(rates, v)
	}
	if len(rates) < 2 {
		t.Fatalf("sweep produced %d points", len(rates))
	}
	var lo, hi float64 = 1, 0
	for _, v := range rates {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 10*lo && hi < 0.01 {
		t.Fatalf("spurious rate barely moved: [%.5f, %.5f]", lo, hi)
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if v := r.Metrics["p_le1_io"]; v < 0.99 {
		t.Fatalf("P[≤1 io] = %.4f, want >0.99 (Table 2)", v)
	}
	if lsr := r.Metrics["lsr"]; lsr < 0.25 || lsr > 0.55 {
		t.Fatalf("achieved LSR %.2f, want ≈0.4", lsr)
	}
}

func TestFig6Orderings(t *testing.T) {
	r, err := Fig6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	intel := r.Metrics["bh+intel_lookup_mean_ms"]
	transcend := r.Metrics["bh+transcend_lookup_mean_ms"]
	dsk := r.Metrics["bh+disk_lookup_mean_ms"]
	if !(intel < transcend && transcend < dsk) {
		t.Fatalf("lookup ordering broken: intel %.4f, transcend %.4f, disk %.4f",
			intel, transcend, dsk)
	}
	if ins := r.Metrics["bh+intel_insert_mean_ms"]; ins > 0.03 {
		t.Fatalf("intel insert %.4f ms, want ≈0.006", ins)
	}
	if lok := r.Metrics["bh+intel_lookup_mean_ms"]; lok < 0.01 || lok > 0.2 {
		t.Fatalf("intel lookup %.4f ms, want ≈0.06", lok)
	}
}

func TestFig7BDBSlow(t *testing.T) {
	r, err := Fig7(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// The paper's headline comparison: BDB is milliseconds on both media.
	if v := r.Metrics["db+disk_lookup_mean_ms"]; v < 3 {
		t.Fatalf("DB+Disk lookup %.2f ms, want ≈6.8", v)
	}
	// On the Intel SSD, sustained random writes drag the whole system to
	// sub-millisecond-to-millisecond per-op costs (paper: 4.6/4.8 ms; in
	// our model the GC charge lands mostly on the read that follows each
	// write, so the per-op-pair combined mean is the comparable number).
	combined := (r.Metrics["db+intel_insert_mean_ms"] + r.Metrics["db+intel_lookup_mean_ms"]) / 2
	if combined < 0.4 {
		t.Fatalf("DB+Intel combined per-op mean %.2f ms, want GC-inflated (≥0.4; paper ≈4.7)", combined)
	}
}

func TestTable3Crossover(t *testing.T) {
	r, err := Table3(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// BufferHash gets cheaper as lookups shrink; BDB gets cheaper as
	// lookups grow. At every mix BufferHash wins by orders of magnitude
	// except pure-lookup where the gap narrows.
	if r.Metrics["bh_ms_frac0.0"] >= r.Metrics["bh_ms_frac1.0"] {
		t.Error("BufferHash should be fastest on write-heavy mixes")
	}
	if r.Metrics["bdb_ms_frac0.0"] <= r.Metrics["bdb_ms_frac1.0"] {
		t.Error("BDB should be slowest on write-heavy mixes")
	}
	for _, frac := range []string{"0.0", "0.3", "0.5", "0.7"} {
		bh := r.Metrics["bh_ms_frac"+frac]
		db := r.Metrics["bdb_ms_frac"+frac]
		if bh*10 > db {
			t.Errorf("at %s lookups BufferHash (%.3f) not ≥10x faster than BDB (%.3f)", frac, bh, db)
		}
	}
}

func TestFig8PartialDiscard(t *testing.T) {
	r, err := Fig8(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	intel := r.Metrics["intel-x18m_insert_mean_ms"]
	transcend := r.Metrics["transcend-ts32_insert_mean_ms"]
	if intel <= 0 || transcend <= 0 {
		t.Fatal("missing metrics")
	}
	// Paper: update-based eviction costs more on the slower device
	// (0.56ms Transcend vs 0.08ms Intel).
	if transcend <= intel {
		t.Errorf("Transcend partial-discard inserts (%.3f) should cost more than Intel (%.3f)",
			transcend, intel)
	}
	for _, k := range []string{"intel-x18m_cascade_le3_frac", "transcend-ts32_cascade_le3_frac"} {
		if v, ok := r.Metrics[k]; !ok || v < 0.5 {
			t.Errorf("%s = %.2f, paper says ~90%% of cascades try ≤3 incarnations", k, v)
		}
	}
	// The run must pass the eviction onset: without partial scans the
	// insert figures price no partial discard at all.
	for _, k := range []string{"intel-x18m_partial_scans", "transcend-ts32_partial_scans"} {
		if v := r.Metrics[k]; v <= 0 {
			t.Errorf("%s = %.0f, want partial-discard evictions", k, v)
		}
	}
}

func TestAblationDirections(t *testing.T) {
	r, err := Ablations(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if r.Metrics["unbuffered_insert_ms"] < 20*r.Metrics["buffered_insert_ms"] {
		t.Error("buffering should speed inserts by far more than 20x")
	}
	if r.Metrics["lookup_nobloom_lsr0.4_ms"] < 3*r.Metrics["lookup_bloom_lsr0.4_ms"] {
		t.Error("Bloom filters should speed 40%-LSR lookups by several x")
	}
	if v := r.Metrics["bitslice_improvement_frac"]; v <= 0 {
		t.Errorf("bit-slicing improvement %.2f, want positive (~20%% in paper)", v)
	}
}

func TestHeadline(t *testing.T) {
	r, err := Headline(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if v := r.Metrics["intel-x18m_insert_ms"]; v > 0.03 {
		t.Errorf("intel insert %.4f ms, paper 0.006", v)
	}
	if v := r.Metrics["transcend-ts32_insert_max_ms"]; v < 15 || v > 60 {
		t.Errorf("transcend worst insert %.1f ms, paper ~30", v)
	}
	fifo, lru := r.Metrics["fifo_insert_ms"], r.Metrics["lru_insert_ms"]
	if lru < fifo {
		t.Errorf("LRU inserts (%.4f) should cost at least FIFO's (%.4f)", lru, fifo)
	}
}

func TestFig9Crossover(t *testing.T) {
	r, err := Fig9(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// The paper's qualitative claims at 50% redundancy:
	// 1. both give real improvement at 10 Mbps;
	// 2. BDB collapses by 100 Mbps while BufferHash still delivers;
	// 3. BufferHash degrades by 400 Mbps on the Transcend device.
	if v := r.Metrics["bh_red50_10mbps"]; v < 1.4 {
		t.Errorf("BH at 10Mbps: %.2f, want ≈2", v)
	}
	// The paper reports ≈2x for BDB at 10 Mbps, which is in tension with
	// its own Table 3 (18.4 ms backlogged inserts cannot sustain the ~100
	// inserts/s a 10 Mbps link generates); our synchronous model lands
	// just above break-even.
	if v := r.Metrics["bdb_red50_10mbps"]; v < 1.0 {
		t.Errorf("BDB at 10Mbps: %.2f, want ≥1 (paper ≈2)", v)
	}
	bh100, bdb100 := r.Metrics["bh_red50_100mbps"], r.Metrics["bdb_red50_100mbps"]
	if bh100 < 1.4 {
		t.Errorf("BH at 100Mbps: %.2f, want ≈2", bh100)
	}
	if bdb100 > 1.0 {
		t.Errorf("BDB at 100Mbps: %.2f, paper shows collapse (<1)", bdb100)
	}
	if bh400 := r.Metrics["bh_red50_400mbps"]; bh400 > 1.6 {
		t.Errorf("BH at 400Mbps: %.2f, paper shows Transcend CLAM becomes a bottleneck", bh400)
	}
	// A kind-opened CLAM, whose flushes run behind its calls, keeps
	// claims 1 and 2; how far it degrades by 400 Mbps is reported only.
	for _, mbps := range []int{10, 100} {
		if v := r.Metrics[fmt.Sprintf("wb_red50_%dmbps", mbps)]; v < 1.4 {
			t.Errorf("write-behind CLAM at %dMbps: %.2f, want ≈2", mbps, v)
		}
	}
}

func TestFig10PerObject(t *testing.T) {
	r, err := Fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	bh := r.Metrics["bufferhash_mean_improvement"]
	db := r.Metrics["berkeleydb_mean_improvement"]
	if bh <= db {
		t.Errorf("per-object mean improvement: BH %.2f should beat BDB %.2f (paper 3.1 vs 1.9)", bh, db)
	}
	if r.Metrics["bufferhash_worsened_frac"] > r.Metrics["berkeleydb_worsened_frac"] {
		t.Error("BufferHash should worsen fewer objects than BDB")
	}
	if wb := r.Metrics["write-behind_mean_improvement"]; wb <= db {
		t.Errorf("per-object mean improvement: write-behind CLAM %.2f should beat BDB %.2f", wb, db)
	}
	if r.Metrics["write-behind_worsened_frac"] > r.Metrics["berkeleydb_worsened_frac"] {
		t.Error("a write-behind CLAM should worsen fewer objects than BDB")
	}
}
