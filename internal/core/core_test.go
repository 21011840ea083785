package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flashchip"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// testConfig builds a small CLAM-shaped instance on an Intel-profile SSD:
// 4 super tables × 4 incarnations × 64 KB buffers (2048 entries each).
// Total flash capacity: 1 MiB = 32768 flushed entries.
func testConfig(t testing.TB) (Config, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), 1<<20, clock)
	return Config{
		Device:             dev,
		Clock:              clock,
		PartitionBits:      2,
		BufferBytes:        64 << 10,
		NumIncarnations:    4,
		FilterBitsPerEntry: 16,
		Seed:               42,
	}, clock
}

func mustNew(t testing.TB, cfg Config) *BufferHash {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	good, _ := testConfig(t)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil device", func(c *Config) { c.Device = nil }},
		{"nil clock", func(c *Config) { c.Clock = nil }},
		{"zero buffer", func(c *Config) { c.BufferBytes = 0 }},
		{"unaligned buffer", func(c *Config) { c.BufferBytes = 1000 }},
		{"zero incarnations", func(c *Config) { c.NumIncarnations = 0 }},
		{"too many incarnations", func(c *Config) { c.NumIncarnations = 65 }},
		{"no filter bits", func(c *Config) { c.FilterBitsPerEntry = 0 }},
		{"capacity too small", func(c *Config) { c.NumIncarnations = 64 }},
		{"priority without retain", func(c *Config) { c.Policy = PriorityBased }},
		{"huge partitions", func(c *Config) { c.PartitionBits = 30 }},
		{"unpackable probe pages", func(c *Config) { c.Device = hugeDevice{c.Device} }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestInsertLookupInBuffer(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	if err := b.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	res, err := b.Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != 100 {
		t.Fatalf("Lookup = %+v", res)
	}
	if res.FlashReads != 0 {
		t.Fatalf("buffer hit needed %d flash reads", res.FlashReads)
	}
	res, _ = b.Lookup(2)
	if res.Found {
		t.Fatal("phantom key found")
	}
}

func TestValuesSurviveFlushes(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	// Insert enough to force several flushes per super table but stay
	// well within FIFO capacity (32768 flushed + 8192 buffered).
	const n = 16000
	for i := uint64(0); i < n; i++ {
		if err := b.Insert(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().Flushes == 0 {
		t.Fatal("no flushes occurred; test ineffective")
	}
	for i := uint64(0); i < n; i++ {
		res, err := b.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != i*10 {
			t.Fatalf("key %d: %+v", i, res)
		}
	}
}

func TestLatestValueWins(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	b.Insert(7, 1)
	// Push the first version to flash.
	for i := uint64(100); i < 12000; i++ {
		b.Insert(i, i)
	}
	b.Update(7, 2)
	// Push the second version to flash too.
	for i := uint64(20000); i < 32000; i++ {
		b.Insert(i, i)
	}
	res, err := b.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Value != 2 {
		t.Fatalf("lazy update: got %+v, want value 2", res)
	}
}

func TestDeleteSemantics(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	b.Insert(5, 50)
	// Version in flash.
	for i := uint64(100); i < 10000; i++ {
		b.Insert(i, i)
	}
	if err := b.Delete(5); err != nil {
		t.Fatal(err)
	}
	if res, _ := b.Lookup(5); res.Found {
		t.Fatal("deleted key still visible (flash version resurrected)")
	}
	// Re-insert revives.
	b.Insert(5, 51)
	if res, _ := b.Lookup(5); !res.Found || res.Value != 51 {
		t.Fatalf("revived key: %+v", res)
	}
}

func TestDeleteInBufferOnly(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	b.Insert(9, 90)
	b.Delete(9)
	if res, _ := b.Lookup(9); res.Found {
		t.Fatal("deleted buffered key visible")
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	// Total capacity ≈ 32768 flushed + 8192 buffered. Insert 4× that.
	const n = 160000
	for i := uint64(0); i < n; i++ {
		if err := b.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	// The earliest keys must be gone...
	gone := 0
	for i := uint64(0); i < 1000; i++ {
		if res, _ := b.Lookup(i); !res.Found {
			gone++
		}
	}
	if gone < 990 {
		t.Errorf("only %d/1000 oldest keys evicted", gone)
	}
	// ...and the most recent ones all present with correct values.
	for i := uint64(n - 3000); i < n; i++ {
		res, err := b.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != i {
			t.Fatalf("recent key %d: %+v", i, res)
		}
	}
	if b.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestSharedLogWrapsManyTimes(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	// 10× device capacity worth of inserts exercises repeated wrap-around
	// of the shared circular log.
	const n = 400000
	rng := rand.New(rand.NewSource(3))
	latest := map[uint64]uint64{}
	var order []uint64
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(200000)) + 1
		v := uint64(i)
		if err := b.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		latest[k] = v
		order = append(order, k)
	}
	// Recently inserted keys: found with the latest value.
	seen := map[uint64]bool{}
	for i := len(order) - 1; i > len(order)-2000; i-- {
		k := order[i]
		if seen[k] {
			continue
		}
		seen[k] = true
		res, err := b.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("recently inserted key %d missing", k)
		}
		if res.Value != latest[k] {
			t.Fatalf("key %d: value %d, want %d (stale version returned)", k, res.Value, latest[k])
		}
	}
}

// TestNoWrongValues is the model-based safety property: any found value
// must be the latest inserted value for that key, under random interleaved
// inserts, updates, deletes and lookups across flushes and evictions.
func TestNoWrongValues(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(11))
	latest := map[uint64]uint64{}
	deleted := map[uint64]bool{}
	never := map[uint64]bool{}
	for i := 0; i < 120000; i++ {
		k := uint64(rng.Intn(40000)) + 1
		switch rng.Intn(10) {
		case 0:
			if err := b.Delete(k); err != nil {
				t.Fatal(err)
			}
			deleted[k] = true
		case 1, 2:
			res, err := b.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				if deleted[k] {
					t.Fatalf("op %d: deleted key %d found", i, k)
				}
				if res.Value != latest[k] {
					t.Fatalf("op %d: key %d = %d, want %d", i, k, res.Value, latest[k])
				}
			}
			// Keys never inserted must never be found.
			phantom := uint64(rng.Intn(1000)) + 1000000
			never[phantom] = true
			if res, _ := b.Lookup(phantom); res.Found {
				t.Fatalf("op %d: phantom key %d found", i, phantom)
			}
		default:
			v := uint64(i) + 1
			if err := b.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			latest[k] = v
			delete(deleted, k)
		}
	}
}

func TestLookupIOHistogramTable2Shape(t *testing.T) {
	// Table 2: >99% of lookups need at most one flash read.
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(5))
	const n = 60000
	for i := uint64(0); i < n; i++ {
		b.Insert(i, i)
	}
	b.ResetStats()
	// ~40% LSR: probe keys from a range 2.5x the inserted span, drawn from
	// the most recent window to avoid FIFO misses polluting the rate.
	hits := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		k := uint64(rng.Intn(n * 5 / 2))
		res, err := b.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			hits++
		}
	}
	st := b.Stats()
	atMost1 := float64(st.LookupIOHist[0]+st.LookupIOHist[1]) / float64(st.Lookups)
	t.Logf("hit rate %.2f, P[0 io]=%.4f P[1 io]=%.4f P[2 io]=%.4f, spurious=%d",
		float64(hits)/probes,
		float64(st.LookupIOHist[0])/float64(st.Lookups),
		float64(st.LookupIOHist[1])/float64(st.Lookups),
		float64(st.LookupIOHist[2])/float64(st.Lookups), st.SpuriousProbes)
	if atMost1 < 0.99 {
		t.Errorf("P[≤1 flash read] = %.4f, want > 0.99 (Table 2)", atMost1)
	}
}

func TestBloomDisabledAblation(t *testing.T) {
	// §7.3.1: without Bloom filters, unsuccessful lookups probe every live
	// incarnation.
	cfg, _ := testConfig(t)
	cfg.DisableBloom = true
	b := mustNew(t, cfg)
	for i := uint64(0); i < 40000; i++ {
		b.Insert(i, i)
	}
	b.ResetStats()
	for i := uint64(1 << 40); i < 1<<40+1000; i++ {
		b.Lookup(i) // guaranteed misses
	}
	st := b.Stats()
	perLookup := float64(st.FlashProbes) / float64(st.Lookups)
	t.Logf("flash reads per missed lookup without Bloom: %.2f", perLookup)
	if perLookup < 3.5 {
		t.Errorf("expected ≈ k=4 probes per miss without Bloom, got %.2f", perLookup)
	}

	// Control: with Bloom filters, misses rarely touch flash.
	cfg2, _ := testConfig(t)
	b2 := mustNew(t, cfg2)
	for i := uint64(0); i < 40000; i++ {
		b2.Insert(i, i)
	}
	b2.ResetStats()
	for i := uint64(1 << 40); i < 1<<40+1000; i++ {
		b2.Lookup(i)
	}
	st2 := b2.Stats()
	if st2.FlashProbes*20 > st.FlashProbes {
		t.Errorf("Bloom filters saved too few probes: %d vs %d", st2.FlashProbes, st.FlashProbes)
	}
}

func TestBitsliceAndNaiveAgree(t *testing.T) {
	run := func(disableBitslice bool) (found int, stats Stats) {
		cfg, _ := testConfig(t)
		cfg.DisableBitslice = disableBitslice
		b := mustNew(t, cfg)
		for i := uint64(0); i < 30000; i++ {
			b.Insert(i, i^0xFF)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 10000; i++ {
			k := uint64(rng.Intn(60000))
			res, err := b.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				if res.Value != k^0xFF {
					t.Fatalf("wrong value for %d", k)
				}
				found++
			}
		}
		return found, b.Stats()
	}
	f1, s1 := run(false)
	f2, s2 := run(true)
	if f1 != f2 {
		t.Fatalf("bit-sliced found %d, naive found %d", f1, f2)
	}
	if s1.FlashProbes != s2.FlashProbes {
		t.Fatalf("probe counts differ: %d vs %d (filters should be identical)", s1.FlashProbes, s2.FlashProbes)
	}
}

func TestLRUKeepsHotKeys(t *testing.T) {
	runPolicy := func(policy EvictionPolicy) bool {
		cfg, _ := testConfig(t)
		cfg.Policy = policy
		b := mustNew(t, cfg)
		hot := uint64(777777)
		b.Insert(hot, 1)
		// Churn 5× total capacity while touching the hot key regularly.
		for i := uint64(0); i < 200000; i++ {
			b.Insert(i+1000000, i)
			if i%2000 == 0 {
				b.Lookup(hot)
			}
		}
		res, err := b.Lookup(hot)
		if err != nil {
			t.Fatal(err)
		}
		return res.Found
	}
	if !runPolicy(LRU) {
		t.Error("LRU evicted a hot key")
	}
	if runPolicy(FIFO) {
		t.Error("FIFO retained a cold key past capacity (eviction broken)")
	}
}

func TestUpdateBasedRetainsLiveEntries(t *testing.T) {
	// §5.1.2: update-based partial discard drops superseded versions and
	// retains live entries, so stable keys survive churn that would evict
	// them under FIFO.
	run := func(policy EvictionPolicy) (alive int) {
		cfg, _ := testConfig(t)
		cfg.Policy = policy
		b := mustNew(t, cfg)
		const stable = 2000
		for i := uint64(0); i < stable; i++ {
			b.Insert(i, i+1)
		}
		// Churn: repeated updates over a 20k-key set (≈8 versions per key),
		// 4× total capacity, so most flushed entries are superseded while
		// the live set (20k churn + 2k stable) still fits in flash — the
		// regime where update-based eviction can retain everything live
		// (§5.1.2: forced FIFO eviction of live items only happens when
		// flash is too small for the live set).
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 160000; i++ {
			k := uint64(rng.Intn(20000)) + 10000000
			b.Insert(k, uint64(i))
		}
		for i := uint64(0); i < stable; i++ {
			if res, _ := b.Lookup(i); res.Found {
				alive++
			}
		}
		return alive
	}
	fifoAlive := run(FIFO)
	updAlive := run(UpdateBased)
	t.Logf("stable keys alive: FIFO %d/2000, UpdateBased %d/2000", fifoAlive, updAlive)
	if updAlive < 1600 {
		t.Errorf("update-based eviction kept only %d/2000 live keys", updAlive)
	}
	if fifoAlive >= updAlive {
		t.Errorf("FIFO (%d) retained as much as UpdateBased (%d); policy has no effect", fifoAlive, updAlive)
	}
}

func TestPriorityBasedEviction(t *testing.T) {
	cfg, _ := testConfig(t)
	cfg.Policy = PriorityBased
	// Values encode priority: retain values ≥ 1000.
	cfg.Retain = func(key, value uint64) bool { return value >= 1000 }
	b := mustNew(t, cfg)
	for i := uint64(0); i < 500; i++ {
		b.Insert(i, 1000+i)       // high priority
		b.Insert(100000+i, i%999) // low priority
	}
	for i := uint64(0); i < 150000; i++ {
		b.Insert(i+1000000, 1) // churn (low priority)
	}
	hi, lo := 0, 0
	for i := uint64(0); i < 500; i++ {
		if res, _ := b.Lookup(i); res.Found {
			hi++
		}
		if res, _ := b.Lookup(100000 + i); res.Found {
			lo++
		}
	}
	t.Logf("priority survival: high %d/500, low %d/500", hi, lo)
	if hi < 400 {
		t.Errorf("high-priority survival %d/500 too low", hi)
	}
	if lo > hi/2 {
		t.Errorf("low-priority keys (%d) survived nearly as well as high (%d)", lo, hi)
	}
}

// TestPriorityBasedNeverResurrects pins that PriorityBased eviction
// retains only live entries: an older version the Retain callback approves
// must not shadow its newer version, and a deleted key must not come back,
// once their incarnation is evicted.
func TestPriorityBasedNeverResurrects(t *testing.T) {
	cfg, _ := testConfig(t)
	cfg.Policy = PriorityBased
	cfg.Retain = func(_, v uint64) bool { return v == 1 }
	b := mustNew(t, cfg)
	const n = 1000
	for i := uint64(1); i <= n; i++ {
		b.Insert(i, 1)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		if i%2 == 0 {
			b.Delete(i)
		} else {
			b.Insert(i, 2)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40000; i++ {
		b.Insert(1<<40+i, 3) // churn that evicts both incarnations
	}
	if b.Stats().PartialScans == 0 {
		t.Fatal("no partial-discard scan ran; retune the churn")
	}
	old, back := 0, 0
	for i := uint64(1); i <= n; i++ {
		res, err := b.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%2 == 0 && res.Found:
			back++
		case i%2 == 1 && res.Found && res.Value != 2:
			old++
		}
	}
	if old != 0 || back != 0 {
		t.Fatalf("%d/%d updated keys read their older version, %d/%d deleted keys came back", old, n/2, back, n/2)
	}
}

func TestCascadeHistogramPopulated(t *testing.T) {
	// Figure 8(b): partial discard with mostly-live incarnations cascades.
	cfg, _ := testConfig(t)
	cfg.Policy = UpdateBased
	b := mustNew(t, cfg)
	for i := uint64(0); i < 120000; i++ {
		b.Insert(i, i) // unique keys: everything stays live -> cascades
	}
	st := b.Stats()
	var tried uint64
	for i, c := range st.CascadeHist {
		if i >= 2 {
			tried += c
		}
	}
	t.Logf("cascades: %d flushes tried >=2 incarnations (total cascade events %d, reinserted %d)",
		tried, st.Cascades, st.Reinserted)
	if st.Cascades == 0 {
		t.Error("no cascaded evictions under all-live churn")
	}
	if st.Reinserted == 0 {
		t.Error("partial discard retained nothing")
	}
}

func TestDeleteListPruned(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	for i := uint64(0); i < 2000; i++ {
		b.Insert(i, i)
		b.Delete(i)
	}
	// Push k+1 flush generations through every super table.
	for i := uint64(0); i < 60000; i++ {
		b.Insert(1000000+i, i)
	}
	fp := b.MemoryFootprint()
	if fp.DeleteListBytes > 1000 {
		t.Errorf("delete lists not pruned: %d bytes", fp.DeleteListBytes)
	}
}

func TestChipLayoutPartitionedRegions(t *testing.T) {
	clock := vclock.New()
	chip := flashchip.New(flashchip.DefaultConfig(2<<20), clock)
	cfg := Config{
		Device:             chip,
		Clock:              clock,
		PartitionBits:      2,
		BufferBytes:        128 << 10, // one erase block
		NumIncarnations:    4,
		FilterBitsPerEntry: 16,
		Seed:               1,
	}
	b := mustNew(t, cfg)
	if b.layout != PartitionedRegions {
		t.Fatalf("layout = %d, want PartitionedRegions", b.layout)
	}
	const n = 120000 // ~2x chip capacity in entries
	for i := uint64(0); i < n; i++ {
		if err := b.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(n - 3000); i < n; i++ {
		res, err := b.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != i*3 {
			t.Fatalf("chip: recent key %d -> %+v", i, res)
		}
	}
	if chip.Counters().Erases == 0 {
		t.Fatal("region recycling never erased")
	}
}

func TestChipRequiresBlockMultiple(t *testing.T) {
	clock := vclock.New()
	chip := flashchip.New(flashchip.DefaultConfig(2<<20), clock)
	cfg := Config{
		Device:             chip,
		Clock:              clock,
		BufferBytes:        64 << 10, // half a block: rejected
		NumIncarnations:    4,
		FilterBitsPerEntry: 16,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("sub-block buffer accepted on raw flash")
	}
}

func TestDeviceFaultPropagates(t *testing.T) {
	cfg, _ := testConfig(t)
	dev := cfg.Device.(*ssd.SSD)
	b := mustNew(t, cfg)
	boom := errors.New("boom")
	dev.SetFault(func(op storage.Op, off int64, n int) error {
		if op == storage.OpWrite {
			return boom
		}
		return nil
	})
	var err error
	for i := uint64(0); i < 10000; i++ {
		if err = b.Insert(i, i); err != nil {
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("flush error not propagated: %v", err)
	}
}

func TestHeadlineLatencies(t *testing.T) {
	// §7.2.1 calibration: on the Intel profile, average insert ≈ 0.006 ms
	// and average lookup ≈ 0.06 ms at ~40% LSR.
	cfg, clock := testConfig(t)
	b := mustNew(t, cfg)
	const warm = 60000
	for i := uint64(0); i < warm; i++ {
		b.Insert(i, i)
	}
	// Measured phase: interleaved lookup-then-insert, like the paper's
	// workload (§7.2).
	var insTotal, lookTotal time.Duration
	const ops = 20000
	rng := rand.New(rand.NewSource(2))
	hits := 0
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(warm * 5 / 2))
		w := clock.StartWatch()
		res, err := b.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		lookTotal += w.Elapsed()
		if res.Found {
			hits++
		}
		w = clock.StartWatch()
		if err := b.Insert(uint64(warm)+uint64(i), 1); err != nil {
			t.Fatal(err)
		}
		insTotal += w.Elapsed()
	}
	insMs := float64(insTotal/ops) / float64(time.Millisecond)
	lookMs := float64(lookTotal/ops) / float64(time.Millisecond)
	t.Logf("avg insert %.4f ms (paper 0.006), avg lookup %.4f ms at %.0f%% LSR (paper 0.06)",
		insMs, lookMs, 100*float64(hits)/ops)
	if insMs > 0.03 {
		t.Errorf("insert latency %.4f ms too high", insMs)
	}
	if lookMs < 0.01 || lookMs > 0.2 {
		t.Errorf("lookup latency %.4f ms out of band", lookMs)
	}
}

func TestFlushForces(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	b.Insert(1, 10)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Flush", b.Len())
	}
	res, _ := b.Lookup(1)
	if !res.Found || res.Value != 10 {
		t.Fatalf("flushed key: %+v", res)
	}
	if res.FlashReads == 0 {
		t.Fatal("lookup after flush should hit flash")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		cfg, _ := testConfig(t)
		b := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 50000; i++ {
			k := uint64(rng.Intn(30000))
			if rng.Intn(3) == 0 {
				b.Lookup(k)
			} else {
				b.Insert(k, uint64(i))
			}
		}
		return b.Stats()
	}
	a, bb := run(), run()
	if a != bb {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, bb)
	}
}

func TestMemoryFootprint(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	fp := b.MemoryFootprint()
	if fp.BufferBytes != 4*64<<10 {
		t.Fatalf("BufferBytes = %d, want %d", fp.BufferBytes, 4*64<<10)
	}
	if fp.BloomBytes == 0 {
		t.Fatal("BloomBytes = 0")
	}
	if fp.Total() <= fp.BufferBytes {
		t.Fatal("Total() must exceed buffers alone")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[EvictionPolicy]string{FIFO: "fifo", LRU: "lru", UpdateBased: "update", PriorityBased: "priority"} {
		if p.String() != want {
			t.Errorf("String(%d) = %q", p, p.String())
		}
	}
	if EvictionPolicy(99).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestStatsHitRate(t *testing.T) {
	s := Stats{Lookups: 10, Hits: 4}
	if s.HitRate() != 0.4 {
		t.Fatalf("HitRate = %f", s.HitRate())
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.SpuriousRate() != 0 {
		t.Fatal("zero stats rates should be 0")
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Inserts: 1, Deletes: 2, Lookups: 10, Hits: 4, FlashProbes: 5,
		SpuriousProbes: 6, Flushes: 7, Evictions: 8, PartialScans: 9,
		Reinserted: 10, LRUReinserts: 11, Cascades: 12}
	a.LookupIOHist[0], a.LookupIOHist[7] = 3, 1
	a.CascadeHist[1] = 2
	b := Stats{Inserts: 100, Deletes: 200, Lookups: 1000, Hits: 400, FlashProbes: 500,
		SpuriousProbes: 600, Flushes: 700, Evictions: 800, PartialScans: 900,
		Reinserted: 1000, LRUReinserts: 1100, Cascades: 1200}
	b.LookupIOHist[0], b.LookupIOHist[2] = 30, 7
	b.CascadeHist[1], b.CascadeHist[64] = 20, 5
	a.Merge(b)
	if a.Inserts != 101 || a.Deletes != 202 || a.Lookups != 1010 || a.Hits != 404 {
		t.Fatalf("op counters wrong after merge: %+v", a)
	}
	if a.FlashProbes != 505 || a.SpuriousProbes != 606 || a.Flushes != 707 ||
		a.Evictions != 808 || a.PartialScans != 909 || a.Reinserted != 1010 ||
		a.LRUReinserts != 1111 || a.Cascades != 1212 {
		t.Fatalf("structural counters wrong after merge: %+v", a)
	}
	if a.LookupIOHist[0] != 33 || a.LookupIOHist[2] != 7 || a.LookupIOHist[7] != 1 {
		t.Fatalf("LookupIOHist wrong: %v", a.LookupIOHist)
	}
	if a.CascadeHist[1] != 22 || a.CascadeHist[64] != 5 {
		t.Fatalf("CascadeHist wrong: %v", a.CascadeHist)
	}
	// HitRate must reflect the pooled counts.
	if got, want := a.HitRate(), 404.0/1010.0; got != want {
		t.Fatalf("merged HitRate = %v, want %v", got, want)
	}
}

func TestMemoryFootprintAdd(t *testing.T) {
	a := MemoryFootprint{BufferBytes: 1, BloomBytes: 2, DeleteListBytes: 3, MetadataBytes: 4}
	a.Add(MemoryFootprint{BufferBytes: 10, BloomBytes: 20, DeleteListBytes: 30, MetadataBytes: 40})
	if a.Total() != 11+22+33+44 {
		t.Fatalf("footprint add: %+v", a)
	}
}

// --- batched lookup pipeline ---

// twinConfigs returns two structurally identical configs on independent
// devices and clocks, so a serial and a batched instance can be driven in
// lockstep and compared counter-for-counter.
func twinConfigs(t testing.TB) (Config, Config) {
	t.Helper()
	a, _ := testConfig(t)
	b, _ := testConfig(t)
	return a, b
}

// populateTwin inserts the same stream into both instances: nKeys keys from
// a fixed universe, enough to wrap the incarnation ring when heavy is set.
func populateTwin(t *testing.T, a, b *BufferHash, seed int64, nOps, nKeys int) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	universe := make([]uint64, nKeys)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	for i := 0; i < nOps; i++ {
		k := universe[rng.Intn(nKeys)]
		v := rng.Uint64()
		if err := a.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(20) == 0 {
			if err := a.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return universe
}

func checkBatchAgainstSerial(t *testing.T, serial, batched *BufferHash, universe []uint64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const batchSize = 64
	keys := make([]uint64, batchSize)
	results := make([]LookupResult, batchSize)
	for round := 0; round < 40; round++ {
		for i := range keys {
			if rng.Intn(3) == 0 {
				keys[i] = rng.Uint64() // mostly-absent key
			} else {
				keys[i] = universe[rng.Intn(len(universe))]
			}
		}
		if err := batched.LookupBatch(keys, results); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			want, err := serial.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if results[i] != want {
				t.Fatalf("round %d key %#x: batch %+v, serial %+v", round, k, results[i], want)
			}
		}
	}
	ss, bs := serial.Stats(), batched.Stats()
	if ss != bs {
		t.Fatalf("stats diverge:\nserial  %+v\nbatched %+v", ss, bs)
	}
	// The batched device must have performed no more physical reads than
	// the serial one (page dedupe can only reduce them) while probing the
	// same pages logically.
	sr := serial.Config().Device.Counters().Reads
	brr := batched.Config().Device.Counters().Reads
	if brr > sr {
		t.Fatalf("batched device reads %d > serial %d", brr, sr)
	}
}

func TestLookupBatchMatchesSerial(t *testing.T) {
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 301, 80000, 60000)
	checkBatchAgainstSerial(t, serial, batched, universe, 302)
	if batched.Stats().Evictions == 0 {
		t.Fatal("workload too small: want the eviction regime")
	}
}

func TestLookupBatchMatchesSerialNoBloom(t *testing.T) {
	ca, cb := twinConfigs(t)
	ca.DisableBloom, cb.DisableBloom = true, true
	ca.FilterBitsPerEntry, cb.FilterBitsPerEntry = 0, 0
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 303, 6000, 2000)
	checkBatchAgainstSerial(t, serial, batched, universe, 304)
}

func TestLookupBatchMatchesSerialUpdatePolicy(t *testing.T) {
	ca, cb := twinConfigs(t)
	ca.Policy, cb.Policy = UpdateBased, UpdateBased
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 305, 12000, 4000)
	checkBatchAgainstSerial(t, serial, batched, universe, 306)
}

func TestLookupBatchFlashChipEquivalence(t *testing.T) {
	// The raw chip path exercises PartitionedRegions placement and the
	// chip's multi-plane read overlap.
	mk := func() *BufferHash {
		clock := vclock.New()
		cfg := Config{
			Clock:              clock,
			PartitionBits:      1,
			BufferBytes:        128 << 10,
			NumIncarnations:    4,
			FilterBitsPerEntry: 16,
			Seed:               42,
		}
		cfg.Device = flashchip.New(flashchip.DefaultConfig(1<<20), clock)
		return mustNew(t, cfg)
	}
	serial, batched := mk(), mk()
	universe := populateTwin(t, serial, batched, 307, 9000, 3000)
	checkBatchAgainstSerial(t, serial, batched, universe, 308)
}

// hugeDevice reports a capacity of 2^62 bytes: more 4 KB probe pages than
// a batched lookup's packed probe word can number.
type hugeDevice struct{ storage.Device }

func (h hugeDevice) Geometry() storage.Geometry {
	g := h.Device.Geometry()
	g.Capacity = 1 << 62
	return g
}

func TestLookupBatchVirtualTimeOverlap(t *testing.T) {
	// On a queued device the batch must finish sooner in virtual time than
	// the serial loop, while answering identically (checked above).
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 309, 12000, 4000)

	rng := rand.New(rand.NewSource(310))
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = universe[rng.Intn(len(universe))]
	}
	results := make([]LookupResult, len(keys))

	st0 := serial.cfg.Clock.Now()
	for _, k := range keys {
		if _, err := serial.Lookup(k); err != nil {
			t.Fatal(err)
		}
	}
	serialTime := serial.cfg.Clock.Now() - st0

	bt0 := batched.cfg.Clock.Now()
	if err := batched.LookupBatch(keys, results); err != nil {
		t.Fatal(err)
	}
	batchTime := batched.cfg.Clock.Now() - bt0

	if batched.Stats().FlashProbes == 0 {
		t.Fatal("workload has no flash probes; overlap untested")
	}
	if batchTime >= serialTime {
		t.Fatalf("batch virtual time %v not below serial %v", batchTime, serialTime)
	}
	t.Logf("virtual time: serial %v, batched %v (%.1fx)", serialTime, batchTime,
		float64(serialTime)/float64(batchTime))
}

func TestLookupBatchLengthMismatch(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	if err := b.LookupBatch(make([]uint64, 3), make([]LookupResult, 2)); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// --- batched insert pipeline ---

// driveInsertTwin feeds the same insert/delete stream into both instances:
// serial per-key calls on one, windowed InsertBatch/DeleteBatch calls of
// varying size on the other. The window sizes are deliberately ragged so
// flush points land both inside and at the edges of batches.
func driveInsertTwin(t *testing.T, serial, batched *BufferHash, seed int64, nOps, nKeys int, pDelete float64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	universe := make([]uint64, nKeys)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	var (
		insKeys, insVals []uint64
		delKeys          []uint64
	)
	flushIns := func() {
		if len(insKeys) == 0 {
			return
		}
		if err := batched.InsertBatch(insKeys, insVals); err != nil {
			t.Fatal(err)
		}
		insKeys, insVals = insKeys[:0], insVals[:0]
	}
	flushDel := func() {
		if len(delKeys) == 0 {
			return
		}
		if err := batched.DeleteBatch(delKeys); err != nil {
			t.Fatal(err)
		}
		delKeys = delKeys[:0]
	}
	window := 1 + rng.Intn(700)
	for i := 0; i < nOps; i++ {
		k := universe[rng.Intn(nKeys)]
		if rng.Float64() < pDelete {
			if err := serial.Delete(k); err != nil {
				t.Fatal(err)
			}
			flushIns() // preserve order across op kinds
			delKeys = append(delKeys, k)
			continue
		}
		v := rng.Uint64()
		if err := serial.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		flushDel()
		insKeys, insVals = append(insKeys, k), append(insVals, v)
		if len(insKeys) >= window {
			flushIns()
			window = 1 + rng.Intn(700)
		}
	}
	flushIns()
	flushDel()
	return universe
}

// checkInsertTwin asserts the two instances ended byte-identical in every
// observable way: exact core-counter equality and identical results for
// every universe key plus a sample of absent keys.
func checkInsertTwin(t *testing.T, serial, batched *BufferHash, universe []uint64, seed int64) {
	t.Helper()
	if ss, bs := serial.Stats(), batched.Stats(); ss != bs {
		t.Fatalf("core counters diverge after inserts:\nserial  %+v\nbatched %+v", ss, bs)
	}
	rng := rand.New(rand.NewSource(seed))
	probe := func(k uint64) {
		sw, err := serial.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := batched.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if sw != bw {
			t.Fatalf("post-state lookup(%#x): serial %+v, batched %+v", k, sw, bw)
		}
	}
	for _, k := range universe {
		probe(k)
	}
	for i := 0; i < 2000; i++ {
		probe(rng.Uint64())
	}
	if ss, bs := serial.Stats(), batched.Stats(); ss != bs {
		t.Fatalf("core counters diverge after post-state lookups:\nserial  %+v\nbatched %+v", ss, bs)
	}
}

func TestInsertBatchMatchesSerial(t *testing.T) {
	// SharedLog on the Intel SSD, eviction regime: the global slot cursor
	// and cross-partition reclamation must interleave exactly as serial.
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := driveInsertTwin(t, serial, batched, 401, 90000, 30000, 0.08)
	checkInsertTwin(t, serial, batched, universe, 402)
	if batched.Stats().Evictions == 0 {
		t.Fatal("workload too small: want the eviction regime")
	}
}

func TestInsertBatchMatchesSerialUpdatePolicy(t *testing.T) {
	// Partial discard on PartitionedRegions with a single tiny super table:
	// one batch triggers enough flushes to wrap the incarnation ring, so
	// eviction scans must read images whose writes are still staged.
	mk := func() *BufferHash {
		clock := vclock.New()
		return mustNew(t, Config{
			Device:             ssd.New(ssd.IntelX18M(), 1<<20, clock),
			Clock:              clock,
			PartitionBits:      0,
			BufferBytes:        8 << 10,
			NumIncarnations:    3,
			FilterBitsPerEntry: 16,
			Policy:             UpdateBased,
			Seed:               42,
		})
	}
	serial, batched := mk(), mk()
	universe := driveInsertTwin(t, serial, batched, 403, 20000, 3000, 0.10)
	checkInsertTwin(t, serial, batched, universe, 404)
	if batched.Stats().PartialScans == 0 {
		t.Fatal("update policy never scanned an incarnation; retune the test")
	}
}

func TestInsertBatchFlashChipEquivalence(t *testing.T) {
	// Raw NAND: erase-before-write slot recycling, program-order frontiers,
	// and the same-slot staged-write replacement within one batch.
	mk := func() *BufferHash {
		clock := vclock.New()
		return mustNew(t, Config{
			Device:             flashchip.New(flashchip.DefaultConfig(1<<20), clock),
			Clock:              clock,
			PartitionBits:      1,
			BufferBytes:        128 << 10,
			NumIncarnations:    2,
			FilterBitsPerEntry: 16,
			Seed:               42,
		})
	}
	serial, batched := mk(), mk()
	universe := driveInsertTwin(t, serial, batched, 405, 60000, 20000, 0.05)
	checkInsertTwin(t, serial, batched, universe, 406)
	if batched.Stats().Evictions == 0 {
		t.Fatal("chip ring never wrapped; retune the test")
	}
}

func TestInsertBatchDuplicateKeysMemoized(t *testing.T) {
	// A heavily skewed batch: most occurrences hit the last-write-wins
	// memo, and the outcome must still match serial exactly.
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	rng := rand.New(rand.NewSource(409))
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = rng.Uint64()
	}
	keys := make([]uint64, 20000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = hot[rng.Intn(len(hot))]
		vals[i] = rng.Uint64()
	}
	for i := range keys {
		if err := serial.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	checkInsertTwin(t, serial, batched, hot, 410)
	if got := serial.cfg.Clock.Now(); got != batched.cfg.Clock.Now() {
		t.Fatalf("virtual clocks diverge on a flush-free duplicate stream: serial %v, batched %v",
			got, batched.cfg.Clock.Now())
	}
}

func TestInsertBatchVirtualTimeOverlap(t *testing.T) {
	// Once flushes happen, the batch's overlapped sequential writes must
	// finish sooner in virtual time than the serial per-flush writes.
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	rng := rand.New(rand.NewSource(411))
	keys := make([]uint64, 60000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = uint64(i)
	}
	st0 := serial.cfg.Clock.Now()
	for i := range keys {
		if err := serial.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	serialTime := serial.cfg.Clock.Now() - st0
	bt0 := batched.cfg.Clock.Now()
	if err := batched.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	batchTime := batched.cfg.Clock.Now() - bt0
	if batched.Stats().Flushes == 0 {
		t.Fatal("workload has no flushes; overlap untested")
	}
	if batchTime >= serialTime {
		t.Fatalf("batch virtual time %v not below serial %v", batchTime, serialTime)
	}
	t.Logf("virtual time: serial %v, batched %v (%.2fx), %d flushes",
		serialTime, batchTime, float64(serialTime)/float64(batchTime), batched.Stats().Flushes)
}

func TestInsertBatchLengthMismatch(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	if err := b.InsertBatch(make([]uint64, 3), make([]uint64, 2)); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// TestReadImageStableAcrossFlushes pins the fix for the old scratch-buffer
// hazard: an image returned by readImage must stay intact across
// interleaved flushes (which serialize fresh images) and further reads,
// because every caller now owns a distinct pooled buffer.
func TestReadImageStableAcrossFlushes(t *testing.T) {
	cfg, _ := testConfig(t)
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(412))
	// Fill until at least two incarnations exist somewhere.
	var st *superTable
	for i := 0; st == nil; i++ {
		if err := b.Insert(rng.Uint64(), uint64(i)); err != nil {
			t.Fatal(err)
		}
		for _, p := range b.parts {
			if p.live >= 2 {
				st = p
				break
			}
		}
		if i > 1<<20 {
			t.Fatal("never flushed twice")
		}
	}
	a1 := st.incs[st.oldest()].addr
	a2 := st.incs[st.oldest()+1].addr
	img1, err := b.readImage(a1)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), img1...)
	// Interleave: another image read, then enough inserts to force more
	// flush serializations.
	img2, err := b.readImage(a2)
	if err != nil {
		t.Fatal(err)
	}
	flushes := b.Stats().Flushes
	for b.Stats().Flushes < flushes+3 {
		if err := b.Insert(rng.Uint64(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if string(img1) != string(snap) {
		t.Fatal("readImage buffer was clobbered by interleaved reads/flushes")
	}
	b.releaseImage(img2)
	b.releaseImage(img1)
}

func TestDeleteBatchMatchesSerial(t *testing.T) {
	ca, cb := twinConfigs(t)
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 413, 20000, 8000)
	dels := make([]uint64, 0, len(universe)/2)
	for i, k := range universe {
		if i%2 == 0 {
			dels = append(dels, k)
		}
	}
	for _, k := range dels {
		if err := serial.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.DeleteBatch(dels); err != nil {
		t.Fatal(err)
	}
	checkInsertTwin(t, serial, batched, universe, 414)
	if got := serial.cfg.Clock.Now(); got != batched.cfg.Clock.Now() {
		t.Fatalf("delete batch clock diverges: serial %v, batched %v", got, batched.cfg.Clock.Now())
	}
}
