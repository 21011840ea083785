package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

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
		{"probe pages past the page-read bound", func(c *Config) { c.Device = hugeDevice{c.Device, 1<<32 + 1} }},
		{"one cache entry", func(c *Config) { c.CacheEntries = 1 }},
		{"cache entries not a power of two", func(c *Config) { c.CacheEntries = 96 }},
		{"negative cache entries", func(c *Config) { c.CacheEntries = -2 }},
		{"two timelines over one SSD", func(c *Config) { c.DeviceClock = []*vclock.Clock{c.Clock, vclock.New()} }},
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
	atBound := good
	atBound.Device = hugeDevice{good.Device, 1 << 32}
	if _, err := New(atBound); err != nil {
		t.Fatalf("device of 2^32 probe pages rejected: %v", err)
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
	b.Insert(7, 2)
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

func TestDisableBitsliceOnlyPrices(t *testing.T) {
	// DisableBitslice prices the §7.3.1 ablation and nothing else: the
	// same bit-sliced bank answers, so every result, counter and the
	// memory footprint match, and the clock runs further by exactly
	// BloomQueryNaive − BloomQuery per Bloom query, over one-key lookups
	// and a batch with repeated keys, whose repeats query nothing.
	type run struct {
		results []LookupResult
		repeat  []bool // results[i] answered a repeated batch key
		batch   int    // results[batch:] are the batch's
		stats   Stats
		mem     MemoryFootprint
		clock   time.Duration
	}
	do := func(disable bool) run {
		cfg, clock := testConfig(t)
		cfg.DisableBitslice = disable
		b := mustNew(t, cfg)
		for i := uint64(0); i < 30000; i++ {
			if err := b.Insert(i, i^0xFF); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(9))
		var r run
		for i := 0; i < 5000; i++ {
			k := uint64(rng.Intn(60000))
			res, err := b.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found && res.Value != k^0xFF {
				t.Fatalf("wrong value for %d", k)
			}
			r.results = append(r.results, res)
		}
		keys := make([]uint64, 2048)
		for i := range keys {
			keys[i] = uint64(rng.Intn(60000) / 8 * 8)
		}
		batch := make([]LookupResult, len(keys))
		if err := b.LookupBatch(keys, batch); err != nil {
			t.Fatal(err)
		}
		r.batch = len(r.results)
		r.repeat = make([]bool, len(r.results)+len(batch))
		for _, rp := range b.Repeats() {
			r.repeat[len(r.results)+int(rp.Pos)] = true
		}
		r.results = append(r.results, batch...)
		r.stats, r.mem, r.clock = b.Stats(), b.MemoryFootprint(), clock.Now()
		return r
	}
	sliced, naive := do(false), do(true)
	// Every super table holds live incarnations, so every lookup queried
	// the Bloom bank before its buffer, buffer hits included: each one-key
	// lookup and each of the batch's distinct keys.
	queries := 0
	for i, res := range naive.results {
		if res != sliced.results[i] {
			t.Fatalf("lookup %d = %+v, bit-sliced %+v", i, res, sliced.results[i])
		}
		if !naive.repeat[i] {
			queries++
		}
	}
	if naive.stats != sliced.stats {
		t.Fatalf("stats %+v, bit-sliced %+v", naive.stats, sliced.stats)
	}
	if naive.mem != sliced.mem {
		t.Fatalf("footprint %+v, bit-sliced %+v", naive.mem, sliced.mem)
	}
	cpu := DefaultCPUCosts()
	if got, want := naive.clock-sliced.clock, time.Duration(queries)*(cpu.BloomQueryNaive-cpu.BloomQuery); got != want {
		t.Fatalf("clock ahead by %v, want %v for %d Bloom queries", got, want, queries)
	}
	if sliced.stats.Hits == 0 || sliced.stats.Hits == sliced.stats.Lookups {
		t.Fatalf("want both hits and misses, got %d hits in %d lookups", sliced.stats.Hits, sliced.stats.Lookups)
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

// TestNoBloomNeverResurrects: without Bloom filters, partial discard
// cannot rule out a newer version of a scanned entry, so it must discard
// the entry rather than re-insert it over that version.
func TestNoBloomNeverResurrects(t *testing.T) {
	for _, policy := range []EvictionPolicy{UpdateBased, PriorityBased} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg, _ := testConfig(t)
			cfg.DisableBloom = true
			cfg.Policy = policy
			cfg.Retain = func(_, _ uint64) bool { return true }
			b := mustNew(t, cfg)
			const n = 1000
			for v := uint64(1); v <= 2; v++ {
				for i := uint64(1); i <= n; i++ {
					b.Insert(i, v)
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(0); i < 40000; i++ {
				b.Insert(1<<40+i, 3) // churn that evicts both incarnations
			}
			if b.Stats().PartialScans == 0 {
				t.Fatal("no partial-discard scan ran; retune the churn")
			}
			old := 0
			for i := uint64(1); i <= n; i++ {
				res, err := b.Lookup(i)
				if err != nil {
					t.Fatal(err)
				}
				if res.Found && res.Value != 2 {
					old++
				}
			}
			if old != 0 {
				t.Fatalf("%d/%d keys read their older version", old, n)
			}
		})
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

// TestAutoLayoutResolution pins AutoLayout's resolution per eviction
// policy: the shared log under FIFO and LRU, per-super-table rings under
// the partial-discard policies. Each store takes about twice its flash in
// entries, so every ring wraps and recent keys must still be found.
func TestAutoLayoutResolution(t *testing.T) {
	for _, tc := range []struct {
		policy EvictionPolicy
		want   Layout
	}{
		{FIFO, SharedLog},
		{LRU, SharedLog},
		{UpdateBased, PartitionedRegions},
		{PriorityBased, PartitionedRegions},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			clock := vclock.New()
			b := mustNew(t, Config{
				Device:             ssd.New(ssd.IntelX18M(), 2<<20, clock),
				Clock:              clock,
				PartitionBits:      2,
				BufferBytes:        128 << 10,
				NumIncarnations:    4,
				FilterBitsPerEntry: 16,
				Policy:             tc.policy,
				Retain:             func(_, v uint64) bool { return v%8 == 0 },
				Seed:               1,
			})
			if b.layout != tc.want {
				t.Fatalf("layout = %d, want %d", b.layout, tc.want)
			}
			const n = 120000 // ~2x the device's capacity in entries
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
					t.Fatalf("recent key %d -> %+v", i, res)
				}
			}
			if b.Stats().Evictions == 0 {
				t.Fatal("no ring wrapped; retune the test")
			}
		})
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
	for i, st := range b.parts {
		if n := st.buf.Len(); n != 0 {
			t.Fatalf("super table %d buffers %d entries after Flush", i, n)
		}
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
	if fp.DeleteListBytes+fp.MetadataBytes <= 0 {
		t.Fatalf("footprint %+v holds buffers and filters alone", fp)
	}
	if fp.CacheBytes != 0 {
		t.Fatalf("CacheBytes = %d with no cache", fp.CacheBytes)
	}
	cfg.CacheEntries = 256
	if got := mustNew(t, cfg).MemoryFootprint().CacheBytes; got != 256*CacheEntryBytes {
		t.Fatalf("CacheBytes = %d for 256 entries, want %d", got, 256*CacheEntryBytes)
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
	if zero.HitRate() != 0 {
		t.Fatal("zero stats hit rate should be 0")
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Inserts: 1, Deletes: 2, Lookups: 10, Hits: 4, CacheHits: 3, ScreenedProbes: 14,
		FlashProbes: 5, SpuriousProbes: 6, Flushes: 7, Evictions: 8, Expirations: 13, PartialScans: 9,
		Reinserted: 10, LRUReinserts: 11, Cascades: 12}
	a.LookupIOHist[0], a.LookupIOHist[7] = 3, 1
	a.CascadeHist[1] = 2
	b := Stats{Inserts: 100, Deletes: 200, Lookups: 1000, Hits: 400, CacheHits: 300, ScreenedProbes: 1400,
		FlashProbes: 500, SpuriousProbes: 600, Flushes: 700, Evictions: 800, Expirations: 1300, PartialScans: 900,
		Reinserted: 1000, LRUReinserts: 1100, Cascades: 1200}
	b.LookupIOHist[0], b.LookupIOHist[2] = 30, 7
	b.CascadeHist[1], b.CascadeHist[64] = 20, 5
	a.Merge(b)
	if a.Inserts != 101 || a.Deletes != 202 || a.Lookups != 1010 || a.Hits != 404 || a.CacheHits != 303 ||
		a.ScreenedProbes != 1414 {
		t.Fatalf("op counters wrong after merge: %+v", a)
	}
	if a.FlashProbes != 505 || a.SpuriousProbes != 606 || a.Flushes != 707 ||
		a.Evictions != 808 || a.PartialScans != 909 || a.Reinserted != 1010 ||
		a.LRUReinserts != 1111 || a.Cascades != 1212 || a.Expirations != 1313 {
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
	a := MemoryFootprint{BufferBytes: 1, BloomBytes: 2, DeleteListBytes: 3, MetadataBytes: 4, CacheBytes: 5}
	a.Add(MemoryFootprint{BufferBytes: 10, BloomBytes: 20, DeleteListBytes: 30, MetadataBytes: 40, CacheBytes: 50})
	if a != (MemoryFootprint{BufferBytes: 11, BloomBytes: 22, DeleteListBytes: 33, MetadataBytes: 44, CacheBytes: 55}) {
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
		c0 := batched.Config().Device.Counters()
		reads := c0.Reads - c0.ReadThrough
		if err := batched.LookupBatch(keys, results); err != nil {
			t.Fatal(err)
		}
		// A repeated key is resolved once, at its first occurrence, so the
		// serial twin looks up each distinct key once, in that order.
		// Probing round r of the call reads each distinct page its keys'
		// r-th probes land on once, though an earlier round read it.
		first := map[uint64]int{}
		var repeats []Repeat
		var roundPages []map[uint64]bool
		for i, k := range keys {
			if f, ok := first[k]; ok {
				repeats = append(repeats, Repeat{Pos: int32(i), First: int32(f)})
				if results[i] != results[f] {
					t.Fatalf("round %d key %#x repeated at %d: %+v, first occurrence %+v",
						round, k, i, results[i], results[f])
				}
				continue
			}
			first[k] = i
			for r, page := range probePages(batched, k, results[i].FlashReads) {
				if r == len(roundPages) {
					roundPages = append(roundPages, map[uint64]bool{})
				}
				roundPages[r][page] = true
			}
			want, err := serial.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if results[i] != want {
				t.Fatalf("round %d key %#x: batch %+v, serial %+v", round, k, results[i], want)
			}
		}
		if !slices.Equal(batched.Repeats(), repeats) {
			t.Fatalf("round %d: Repeats %v, want %v", round, batched.Repeats(), repeats)
		}
		var want uint64
		for _, pages := range roundPages {
			want += uint64(len(pages))
		}
		c := batched.Config().Device.Counters()
		if got := c.Reads - c.ReadThrough - reads; got != want {
			t.Fatalf("round %d: %d device reads not read through, want %d: each probing round's distinct pages once", round, got, want)
		}
	}
	ss, bs := serial.Stats(), batched.Stats()
	if ss != bs {
		t.Fatalf("stats diverge:\nserial  %+v\nbatched %+v", ss, bs)
	}
	// The batched device must have read no more pages for their own sake
	// than the serial one (page dedupe can only reduce them; read-through
	// pages only join runs) while probing the same pages logically.
	sc, bc := serial.Config().Device.Counters(), batched.Config().Device.Counters()
	if sr, brr := sc.Reads-sc.ReadThrough, bc.Reads-bc.ReadThrough; brr > sr {
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

// TestLookupBatchMatchesSerialFewFilterBits runs the twin check with two
// Bloom filter bits per entry: most keys have false-positive candidates,
// so batches run several probing rounds, and a later round meets pages an
// earlier round of the same call read.
func TestLookupBatchMatchesSerialFewFilterBits(t *testing.T) {
	ca, cb := twinConfigs(t)
	ca.FilterBitsPerEntry, cb.FilterBitsPerEntry = 2, 2
	serial, batched := mustNew(t, ca), mustNew(t, cb)
	universe := populateTwin(t, serial, batched, 309, 80000, 60000)
	checkBatchAgainstSerial(t, serial, batched, universe, 310)
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

func TestLookupBatchPartitionedEquivalence(t *testing.T) {
	// UpdateBased resolves AutoLayout to PartitionedRegions placement, here
	// over full-buffer incarnations on the Intel SSD's channel overlap.
	mk := func() *BufferHash {
		clock := vclock.New()
		b := mustNew(t, Config{
			Device:             ssd.New(ssd.IntelX18M(), 1<<20, clock),
			Clock:              clock,
			PartitionBits:      1,
			BufferBytes:        128 << 10,
			NumIncarnations:    4,
			FilterBitsPerEntry: 16,
			Policy:             UpdateBased,
			Seed:               42,
		})
		if b.layout != PartitionedRegions {
			t.Fatalf("layout = %d, want PartitionedRegions", b.layout)
		}
		return b
	}
	serial, batched := mk(), mk()
	universe := populateTwin(t, serial, batched, 307, 9000, 3000)
	checkBatchAgainstSerial(t, serial, batched, universe, 308)
}

// hugeDevice reports a capacity of pages of its device's pages, which
// are its probe pages: past 2^32 of them, more than a page-read set can
// number (storage.NewPageReads).
type hugeDevice struct {
	storage.Device
	pages int64
}

func (h hugeDevice) Geometry() storage.Geometry {
	g := h.Device.Geometry()
	g.Capacity = h.pages * int64(g.PageSize)
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

func TestLookupBatchOversizeRejected(t *testing.T) {
	// One key past MaxLookupBatch: the whole batch fails before any state
	// moves.
	cfg, clock := testConfig(t)
	b := mustNew(t, cfg)
	for i := uint64(0); i < 20000; i++ {
		if err := b.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, MaxLookupBatch+1)
	for i := range keys {
		keys[i] = uint64(i)
	}
	results := make([]LookupResult, len(keys))
	stats, now := b.Stats(), clock.Now()
	if err := b.LookupBatch(keys, results); err == nil {
		t.Fatalf("LookupBatch of %d keys succeeded, want the batch-limit error", len(keys))
	}
	if b.Stats() != stats || clock.Now() != now {
		t.Fatalf("rejected batch moved state: stats %+v -> %+v, clock %v -> %v", stats, b.Stats(), now, clock.Now())
	}
	if err := b.LookupBatch(keys[:MaxLookupBatch], results[:MaxLookupBatch]); err != nil {
		t.Fatalf("LookupBatch at the %d-key limit: %v", MaxLookupBatch, err)
	}
	if got := b.Stats().Lookups - stats.Lookups; got != MaxLookupBatch {
		t.Fatalf("limit batch counted %d lookups, want %d", got, MaxLookupBatch)
	}
}

// --- batched insert pipeline ---

// driveInsertTwin feeds the same insert/delete stream into both instances:
// one-key InsertBatch/DeleteBatch calls (Insert and Delete) on one,
// windowed calls of varying size on the other. The window sizes are
// deliberately ragged so flush points land both inside and at the edges
// of batches. Every key's displaced buffer word must be the one its
// one-key call displaced.
func driveInsertTwin(t *testing.T, serial, batched *BufferHash, seed int64, nOps, nKeys int, pDelete float64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	universe := make([]uint64, nKeys)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	var (
		insKeys, insVals, delKeys []uint64
		want                      []uint64 // the one-key calls' displaced words of the pending window
	)
	checkDisplaced := func(op string, got []uint64) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s window key %d displaced %#x, its one-key call %#x", op, i, got[i], want[i])
			}
		}
		want = want[:0]
	}
	flushIns := func() {
		if len(insKeys) == 0 {
			return
		}
		got := make([]uint64, len(insKeys))
		if err := batched.InsertBatch(insKeys, insVals, got); err != nil {
			t.Fatal(err)
		}
		checkDisplaced("insert", got)
		insKeys, insVals = insKeys[:0], insVals[:0]
	}
	flushDel := func() {
		if len(delKeys) == 0 {
			return
		}
		got := make([]uint64, len(delKeys))
		if err := batched.DeleteBatch(delKeys, got); err != nil {
			t.Fatal(err)
		}
		checkDisplaced("delete", got)
		delKeys = delKeys[:0]
	}
	var one [1]uint64
	window := 1 + rng.Intn(700)
	for i := 0; i < nOps; i++ {
		k := universe[rng.Intn(nKeys)]
		if rng.Float64() < pDelete {
			flushIns() // preserve order across op kinds
			if err := serial.DeleteBatch([]uint64{k}, one[:]); err != nil {
				t.Fatal(err)
			}
			delKeys, want = append(delKeys, k), append(want, one[0])
			continue
		}
		v := rng.Uint64()
		flushDel()
		if err := serial.InsertBatch([]uint64{k}, []uint64{v}, one[:]); err != nil {
			t.Fatal(err)
		}
		insKeys, insVals, want = append(insKeys, k), append(insVals, v), append(want, one[0])
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

func TestInsertBatchPartitionedEquivalence(t *testing.T) {
	// PartitionedRegions under UpdateBased: in-place slot recycling on a
	// two-slot ring, and the same-slot staged-write replacement within one
	// batch.
	mk := func() *BufferHash {
		clock := vclock.New()
		b := mustNew(t, Config{
			Device:             ssd.New(ssd.IntelX18M(), 1<<20, clock),
			Clock:              clock,
			PartitionBits:      1,
			BufferBytes:        128 << 10,
			NumIncarnations:    2,
			FilterBitsPerEntry: 16,
			Policy:             UpdateBased,
			Seed:               42,
		})
		if b.layout != PartitionedRegions {
			t.Fatalf("layout = %d, want PartitionedRegions", b.layout)
		}
		return b
	}
	serial, batched := mk(), mk()
	universe := driveInsertTwin(t, serial, batched, 405, 60000, 20000, 0.05)
	checkInsertTwin(t, serial, batched, universe, 406)
	if batched.Stats().Evictions == 0 {
		t.Fatal("ring never wrapped; retune the test")
	}
}

func TestInsertBatchDuplicateKeysOverwrite(t *testing.T) {
	// A heavily skewed batch: most occurrences find their key buffered
	// and overwrite it in place, and the outcome must still match serial
	// exactly.
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
	if err := batched.InsertBatch(keys, vals, nil); err != nil {
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
	if err := batched.InsertBatch(keys, vals, nil); err != nil {
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
	if err := b.InsertBatch(make([]uint64, 3), make([]uint64, 2), nil); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if err := b.InsertBatch(make([]uint64, 3), make([]uint64, 3), make([]uint64, 2)); err == nil {
		t.Fatal("want a displaced-length error")
	}
	if err := b.DeleteBatch(make([]uint64, 3), make([]uint64, 4)); err == nil {
		t.Fatal("want a displaced-length error")
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
	a1 := int64(st.incs[st.oldest()].page) * int64(b.probeN)
	a2 := int64(st.incs[st.oldest()+1].page) * int64(b.probeN)
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
	if err := batched.DeleteBatch(dels, nil); err != nil {
		t.Fatal(err)
	}
	checkInsertTwin(t, serial, batched, universe, 414)
	if got := serial.cfg.Clock.Now(); got != batched.cfg.Clock.Now() {
		t.Fatalf("delete batch clock diverges: serial %v, batched %v", got, batched.cfg.Clock.Now())
	}
}
