package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// TestLookupBatchProbeAllocs pins that phase B reserves no page per flash
// probe: the device hands each probe's page back as a view, so a lookup
// batch allocates only its per-key scratch. On a store whose index is on
// flash, one SSD or a stripe over two on clocks of their own (whose
// ReadBatch routes each view request to its member), with the batch
// scratch warmed by a small batch, one LookupBatch of keys that pend on at
// least 256 flash probes must allocate less than an eighth of a probe page
// per probe. A batch that repeats its keys, each repeat found by phase A's
// dedupe table, must allocate nothing once the same batch has warmed the
// scratch.
func TestLookupBatchProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation skews allocation totals; CI runs this guard in a non-race step")
	}
	t.Run("one-ssd", func(t *testing.T) {
		cfg, _ := testConfig(t)
		testProbeAllocs(t, cfg)
	})
	t.Run("stripe", func(t *testing.T) {
		cfg, _ := testConfig(t)
		prof := ssd.IntelX18M()
		a, b := vclock.New(), vclock.New()
		stripe, err := storage.NewStripe(prof.BlockSize(), ssd.New(prof, 512<<10, a), ssd.New(prof, 512<<10, b))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Device, cfg.DeviceClock = stripe, []*vclock.Clock{a, b}
		testProbeAllocs(t, cfg)
	})
}

func testProbeAllocs(t *testing.T, cfg Config) {
	b := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := b.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest keys were flushed: every one of them pends on a probe.
	results := make([]LookupResult, 2048)
	if err := b.LookupBatch(keys[:8], results[:8]); err != nil {
		t.Fatal(err)
	}
	probes0 := b.Stats().FlashProbes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := b.LookupBatch(keys[:len(results)], results)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	probes := b.Stats().FlashProbes - probes0
	if probes < 256 {
		t.Fatalf("the batch pended on %d flash probes, want at least 256", probes)
	}
	alloc, bound := after.TotalAlloc-before.TotalAlloc, probes*uint64(b.probeN)/8
	t.Logf("%d flash probes of %d bytes: %d bytes allocated", probes, b.probeN, alloc)
	if alloc >= bound {
		t.Errorf("LookupBatch allocated %d bytes for %d flash probes, want below %d (an eighth of a %d-byte page per probe)",
			alloc, probes, bound, b.probeN)
	}

	// The oldest 512 keys, each at four positions, the repeats behind
	// their first occurrences and interleaved with them.
	repeated := make([]uint64, 4*512)
	for i := range repeated {
		repeated[i] = keys[(i*7)%512]
	}
	lookup := func() {
		if err := b.LookupBatch(repeated, results); err != nil {
			t.Fatal(err)
		}
	}
	lookup()
	if n := len(b.Repeats()); n != len(repeated)-512 {
		t.Fatalf("the batch found %d repeats, want %d", n, len(repeated)-512)
	}
	if allocs := testing.AllocsPerRun(10, lookup); allocs != 0 {
		t.Errorf("a warmed LookupBatch of repeated keys allocates %.1f per call, want 0", allocs)
	}
}
