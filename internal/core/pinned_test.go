package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flashchip"
	"repro/internal/vclock"
)

// pinnedRun drives a fixed mixed stream of per-key Insert, Lookup and
// Delete calls plus occasional Flush calls, and returns the final virtual
// clock, a digest of the final Stats and a digest of every LookupResult.
func pinnedRun(t *testing.T, b *BufferHash) (clock time.Duration, statsDigest, resultsDigest uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1101))
	universe := make([]uint64, 60000)
	for i := range universe {
		universe[i] = rng.Uint64()
	}
	rh := fnv.New64a()
	for i := 0; i < 150000; i++ {
		k := universe[rng.Intn(len(universe))]
		switch r := rng.Intn(100); {
		case r < 55:
			if err := b.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		case r < 92:
			res, err := b.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(rh, "%d %t %d %d;", res.Value, res.Found, res.FlashReads, res.Spurious)
		case r < 99:
			if err := b.Delete(k); err != nil {
				t.Fatal(err)
			}
		default:
			if i%7 == 0 {
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sh := fnv.New64a()
	fmt.Fprintf(sh, "%+v", b.Stats())
	return b.cfg.Clock.Now(), sh.Sum64(), rh.Sum64()
}

// TestSerialOpsPinned pins the absolute behaviour of the per-key operations
// — virtual clock, counters and every lookup answer — to constants captured
// before the per-key calls became one-key batches. The one deliberate model
// change is that the images of one eviction cascade are written as one
// overlapped submission; only UpdateBased cascades at this size, so only
// its clock may move, and only downward.
func TestSerialOpsPinned(t *testing.T) {
	type want struct {
		clock                time.Duration
		statsDigest, results uint64
	}
	// Captured from the per-key implementation that predates one-key
	// batches. UpdateBased cascades 31 (ssd) and 21 (chip) times here; no
	// other policy cascades. The priority rows were re-captured when
	// PriorityBased eviction began retaining only live entries, which
	// changes its scans, flushes and answers by design.
	pins := map[string]want{
		"ssd/fifo":      {2981419520, 0x55a692ea78601584, 0xa230165b4a46cb69},
		"ssd/lru":       {2982640164, 0xd84314bc1aaa236a, 0x5c19ea68cd55d4a6},
		"ssd/update":    {8438394658, 0x7c6097bd4fb9740d, 0xe48c6c53f97c235},
		"ssd/priority":  {4006404332, 0x3d6c0688f5b00580, 0x40f17a6019ca5689},
		"chip/fifo":     {4817216180, 0x32b88eabb0b345d6, 0xe913f5c000b52407},
		"chip/lru":      {4819161560, 0xc0f160235eec54e8, 0xc6e16ea044b79a88},
		"chip/update":   {17287109060, 0x7273777a3875754a, 0x5af127cb1d5eb1cb},
		"chip/priority": {9364522540, 0x49c2984592b47a00, 0x40f17a6019ca5689},
	}
	for _, dev := range []string{"ssd", "chip"} {
		for _, policy := range []EvictionPolicy{FIFO, LRU, UpdateBased, PriorityBased} {
			name := dev + "/" + policy.String()
			t.Run(name, func(t *testing.T) {
				var cfg Config
				if dev == "ssd" {
					cfg, _ = testConfig(t)
				} else {
					clock := vclock.New()
					cfg = Config{
						Device:             flashchip.New(flashchip.DefaultConfig(1<<20), clock),
						Clock:              clock,
						PartitionBits:      1,
						BufferBytes:        128 << 10,
						NumIncarnations:    4,
						FilterBitsPerEntry: 16,
						Seed:               42,
					}
				}
				cfg.Policy = policy
				cfg.Retain = func(_, v uint64) bool { return v%8 == 0 }
				b := mustNew(t, cfg)
				clock, sd, rd := pinnedRun(t, b)
				t.Logf("%q: {%d, %#x, %#x}, // %d cascades", name, int64(clock), sd, rd, b.Stats().Cascades)
				w, ok := pins[name]
				if !ok {
					t.Fatalf("no pin for %s", name)
				}
				if sd != w.statsDigest || rd != w.results {
					t.Fatalf("stats/results digest %#x/%#x, pinned %#x/%#x", sd, rd, w.statsDigest, w.results)
				}
				if policy == UpdateBased {
					if clock > w.clock {
						t.Fatalf("virtual clock %v above pinned %v", clock, w.clock)
					}
				} else if clock != w.clock {
					t.Fatalf("virtual clock %v, pinned %v", clock, w.clock)
				}
			})
		}
	}
}
