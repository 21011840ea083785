package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
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
	// batches. UpdateBased cascades 31 times here; no other policy
	// cascades. The priority rows were re-captured when
	// PriorityBased eviction began retaining only live entries, which
	// changes its scans, flushes and answers by design. The stats digests
	// were re-derived when Stats gained Expirations: each is the digest of
	// the previous %+v string with " Expirations:0" added after its
	// Evictions count. They were re-derived again when Stats gained
	// CacheHits: each is the digest of the previous %+v string with
	// " CacheHits:0" added after its Hits count (testConfig has no cache).
	// The fifo, lru and priority clocks and every stats digest were
	// re-captured when every lookup began to query the Bloom bank first
	// and skip the buffer probe of a key the staging filter rules out:
	// each %+v string has " ScreenedProbes:N" after its CacheHits count
	// (69 on fifo, lru and priority, 120 on update) and is otherwise
	// unchanged. The stream deletes often, so most super tables have
	// pending deletes and probe their buffers anyway, while each buffer
	// hit now pays a query before its probe: the clocks rose 167.0 µs
	// (fifo), 168.5 µs (lru), 465.5 µs (priority) and 2,266.0 µs
	// (update, still under its ceiling). Every clock and stats digest was
	// re-captured when a pending delete began to make a lookup probe the
	// buffer only for a key some incarnation's filter may hold: a key no
	// filter may hold is a miss, deleted or not. ScreenedProbes rose 69 →
	// 53,695 (fifo), 69 → 53,684 (lru), 120 → 31,500 (update) and 69 →
	// 50,802 (priority) of 55,297 lookups, every other counter and every
	// answer stayed, and the clocks fell 80.4 ms (fifo), 80.4 ms (lru),
	// 47.1 ms (update, from 8,399.9 ms) and 76.1 ms (priority).
	// The stats digests were re-derived when Stats gained PendingProbes,
	// FlushCPUHidden and FlushCPULanded: each %+v string gained
	// " PendingProbes:0" after SpuriousProbes and " FlushCPUHidden:0s
	// FlushCPULanded:…" after Cascades (1.2675s on fifo and lru, 1.755s on
	// update, 1.272s on priority: 1.5 ms per flush, all of it landed on a
	// device on the CPU's clock), and is otherwise unchanged. They were
	// re-derived again when Stats gained InsertCPUHidden and
	// InsertCPULanded: each %+v string gained " InsertCPUHidden:0s
	// InsertCPULanded:247.539ms" after FlushCPULanded (3 µs for each of
	// the 82,513 inserts, all of it landed on a device on the CPU's
	// clock), and is otherwise unchanged.
	pins := map[string]want{
		"ssd/fifo":     {2901147520, 0x8e59783694e1bf06, 0xa230165b4a46cb69},
		"ssd/lru":      {2902386164, 0x2c52b5d3724d6918, 0x5c19ea68cd55d4a6},
		"ssd/update":   {8352853186, 0x977a509402308f8d, 0xe48c6c53f97c235},
		"ssd/priority": {3930770332, 0xd5175b998d8be53c, 0x40f17a6019ca5689},
	}
	for _, policy := range []EvictionPolicy{FIFO, LRU, UpdateBased, PriorityBased} {
		name := "ssd/" + policy.String()
		t.Run(name, func(t *testing.T) {
			cfg, _ := testConfig(t)
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
