package clam

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// singleStoreRun drives a fixed mixed stream through a one-shard store:
// both key families, every per-key call, ragged batches that cross chunk
// boundaries, ContainsBatch, Flush and Elapse. It returns the final
// virtual clock, a digest of the final Stats and a digest of every
// returned value, found flag and error string, in call order.
func singleStoreRun(t *testing.T, c *CLAM) (clock time.Duration, statsDigest, resultsDigest uint64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1201))
	ukeys := make([]uint64, 3000)
	for i := range ukeys {
		ukeys[i] = rng.Uint64()
	}
	bkeys := make([][]byte, 2000)
	for i := range bkeys {
		bkeys[i] = []byte(fmt.Sprintf("key-%d-%s", i, make([]byte, rng.Intn(24))))
	}
	value := func(i int) []byte { return []byte(fmt.Sprintf("v%d-%s", i, make([]byte, rng.Intn(90)))) }
	uwin := func() []uint64 {
		n := 1 + rng.Intn(200)
		w := make([]uint64, n)
		for j := range w {
			w[j] = ukeys[rng.Intn(len(ukeys))]
		}
		return w
	}
	bwin := func() [][]byte {
		n := 1 + rng.Intn(200)
		w := make([][]byte, n)
		for j := range w {
			w[j] = bkeys[rng.Intn(len(bkeys))]
		}
		return w
	}
	rh := fnv.New64a()
	out := func(v any, found bool, err error) { fmt.Fprintf(rh, "%v %t %v;", v, found, err) }
	for i := 0; i < 6000; i++ {
		uk := ukeys[rng.Intn(len(ukeys))]
		bk := bkeys[rng.Intn(len(bkeys))]
		switch r := rng.Intn(100); {
		case r < 18:
			out(nil, false, c.PutU64(uk, uint64(i)))
		case r < 20:
			out(nil, false, c.UpdateU64(uk, uint64(i)))
		case r < 34:
			v, ok, err := c.GetU64(uk)
			out(v, ok, err)
		case r < 37:
			out(nil, false, c.DeleteU64(uk))
		case r < 40:
			ok, err := c.ContainsU64(uk)
			out(nil, ok, err)
		case r < 56:
			out(nil, false, c.Put(bk, value(i)))
		case r < 58:
			out(nil, false, c.Update(bk, value(i)))
		case r < 72:
			v, ok, err := c.Get(bk)
			out(v, ok, err)
		case r < 75:
			out(nil, false, c.Delete(bk))
		case r < 78:
			ok, err := c.Contains(bk)
			out(nil, ok, err)
		case r < 80:
			w := uwin()
			vals := make([]uint64, len(w))
			for j := range vals {
				vals[j] = uint64(i)<<16 | uint64(j)
			}
			out(nil, false, c.PutBatchU64(ctx, w, vals))
		case r < 82:
			vals, found, err := c.GetBatchU64(ctx, uwin())
			out(vals, false, err)
			out(found, false, nil)
		case r < 83:
			out(nil, false, c.DeleteBatchU64(ctx, uwin()))
		case r < 85:
			w := bwin()
			vals := make([][]byte, len(w))
			for j := range vals {
				vals[j] = value(i)
			}
			out(nil, false, c.PutBatch(ctx, w, vals))
		case r < 87:
			vals, found, err := c.GetBatch(ctx, bwin())
			out(vals, false, err)
			out(found, false, nil)
		case r < 88:
			out(nil, false, c.DeleteBatch(ctx, bwin()))
		case r < 90:
			found, err := c.ContainsBatch(ctx, bwin())
			out(found, false, err)
		case r < 91:
			c.Elapse(time.Duration(rng.Intn(1000)) * time.Microsecond)
		default:
			if rng.Intn(6) == 0 {
				out(nil, false, c.Flush())
			}
		}
	}
	sh := fnv.New64a()
	fmt.Fprintf(sh, "%+v", c.Stats())
	return c.Clock().Now(), sh.Sum64(), rh.Sum64()
}

// TestSingleStorePinned pins the absolute behaviour of a one-shard store —
// virtual clock, every Stats field and every answer — to constants
// captured when a single CLAM still had its own implementation of every
// Store method, before it became the one-shard case of the routed store.
// PriorityBased is left out: its eviction changed on purpose since.
func TestSingleStorePinned(t *testing.T) {
	type want struct {
		clock                time.Duration
		statsDigest, results uint64
	}
	// Captured at the commit before the collapse. No row cascades at this
	// size; every row evicts (UpdateBased scanning its victims) and wraps
	// the value log once.
	pins := map[string]want{
		"ssd-intel/fifo":       {2186117564, 0x359087bfe502c5a2, 0xa4fa745b9667f5f7},
		"ssd-intel/lru":        {2310946520, 0xefc241a751264fe4, 0x250dc63872a2a435},
		"ssd-intel/update":     {2627769282, 0x71a2bddfeb7afd5, 0xd012fe75d3aecd66},
		"ssd-transcend/fifo":   {15448346236, 0x39289428996c9d71, 0xa4fa745b9667f5f7},
		"ssd-transcend/lru":    {15664566680, 0x9aeeeb5609244b01, 0x250dc63872a2a435},
		"ssd-transcend/update": {18283665666, 0xcaf8f33b7383c7f, 0xd012fe75d3aecd66},
	}
	for _, kind := range []DeviceKind{IntelSSD, TranscendSSD} {
		for _, policy := range []Policy{FIFO, LRU, UpdateBased} {
			name := kind.String() + "/" + policy.String()
			t.Run(name, func(t *testing.T) {
				c := openCLAMT(t, WithDevice(kind), WithFlash(2<<20), WithMemory(512<<10),
					WithBufferKB(16), WithValueLog(1<<20), WithBatchChunk(64), WithPolicy(policy), WithSeed(12))
				clock, sd, rd := singleStoreRun(t, c)
				st := c.Stats()
				t.Logf("%q: {%d, %#x, %#x}, // %d evictions, %d cascades, %d log wraps",
					name, int64(clock), sd, rd, st.Core.Evictions, st.Core.Cascades, st.ValueLog.Wraps)
				w, ok := pins[name]
				if !ok {
					t.Fatalf("no pin for %s", name)
				}
				if clock != w.clock || sd != w.statsDigest || rd != w.results {
					t.Fatalf("clock %d, stats/results digest %#x/%#x; pinned %d, %#x/%#x",
						int64(clock), sd, rd, int64(w.clock), w.statsDigest, w.results)
				}
			})
		}
	}
}
