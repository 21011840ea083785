package clam

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// pinnedStream shapes singleStoreRun's stream: its key universe's U64
// and byte keys are scale times 3,000 and 2,000, and noFlush skips the
// Flush calls (the stream draws the same random numbers).
type pinnedStream struct {
	scale   int
	noFlush bool
}

// singleStoreRun drives a fixed mixed stream through a one-shard store:
// both key families, every per-key call, one-key and ragged batches that
// cross chunk boundaries, ContainsBatch, Flush and idle clock advances. It
// returns the final virtual clock, a digest of the final Stats and a
// digest of every returned value, found flag and error string, in call
// order.
func singleStoreRun(t *testing.T, c *CLAM, shape pinnedStream) (clock time.Duration, statsDigest, resultsDigest uint64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1201))
	ukeys := make([]uint64, 3000*shape.scale)
	for i := range ukeys {
		ukeys[i] = rng.Uint64()
	}
	bkeys := make([][]byte, 2000*shape.scale)
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
		case r < 20:
			out(nil, false, c.PutU64(uk, uint64(i)))
		case r < 34:
			v, ok, err := c.GetU64(uk)
			out(v, ok, err)
		case r < 37:
			out(nil, false, c.DeleteU64(uk))
		case r < 40:
			_, ok, err := c.GetU64(uk)
			out(nil, ok, err)
		case r < 58:
			out(nil, false, c.Put(bk, value(i)))
		case r < 72:
			v, ok, err := c.Get(bk)
			out(v, ok, err)
		case r < 75:
			out(nil, false, c.Delete(bk))
		case r < 78:
			found, err := c.ContainsBatch(ctx, [][]byte{bk})
			out(nil, err == nil && found[0], err)
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
			c.Clock().Advance(time.Duration(rng.Intn(1000)) * time.Microsecond)
		default:
			if rng.Intn(6) == 0 && !shape.noFlush {
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
	// Every row but no-flush evicts (UpdateBased scanning its victims) and
	// wraps the value log once; no row cascades or expires an incarnation
	// (every row serves U64 puts from its first few ops), and no such
	// row's device waits do flush work or its lookups probe a held image
	// (FlushCPUHidden and PendingProbes are 0): its Flush calls, one op in
	// about 66, land the flushes' work and write their images first. The
	// no-flush row runs the stream over ten times the keys with no Flush
	// call, so its puts fill buffers: its waits must do flush work and
	// insert work, and its lookups probe held images. The rule: the result
	// digests never move; the clocks and stats digests move only with a
	// CHANGES.md entry that says what moved and why. CHANGES.md keeps the
	// history of every re-capture.
	pins := map[string]want{
		"ssd-intel/fifo":          {1829893326, 0x6bd79d3bdd228c3f, 0xa4fa745b9667f5f7},
		"ssd-intel/lru":           {1953191676, 0xd84ab12c963fd01c, 0x250dc63872a2a435},
		"ssd-intel/update":        {2242585642, 0x926ced2294174f20, 0xd012fe75d3aecd66},
		"ssd-transcend/fifo":      {7030589498, 0xc1b42fa5206d8c2b, 0xa4fa745b9667f5f7},
		"ssd-transcend/lru":       {7285343010, 0x3078a2248d2923b, 0x250dc63872a2a435},
		"ssd-transcend/update":    {8959524990, 0xaf554bee1bdd623e, 0xd012fe75d3aecd66},
		"ssd-intel/fifo/no-flush": {413553624, 0x8ebd742a0f8d5167, 0x330419adb7ed701e},
	}
	type row struct {
		name   string
		kind   DeviceKind
		policy Policy
		shape  pinnedStream
	}
	var rows []row
	for kind, dev := range []string{IntelSSD: "ssd-intel", TranscendSSD: "ssd-transcend"} {
		for _, policy := range []Policy{FIFO, LRU, UpdateBased} {
			rows = append(rows, row{dev + "/" + policy.String(), DeviceKind(kind), policy, pinnedStream{scale: 1}})
		}
	}
	rows = append(rows, row{"ssd-intel/fifo/no-flush", IntelSSD, FIFO, pinnedStream{scale: 10, noFlush: true}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c := openCLAMT(t, WithDevice(r.kind), WithFlash(2<<20), WithMemory(512<<10),
				WithBufferKB(16), WithValueLog(1<<20), withBatchChunk(64), WithPolicy(r.policy), WithSeed(12))
			clock, sd, rd := singleStoreRun(t, c, r.shape)
			st := c.Stats()
			t.Logf("%q: {%d, %#x, %#x}, // %d evictions, %d cascades, %d log wraps",
				r.name, int64(clock), sd, rd, st.Core.Evictions, st.Core.Cascades, st.ValueLog.Wraps)
			t.Logf("%v of flush and %v of insert work hidden, %d probes of held images",
				st.Core.FlushCPUHidden, st.Core.InsertCPUHidden, st.Core.PendingProbes)
			if r.shape.noFlush && (st.Core.FlushCPUHidden == 0 || st.Core.InsertCPUHidden == 0 || st.Core.PendingProbes == 0) {
				t.Fatal("the stream without Flush calls must hide flush and insert work in its waits and probe held images")
			}
			w, ok := pins[r.name]
			if !ok {
				t.Fatalf("no pin for %s", r.name)
			}
			if clock != w.clock || sd != w.statsDigest || rd != w.results {
				t.Fatalf("clock %d, stats/results digest %#x/%#x; pinned %d, %#x/%#x",
					int64(clock), sd, rd, int64(w.clock), w.statsDigest, w.results)
			}
		})
	}
}
