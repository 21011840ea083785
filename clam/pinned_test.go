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
// both key families, every per-key call, one-key and ragged batches that
// cross chunk boundaries, ContainsBatch, Flush and idle clock advances. It
// returns the final virtual clock, a digest of the final Stats and a
// digest of every returned value, found flag and error string, in call
// order.
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
	// the value log once. The stats digests were re-derived when
	// Stats.WriteLatency was removed: each is the digest of the old %+v
	// string with its " WriteLatency:n=… max=…" segment cut out. They were
	// re-derived again when ValueLogStats gained SkippedReads: each new
	// %+v string is the previous one with " SkippedReads:0" added, and
	// the clocks and result digests did not move. So were they when
	// core.Stats gained Expirations: each %+v string gained
	// " Expirations:0" after its Evictions count. Every row serves U64
	// puts from its first few ops, so no row expires an incarnation.
	// The clocks and stats digests were re-captured when the value-log
	// device got its own timeline: every clock fell (an append overlaps
	// its chunk's index work, record reads overlap later probe rounds),
	// the latency histograms and busy times moved with it, and the result
	// digests did not move. The stream's slots that once called the Update
	// aliases, the one-key existence probes and Elapse now call Put and
	// PutU64, GetU64's found flag, a one-key ContainsBatch and
	// Clock().Advance, which do the same work: no pin moved. The stats
	// digests were re-derived when the Bloom bank's slices shrank to the
	// smallest width holding k bits (4 to 2 bytes at k = 16): each new
	// %+v string is the old one with BloomBytes:811008 replaced by
	// BloomBytes:417792, and the clocks and result digests did not move.
	// The clocks and stats digests were re-captured when read batches
	// began to coalesce their repeated keys: a GetBatchU64, GetBatch or
	// ContainsBatch window that repeats a key resolves it once, so core's
	// Lookups, Hits, probe counters and LookupIOHist count distinct keys,
	// the lookup histogram counts the keys each chunk resolved, and each
	// repeat costs CPU.BatchCoalesce instead of a full phase-A lookup, so
	// every clock fell. The result digests did not move, LRU included.
	// The clocks and stats digests were re-captured when the index device
	// got its own timeline and phase A began to hand an idle device its
	// first probes: core counters and device Reads and BytesRead did not
	// move; the index device's BusyTime rose (split submissions earn fewer
	// sequential-run discounts), the lookup histogram moved with the
	// clock, the Intel clocks fell 1.0% to 1.2%, and the one-lane
	// Transcend clocks rose 0.02% to 0.17%, since their split submissions
	// overlap nothing but CPU. The result digests did not move.
	// The clocks and stats digests were re-captured when the value log
	// began to write whole erase blocks (128 KB, was 64 KB) that a put
	// chunk no longer waits for, and a byte lookup began to hand its hits
	// to the log while phase A runs. Only the value-log device's counters
	// and the latency histograms moved: on ssd-intel/fifo its writes went
	// 16 → 8, its reads 5,393 → 3,712 (the larger tail buffer serves more
	// records) and its busy time 195.0 → 145.5 ms. The Intel clocks fell
	// 1.9% to 2.2% and the Transcend clocks 5.0% to 5.9%. The result
	// digests did not move.
	// The clocks and stats digests were re-captured when core's phase A
	// took over a read batch's dedupe: a read window is one core call,
	// no longer split into withBatchChunk(64) chunks, and each repeat's
	// CPU.BatchCoalesce lands at its own position in phase A. Core
	// counters did not move. On both fifo rows the index device's reads
	// went 16,429 → 15,209 (a round dedupes its pages across the whole
	// window), the lookup histogram counts positions (36,967 → 38,039)
	// and the Intel index busy time fell 792.8 → 746.9 ms. The Intel
	// clocks fell 3.0% to 3.5% and the Transcend clocks 9.5% to 10.6%.
	// The result digests did not move.
	// The stats digests were re-derived when storage.Counters gained
	// ReadBusy and WriteBusy: each %+v string gained " ReadBusy:…
	// WriteBusy:…" after both devices' BusyTime, and the clocks and
	// result digests did not move. Then the clocks and stats digests were
	// re-captured when the value log began to read whole pages, each page
	// once per get chunk: only the value-log device's counters and the
	// latency histograms moved. On ssd-intel/fifo its reads went 3,712 →
	// 2,368, its bytes read 290,419 → 9,699,328 (whole pages) and its
	// busy time 144.9 → 106.7 ms; the index device's reads and busy time
	// did not move. The Intel clocks fell 1.6% to 1.8% and the Transcend
	// clocks 9.1% to 10.1%. The result digests did not move.
	// The clocks and stats digests were re-captured when core gained the
	// read-run hot-entry cache: its 1,024 entries take 24 KB of the 512 KB
	// budget, so BloomBytes went 417,792 → 391,680, and core.Stats gained
	// CacheHits. The stream's read runs are short and its keys spread, so
	// the cache answered 3 or 4 of 36,967 lookups per row and FlashProbes
	// fell by 4 at most (17,484 → 17,480 on both fifo rows); SpuriousProbes
	// did not move. Each read run's probes and fills are charged, so the
	// Intel clocks rose 0.26% to 0.31% and the Transcend clocks 0.01% to
	// 0.02%. The result digests did not move.
	// The clocks and stats digests were re-captured when a hookless read
	// batch began to query the Bloom bank first and run its Bloom-negative
	// keys' buffer probes after round 1's last pages went out, and phase A
	// to stream at most one page per lane per submission; core.Stats
	// gained DeferredProbes (9,905 on both fifo rows). Every other core
	// counter and the index device's reads and bytes read did not move.
	// The Intel index busy time fell 747.8 → 732.3 ms on the fifo row, the
	// lookup histogram moved with the clock, the Intel clocks fell 0.86%
	// to 0.94% and the one-lane Transcend clocks 0.003% to 0.005%. The
	// result digests did not move.
	// The clocks and stats digests were re-captured when every lookup
	// began to query the Bloom bank first and probe the buffer only when
	// the staging filter may hold the key or its super table has pending
	// deletes: core.Stats' DeferredProbes (9,905 on both fifo rows) became
	// ScreenedProbes (68 on every row; the stream deletes, so most tables
	// have pending deletes), every other core counter and both devices'
	// reads did not move, and each buffer hit now pays its query before
	// its probe. The Intel clocks rose 0.22% to 0.34% (the index busy
	// time 732.3 → 734.7 ms on the fifo row) and the Transcend clocks
	// 0.006% to 0.008%. The result digests did not move.
	// The clocks and stats digests were re-captured twice more, the result
	// digests moving neither time. When the value log was striped over
	// both SSDs (its 1 MB, eight erase blocks, alternating between the log
	// SSD and a partition of the index SSD), the Intel clocks rose 0.17%
	// to 0.52% (1,980,388,060 → 1,985,004,464 ns on fifo: the log's record
	// reads on the index SSD queue behind its probes, and its probes behind
	// them) and the Transcend clocks fell 0.71% to 1.59% (11,491,400,060 →
	// 11,409,550,672 on fifo), with ValueDevice counting both SSDs' log
	// I/O. When a pending delete began to make a lookup probe the buffer
	// only for a key some incarnation's filter may hold, ScreenedProbes
	// rose from 68 to 13,235 (fifo), 11,171 (lru) and 9,849 (update) of
	// 36,967 lookups, and the clocks fell 0.29% to 0.50% on Intel (to
	// 1,975,130,140 ns on fifo) and 0.01% to 0.02% on Transcend.
	// The stats digests were re-derived when Stats gained LentDedupes:
	// each %+v string gained " LentDedupes:0" after DeleteLatency's
	// summary (a one-shard store never lends), and the clocks and result
	// digests did not move.
	// The clocks and stats digests were re-captured when the index was
	// striped over both SSDs as the value log is (its 2 MB, sixteen erase
	// blocks, alternating between SSD A and SSD B): core counters and the
	// index's reads did not move; its busy time rose (731.5 → 832.4 ms on
	// Intel fifo: a submission split over two SSDs pays each one's fixed
	// costs), the lookup histogram moved with the clock, the Intel clocks
	// fell 3.1% to 3.4% (to 1,909,028,754 ns on fifo) and the one-lane
	// Transcend clocks 19.6% to 22.1%. The result digests did not move.
	// The clocks and stats digests were re-captured when a value-log
	// write unit became one erase block on each SSD, both written in one
	// submission (256 KB, was 128 KB on one SSD): the index's counters and
	// the log's writes and bytes written did not move; the 256 KB tail
	// buffer serves more records from memory, so on ssd-intel/fifo the
	// log's reads went 2,368 → 1,257 and its busy time 111.2 → 70.7 ms.
	// The Intel clocks fell 1.7% to 2.2% (to 1,867,183,116 ns on fifo) and
	// the Transcend clocks 3.1% to 4.0%. The result digests did not move.
	// The clocks and stats digests of the fifo, lru and update rows on
	// Intel and the lru and update rows on Transcend were re-captured when
	// a byte get chunk began to read its records in one submission after
	// its lookup, no longer in hand-offs while the index probed: the log's
	// requests did not move (1,257 on fifo), its busy time fell (70.7 →
	// 63.9 ms on Intel fifo: one submission chains more pages into
	// sequential runs), the lookup histogram moved with the clock, and the
	// Intel clocks fell 0.23% to 0.41% (to 1,862,972,044 ns on fifo) and
	// the Transcend ones 0.07% to 0.52%. Transcend fifo and every result
	// digest did not move.
	// The clocks and stats digests were re-captured when each SSD of the
	// index pair began to take its own phase-A probes (a lane group per
	// SSD, handed over while that SSD is idle, carrying the other idle
	// SSD's pages): core counters and the index's reads (15,206 on fifo)
	// did not move, the lookup histogram moved with the clock, the Intel
	// index busy time fell 832.4 → 788.3 ms on fifo, and the Intel clocks
	// fell 0.70% to 0.95% (to 1,845,350,708 ns on fifo). On the one-lane
	// Transcend SSDs a lane group is one page, so phase A splits round 1
	// into more submissions, each paying its fixed costs: the busy time
	// rose 9.527 → 9.580 s and the clocks 0.001% to 0.08%. The result
	// digests did not move.
	// The clocks and stats digests were re-captured when a page-read
	// submission of more pages than its device's lanes began to read
	// through holes of at most Geometry.ReadGap pages (3 on Intel, 10 on
	// Transcend), storage.Counters gained ReadThrough, and phase A stopped
	// handing one-page groups to one-lane timelines. Core counters and
	// each device's requests less those read through did not move (15,206
	// index and 1,257 log requests on both fifo rows). On ssd-intel/fifo
	// the index read 18,701 requests, 3,495 of them read through, and its
	// busy time fell 788.3 → 774.7 ms; the log read 1,483 (226 read
	// through) and its busy time fell 63.9 → 61.8 ms. The Intel clocks
	// fell 0.56% to 0.67% (to 1,834,999,860 ns on fifo). On
	// ssd-transcend/fifo the index read 36,377 requests, 21,171 of them
	// read through, and its busy time fell 9.580 → 7.182 s; the clocks fell
	// 16.1% to 17.9% (to 7,033,389,258 ns on fifo). With phase A's
	// one-page hand-overs kept, the Transcend clocks read 7,103,677,080,
	// 7,360,816,544 and 9,023,174,324 ns (fifo, lru, update): 0.67% to
	// 0.99% higher. The result digests did not move.
	pins := map[string]want{
		"ssd-intel/fifo":       {1834999860, 0x2c1389861f562847, 0xa4fa745b9667f5f7},
		"ssd-intel/lru":        {1958460308, 0x2d913ea1cb688a60, 0x250dc63872a2a435},
		"ssd-intel/update":     {2248473678, 0x3c7b38e35b13e9e6, 0xd012fe75d3aecd66},
		"ssd-transcend/fifo":   {7033389258, 0x6faaa56dfcf0cb3, 0xa4fa745b9667f5f7},
		"ssd-transcend/lru":    {7287988050, 0xff5b5277c8407e22, 0x250dc63872a2a435},
		"ssd-transcend/update": {8962562670, 0x885641e4828a2bb1, 0xd012fe75d3aecd66},
	}
	for kind, dev := range []string{IntelSSD: "ssd-intel", TranscendSSD: "ssd-transcend"} {
		for _, policy := range []Policy{FIFO, LRU, UpdateBased} {
			name := dev + "/" + policy.String()
			t.Run(name, func(t *testing.T) {
				c := openCLAMT(t, WithDevice(DeviceKind(kind)), WithFlash(2<<20), WithMemory(512<<10),
					WithBufferKB(16), WithValueLog(1<<20), withBatchChunk(64), WithPolicy(policy), WithSeed(12))
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
