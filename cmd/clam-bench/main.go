// Command clam-bench runs a configurable hash-table workload against a
// CLAM and prints latency distributions, core counters and device
// statistics — the tool behind ad-hoc exploration of the §7.2 design space.
//
// With -shards > 1 the workload runs against a sharded CLAM instead: the
// key space is partitioned across independent shards and the measured
// phase is driven by -workers concurrent goroutines, reporting wall-clock
// throughput next to the merged virtual-time latency distributions.
//
// With -batch > 0 the measured phase issues lookups through the batched
// pipeline (GetBatchU64 / GetBatch) in batches of that size instead of
// per-key calls; -zipf replaces the uniform key draw with a Zipf(s)
// popularity distribution (hot keys concentrate on few shards, exercising
// the batch router's stealing). With -valsize > 0 the workload runs on the
// byte-keyed API instead of the uint64 fast path: keys are 20-byte
// fingerprints and every key maps to a -valsize-byte value living in the
// page-aligned value log, so lookups pay an index probe plus a (batched:
// overlapped) value-log record read.
//
// The repo's benchmark, with repeated runs and per-layer metrics, is
// clambench (see clambench/README.md); this tool is for exploration.
//
// Examples:
//
//	clam-bench -device ssd-transcend -flash 64 -mem 12 -ops 200000 \
//	           -lsr 0.4 -lookups 0.5 -policy lru
//	clam-bench -shards 8 -workers 8 -flash 64 -mem 12 -ops 400000
//	clam-bench -shards 8 -workers 8 -batch 4096 -zipf 1.2 -ops 100000
//	clam-bench -shards 8 -workers 8 -batch 4096 -valsize 256 -ops 60000
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/clam"
	"repro/internal/hashutil"
	"repro/internal/workload"
)

// byteKey expands a 64-bit draw into the 20-byte fingerprint the byte
// workload keys on (deterministic, collision-free per draw).
func byteKey(k uint64) []byte {
	fp := make([]byte, 20)
	binary.LittleEndian.PutUint64(fp[0:8], k)
	binary.LittleEndian.PutUint64(fp[8:16], hashutil.Mix64(k))
	binary.LittleEndian.PutUint32(fp[16:20], uint32(hashutil.Mix64(k^0xbeef)))
	return fp
}

// byteVal builds the valsize-byte value stored under a key.
func byteVal(k uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(k >> (uint(i) % 8 * 8))
	}
	return v
}

func main() {
	deviceFlag := flag.String("device", "ssd-intel", "ssd-intel, ssd-transcend, flash-chip, or disk")
	flashMB := flag.Int64("flash", 64, "flash capacity in MB (total across shards)")
	memMB := flag.Int64("mem", 12, "DRAM budget in MB (total across shards)")
	ops := flag.Int("ops", 100000, "measured operations")
	lsr := flag.Float64("lsr", 0.4, "target lookup success ratio")
	lookups := flag.Float64("lookups", 0.5, "lookup fraction of the workload")
	policyFlag := flag.String("policy", "fifo", "fifo, lru, or update")
	seed := flag.Int64("seed", 1, "workload seed")
	shards := flag.Int("shards", 1, "number of shards (power of two); 1 = the paper's single instance")
	workers := flag.Int("workers", 0, "concurrent driver goroutines for the sharded measured phase (default: shards)")
	batch := flag.Int("batch", 0, "lookup batch size for the batched pipeline (0 = per-key lookups)")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent for skewed keys (0 = uniform; try 1.2)")
	valsize := flag.Int("valsize", 0, "byte-API value size (0 = uint64 fast path)")
	bufferKB := flag.Int("bufferkb", 0, "override the per-super-table buffer size in KB (0 = derived default)")
	fbe := flag.Int("fbe", 0, "override the Bloom filter bits per entry (0 = derived from the memory budget; 16 = the paper's candidate configuration)")
	flag.Parse()

	var kind clam.DeviceKind
	switch *deviceFlag {
	case "ssd-intel":
		kind = clam.IntelSSD
	case "ssd-transcend":
		kind = clam.TranscendSSD
	case "flash-chip":
		kind = clam.FlashChip
	case "disk":
		kind = clam.MagneticDisk
	default:
		fmt.Fprintf(os.Stderr, "unknown device %q\n", *deviceFlag)
		os.Exit(2)
	}
	var policy clam.Policy
	switch *policyFlag {
	case "fifo":
		policy = clam.FIFO
	case "lru":
		policy = clam.LRU
	case "update":
		policy = clam.UpdateBased
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyFlag)
		os.Exit(2)
	}

	opts := []clam.Option{
		clam.WithDevice(kind),
		clam.WithFlash(*flashMB << 20),
		clam.WithMemory(*memMB << 20),
		clam.WithPolicy(policy),
		clam.WithSeed(uint64(*seed)),
	}
	if *bufferKB > 0 {
		opts = append(opts, clam.WithBufferKB(*bufferKB))
	}
	if *fbe > 0 {
		opts = append(opts, clam.WithFilterBitsPerEntry(*fbe))
	}
	nWorkers := 1
	if *shards > 1 {
		opts = append(opts, clam.WithShards(*shards))
		if *workers > 0 {
			opts = append(opts, clam.WithWorkers(*workers))
		}
	}
	st, err := clam.Open(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sharded, _ := st.(*clam.Sharded)
	if sharded != nil {
		nWorkers = sharded.Workers()
	}

	ctx := context.Background()
	flashEntries := uint64(*flashMB) << 20 / 32
	keyRange := workload.RangeForLSR(flashEntries, *lsr)
	// The workload draws small integers; hashutil.Mix64 (a 64-bit
	// bijection) turns them into uniform fingerprints, as sharding (and
	// the paper's workloads) assume. The mapping preserves the LSR
	// exactly. The byte workload expands the same draws to 20-byte keys.
	warm := int(flashEntries * 5 / 4)
	if *valsize > 0 {
		// The byte workload also fills the value log; keep the warm set at
		// the index capacity (the log wraps FIFO on its own schedule).
		warm = int(flashEntries)
	}
	fmt.Printf("device=%s flash=%dMB mem=%dMB policy=%s shards=%d workers=%d valsize=%d | warm-up: %d inserts\n",
		kind, *flashMB, *memMB, policy, max(*shards, 1), nWorkers, *valsize, warm)
	rng := rand.New(rand.NewSource(*seed))
	// Warm up through the batch APIs in flush-friendly chunks.
	{
		const chunk = 8192
		if *valsize > 0 {
			keys := make([][]byte, 0, chunk)
			vals := make([][]byte, 0, chunk)
			for i := 0; i < warm; i++ {
				k := hashutil.Mix64(uint64(rng.Int63n(int64(keyRange))) + 1)
				keys = append(keys, byteKey(k))
				vals = append(vals, byteVal(k, *valsize))
				if len(keys) == chunk || i == warm-1 {
					if err := st.PutBatch(ctx, keys, vals); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					keys, vals = keys[:0], vals[:0]
				}
			}
		} else {
			keys := make([]uint64, 0, chunk)
			vals := make([]uint64, 0, chunk)
			for i := 0; i < warm; i++ {
				keys = append(keys, hashutil.Mix64(uint64(rng.Int63n(int64(keyRange)))+1))
				vals = append(vals, uint64(i))
				if len(keys) == chunk || i == warm-1 {
					if err := st.PutBatchU64(ctx, keys, vals); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					keys, vals = keys[:0], vals[:0]
				}
			}
		}
	}
	st.ResetMetrics()
	// Shard clocks are monotonic and not reset; remember the post-warm-up
	// readings so the reported makespan covers only the measured phase.
	var warmClocks []time.Duration
	if sharded != nil {
		warmClocks = make([]time.Duration, sharded.NumShards())
		for i := range warmClocks {
			warmClocks[i] = sharded.Shard(i).Clock().Now()
		}
	}

	// newDraw returns a per-worker deterministic key generator: uniform
	// over the LSR-derived range, or Zipf-skewed when -zipf is set (hot
	// ranks map to the same fingerprints the warm-up inserted).
	newDraw := func(w int64) func() uint64 {
		if *zipfS > 0 {
			z := workload.NewZipfStream(*seed+w+1, *zipfS, keyRange)
			return z.Next
		}
		rng := rand.New(rand.NewSource(*seed + w + 1))
		return func() uint64 {
			return hashutil.Mix64(uint64(rng.Int63n(int64(keyRange))) + 1)
		}
	}

	// Measured phase: nWorkers goroutines, each with an independent
	// deterministic stream over the same key range. With -batch > 0 each
	// worker accumulates its lookups and issues them through the batched
	// pipeline.
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	perWorker := *ops / nWorkers
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			draw := newDraw(int64(w))
			rng := rand.New(rand.NewSource(^(*seed) + int64(w)))
			var pendU []uint64
			var pendB [][]byte
			if *batch > 0 {
				pendU = make([]uint64, 0, *batch)
				pendB = make([][]byte, 0, *batch)
			}
			flush := func() error {
				var err error
				if len(pendU) > 0 {
					_, _, err = st.GetBatchU64(ctx, pendU)
					pendU = pendU[:0]
				} else if len(pendB) > 0 {
					_, _, err = st.GetBatch(ctx, pendB)
					pendB = pendB[:0]
				}
				return err
			}
			lookupOne := func(k uint64) error {
				if *valsize > 0 {
					_, _, err := st.Get(byteKey(k))
					return err
				}
				_, _, err := st.GetU64(k)
				return err
			}
			insertOne := func(k uint64, i int) error {
				if *valsize > 0 {
					return st.Put(byteKey(k), byteVal(k, *valsize))
				}
				return st.PutU64(k, uint64(i))
			}
			for i := 0; i < perWorker; i++ {
				k := draw()
				if rng.Float64() < *lookups {
					if *batch > 0 {
						if *valsize > 0 {
							pendB = append(pendB, byteKey(k))
						} else {
							pendU = append(pendU, k)
						}
						if len(pendU) == *batch || len(pendB) == *batch {
							if err := flush(); err != nil {
								errCh <- err
								return
							}
						}
						continue
					}
					if err := lookupOne(k); err != nil {
						errCh <- err
						return
					}
				} else {
					if err := flush(); err != nil { // keep lookup/insert order
						errCh <- err
						return
					}
					if err := insertOne(k, i); err != nil {
						errCh <- err
						return
					}
				}
			}
			if err := flush(); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stats := st.Stats()
	fmt.Printf("\nwall-clock: %d ops in %v (%.0f ops/s across %d workers)\n",
		perWorker*nWorkers, elapsed.Round(time.Millisecond),
		float64(perWorker*nWorkers)/elapsed.Seconds(), nWorkers)
	fmt.Printf("inserts: %s\n", stats.InsertLatency)
	fmt.Printf("lookups: %s (hit rate %.2f)\n", stats.LookupLatency, stats.Core.HitRate())
	fmt.Printf("core: flushes=%d evictions=%d flash-probes=%d spurious=%d\n",
		stats.Core.Flushes, stats.Core.Evictions, stats.Core.FlashProbes, stats.Core.SpuriousProbes)
	fmt.Printf("lookup flash-I/O histogram: ")
	for i, c := range stats.Core.LookupIOHist {
		if c > 0 {
			fmt.Printf("[%d io: %d] ", i, c)
		}
	}
	fmt.Println()
	fmt.Printf("device: reads=%d writes=%d erases=%d moved=%d busy=%v\n",
		stats.Device.Reads, stats.Device.Writes, stats.Device.Erases, stats.Device.PagesMoved, stats.Device.BusyTime)
	if *valsize > 0 {
		fmt.Printf("value log: records=%d appended=%dKB wraps=%d | device reads=%d writes=%d busy=%v\n",
			stats.ValueLog.Records, stats.ValueLog.AppendedBytes>>10, stats.ValueLog.Wraps,
			stats.ValueDevice.Reads, stats.ValueDevice.Writes, stats.ValueDevice.BusyTime)
	}
	fmt.Printf("memory: buffers=%dKB bloom=%dKB total=%dKB\n",
		stats.Memory.BufferBytes>>10, stats.Memory.BloomBytes>>10, stats.Memory.Total()>>10)
	if sharded != nil {
		fmt.Printf("shard balance (inserts+lookups per shard):")
		for i := 0; i < sharded.NumShards(); i++ {
			ss := sharded.Shard(i).Stats()
			fmt.Printf(" %d", ss.Core.Inserts+ss.Core.Lookups)
		}
		var makespan time.Duration
		for i := 0; i < sharded.NumShards(); i++ {
			if d := sharded.Shard(i).Clock().Now() - warmClocks[i]; d > makespan {
				makespan = d
			}
		}
		fmt.Printf("\nvirtual makespan: %v (max shard clock advance, measured phase only)\n",
			makespan.Round(time.Microsecond))
	}
}
