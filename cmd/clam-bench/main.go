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
// With -json FILE the tool instead runs a head-to-head lookup comparison —
// per-key loop vs batched pipeline over the identical key stream — and
// writes the throughput and virtual p50/p99 latency of both sides as JSON
// (the perf-trajectory artifact; CI emits BENCH_pr2.json from the u64
// workload and BENCH_pr3.json from the -valsize value-log workload).
//
// Examples:
//
//	clam-bench -device ssd-transcend -flash 64 -mem 12 -ops 200000 \
//	           -lsr 0.4 -lookups 0.5 -policy lru
//	clam-bench -shards 8 -workers 8 -flash 64 -mem 12 -ops 400000
//	clam-bench -shards 8 -workers 8 -batch 4096 -zipf 1.2 \
//	           -ops 100000 -json BENCH_pr2.json
//	clam-bench -shards 8 -workers 8 -batch 4096 -valsize 256 \
//	           -ops 60000 -json BENCH_pr3.json
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/clam"
	"repro/internal/hashutil"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// phaseResult is one side of the -json serial-vs-batched comparison.
type phaseResult struct {
	Mode        string  `json:"mode"`
	Ops         int     `json:"ops"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	HitRate     float64 `json:"hit_rate"`
	VirtualP50  float64 `json:"virtual_p50_ms"`
	VirtualP99  float64 `json:"virtual_p99_ms"`
}

// insertPhase is one side of the -putbatch serial-vs-batched comparison.
// The write percentiles come from Stats.WriteLatency: per-request device
// write service, with batched submissions amortized over their requests —
// the tail the insert pipeline exists to flatten.
type insertPhase struct {
	Mode            string  `json:"mode"`
	Ops             int     `json:"ops"`
	WallSeconds     float64 `json:"wall_seconds"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	VirtualP50      float64 `json:"virtual_insert_p50_ms"`
	VirtualP99      float64 `json:"virtual_insert_p99_ms"`
	VirtualWriteP50 float64 `json:"virtual_write_p50_ms"`
	VirtualWriteP99 float64 `json:"virtual_write_p99_ms"`
	Flushes         uint64  `json:"flushes"`
}

// insertComparison is one workload's serial-vs-batched insert pair.
type insertComparison struct {
	Serial      insertPhase `json:"serial"`
	Batched     insertPhase `json:"batched"`
	SpeedupWall float64     `json:"speedup_wall"`
}

// insertReport is the -putbatch -json artifact (BENCH_pr4.json in CI):
// the same insert stream driven per-key and through the batched insert
// pipeline, on a uniform and a Zipf-skewed key draw.
type insertReport struct {
	Device     string           `json:"device"`
	FlashMB    int64            `json:"flash_mb"`
	MemMB      int64            `json:"mem_mb"`
	Shards     int              `json:"shards"`
	Workers    int              `json:"workers"`
	Batch      int              `json:"batch"`
	BufferKB   int              `json:"buffer_kb"`
	ZipfS      float64          `json:"zipf_s"`
	ValSize    int              `json:"valsize"`
	Warm       int              `json:"warm_inserts"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Uniform    insertComparison `json:"uniform"`
	Zipf       insertComparison `json:"zipf"`
}

// benchReport is the -json artifact (BENCH_pr2.json / BENCH_pr3.json in CI).
type benchReport struct {
	Device      string      `json:"device"`
	FlashMB     int64       `json:"flash_mb"`
	MemMB       int64       `json:"mem_mb"`
	Shards      int         `json:"shards"`
	Workers     int         `json:"workers"`
	Batch       int         `json:"batch"`
	Zipf        float64     `json:"zipf"`
	ValSize     int         `json:"valsize"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Serial      phaseResult `json:"serial"`
	Batched     phaseResult `json:"batched"`
	SpeedupWall float64     `json:"speedup_wall"`
}

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
	jsonPath := flag.String("json", "", "run a serial-vs-batched lookup comparison and write JSON here")
	putbatch := flag.Bool("putbatch", false, "with -json: compare serial vs batched INSERTS (uniform + Zipf) instead of lookups")
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
	if *jsonPath != "" && *putbatch {
		// Insert comparison: opens its own fresh store per phase, since
		// inserts mutate state and both sides must start identical. The
		// byte workload (-valsize) warms less: its records are much larger
		// and the index only needs full buffers to reach the flushing
		// regime.
		warm := int(flashEntries)
		if *valsize > 0 {
			warm = int(flashEntries / 4)
		}
		runInsertComparison(opts, *jsonPath, insertReport{
			Device: kind.String(), FlashMB: *flashMB, MemMB: *memMB,
			Shards: max(*shards, 1), Workers: nWorkers, Batch: *batch, BufferKB: *bufferKB,
			ZipfS: *zipfS, ValSize: *valsize, Warm: warm,
		}, *ops, *seed, keyRange)
		return
	}
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

	if *jsonPath != "" {
		if policy == clam.LRU {
			// LRU lookups re-insert flash hits into the buffer, so the
			// first measured phase would warm the store for the second and
			// bias the comparison.
			fmt.Fprintln(os.Stderr, "-json requires a policy whose lookups don't mutate state (fifo or update)")
			os.Exit(2)
		}
		runComparison(st, *jsonPath, benchReport{
			Device: kind.String(), FlashMB: *flashMB, MemMB: *memMB,
			Shards: max(*shards, 1), Workers: nWorkers, Batch: *batch, Zipf: *zipfS,
			ValSize: *valsize,
		}, *ops, nWorkers, newDraw)
		return
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
	_ = metrics.Ms
}

// runComparison is the -json mode: the same lookup stream driven twice —
// per-key calls across the worker goroutines, then the batched pipeline —
// reporting wall throughput and virtual latency percentiles of both, plus
// the wall speedup. Lookups don't mutate FIFO/update stores, so both
// phases see an identical structure. With a -valsize workload the batched
// side additionally overlaps the value-log record reads (the second I/O
// stream); the per-key side pays them serially.
func runComparison(st clam.Store, path string, rep benchReport, ops, nWorkers int, newDraw func(int64) func() uint64) {
	draws := make([]uint64, ops)
	draw := newDraw(0)
	for i := range draws {
		draws[i] = draw()
	}
	var bprobes [][]byte
	if rep.ValSize > 0 {
		bprobes = make([][]byte, ops)
		for i, k := range draws {
			bprobes[i] = byteKey(k)
		}
	}
	if rep.Batch <= 0 {
		rep.Batch = 4096
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	ctx := context.Background()

	measure := func(mode string, run func() error) phaseResult {
		st.ResetMetrics()
		start := time.Now()
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		s := st.Stats()
		return phaseResult{
			Mode:        mode,
			Ops:         ops,
			WallSeconds: wall.Seconds(),
			OpsPerSec:   float64(ops) / wall.Seconds(),
			HitRate:     s.Core.HitRate(),
			VirtualP50:  metrics.Ms(s.LookupLatency.P50),
			VirtualP99:  metrics.Ms(s.LookupLatency.P99),
		}
	}

	rep.Serial = measure("per-key", func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, nWorkers)
		per := (ops + nWorkers - 1) / nWorkers
		for w := 0; w < nWorkers; w++ {
			lo := w * per
			hi := min(lo+per, ops)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					var err error
					if rep.ValSize > 0 {
						_, _, err = st.Get(bprobes[i])
					} else {
						_, _, err = st.GetU64(draws[i])
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	})
	rep.Batched = measure("batched", func() error {
		for at := 0; at < ops; at += rep.Batch {
			hi := min(at+rep.Batch, ops)
			var err error
			if rep.ValSize > 0 {
				_, _, err = st.GetBatch(ctx, bprobes[at:hi])
			} else {
				_, _, err = st.GetBatchU64(ctx, draws[at:hi])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	rep.SpeedupWall = rep.Serial.WallSeconds / rep.Batched.WallSeconds

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("serial:  %8.0f ops/s  p50 %.4f ms  p99 %.4f ms (virtual)\n",
		rep.Serial.OpsPerSec, rep.Serial.VirtualP50, rep.Serial.VirtualP99)
	fmt.Printf("batched: %8.0f ops/s  p50 %.4f ms  p99 %.4f ms (virtual)\n",
		rep.Batched.OpsPerSec, rep.Batched.VirtualP50, rep.Batched.VirtualP99)
	fmt.Printf("wall speedup: %.2fx (gomaxprocs %d, valsize %d) -> %s\n",
		rep.SpeedupWall, rep.GOMAXPROCS, rep.ValSize, path)
}

// runInsertComparison is the -putbatch -json mode: the same insert stream
// driven twice against freshly opened, identically warmed stores — per-key
// PutU64 across the worker goroutines, then the batched insert pipeline —
// on a uniform and a Zipf-skewed key draw. The pipeline's promise is that
// only time changes, so the comparison reports wall throughput, virtual
// insert p50/p99 (batched chunks amortize flush writes over their keys and
// overlap them in the device's queue lanes) and the flush counts, which
// must match between the two sides of each workload.
func runInsertComparison(opts []clam.Option, path string, rep insertReport, ops int, seed int64, keyRange uint64) {
	if rep.Batch <= 0 {
		rep.Batch = 4096
	}
	if rep.ZipfS <= 0 {
		rep.ZipfS = 1.2
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	ctx := context.Background()
	// One core insert-batch call per shard per batch: the router chunk is
	// what bounds how many flush writes share one overlapped submission, so
	// splitting a batch into small chunks would hide the write overlap the
	// comparison is measuring.
	opts = append(opts[:len(opts):len(opts)], clam.WithBatchChunk(rep.Batch))

	openWarm := func() (clam.Store, int) {
		st, err := clam.Open(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		nWorkers := 1
		if sh, ok := st.(*clam.Sharded); ok {
			nWorkers = sh.Workers()
		}
		// Identical deterministic warm-up per phase: fill the buffers and a
		// few incarnations so measured inserts run in the steady flushing
		// regime (and, on the byte workload, a value log past its first
		// page flushes).
		rng := rand.New(rand.NewSource(seed))
		const chunk = 8192
		if rep.ValSize > 0 {
			keys := make([][]byte, 0, chunk)
			vals := make([][]byte, 0, chunk)
			for i := 0; i < rep.Warm; i++ {
				k := hashutil.Mix64(uint64(rng.Int63n(int64(keyRange))) + 1)
				keys = append(keys, byteKey(k))
				vals = append(vals, byteVal(k, rep.ValSize))
				if len(keys) == chunk || i == rep.Warm-1 {
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
			for i := 0; i < rep.Warm; i++ {
				keys = append(keys, hashutil.Mix64(uint64(rng.Int63n(int64(keyRange)))+1))
				vals = append(vals, uint64(i))
				if len(keys) == chunk || i == rep.Warm-1 {
					if err := st.PutBatchU64(ctx, keys, vals); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					keys, vals = keys[:0], vals[:0]
				}
			}
		}
		st.ResetMetrics()
		return st, nWorkers
	}

	vals := make([]uint64, ops)
	for i := range vals {
		vals[i] = uint64(i)
	}
	measure := func(mode string, draws []uint64, batched bool) insertPhase {
		// The byte workload expands the same draws to 20-byte fingerprints
		// and valsize-byte values; each serial Put pays the value-log append
		// (including its page flushes) plus the index insert, while the
		// batched side groups the chunk's records into one multi-record
		// append and one core insert batch.
		var bkeys, bvals [][]byte
		if rep.ValSize > 0 {
			bkeys = make([][]byte, len(draws))
			bvals = make([][]byte, len(draws))
			for i, k := range draws {
				bkeys[i] = byteKey(k)
				bvals[i] = byteVal(k, rep.ValSize)
			}
		}
		st, nWorkers := openWarm()
		start := time.Now()
		if batched {
			for at := 0; at < len(draws); at += rep.Batch {
				hi := min(at+rep.Batch, len(draws))
				var err error
				if rep.ValSize > 0 {
					err = st.PutBatch(ctx, bkeys[at:hi], bvals[at:hi])
				} else {
					err = st.PutBatchU64(ctx, draws[at:hi], vals[at:hi])
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		} else {
			var wg sync.WaitGroup
			errCh := make(chan error, nWorkers)
			per := (len(draws) + nWorkers - 1) / nWorkers
			for w := 0; w < nWorkers; w++ {
				lo := w * per
				hi := min(lo+per, len(draws))
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						var err error
						if rep.ValSize > 0 {
							err = st.Put(bkeys[i], bvals[i])
						} else {
							err = st.PutU64(draws[i], vals[i])
						}
						if err != nil {
							errCh <- err
							return
						}
					}
				}(lo, hi)
			}
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		wall := time.Since(start)
		s := st.Stats()
		return insertPhase{
			Mode:            mode,
			Ops:             len(draws),
			WallSeconds:     wall.Seconds(),
			OpsPerSec:       float64(len(draws)) / wall.Seconds(),
			VirtualP50:      metrics.Ms(s.InsertLatency.P50),
			VirtualP99:      metrics.Ms(s.InsertLatency.P99),
			VirtualWriteP50: metrics.Ms(s.WriteLatency.P50),
			VirtualWriteP99: metrics.Ms(s.WriteLatency.P99),
			Flushes:         s.Core.Flushes,
		}
	}
	runWorkload := func(name string, draws []uint64) insertComparison {
		c := insertComparison{
			Serial:  measure("per-key", draws, false),
			Batched: measure("batched", draws, true),
		}
		c.SpeedupWall = c.Serial.WallSeconds / c.Batched.WallSeconds
		fmt.Printf("%-7s serial:  %8.0f inserts/s  insert p99 %.4f ms  write p99 %.4f ms (virtual, %d flushes)\n",
			name, c.Serial.OpsPerSec, c.Serial.VirtualP99, c.Serial.VirtualWriteP99, c.Serial.Flushes)
		fmt.Printf("%-7s batched: %8.0f inserts/s  insert p99 %.4f ms  write p99 %.4f ms (virtual, %d flushes)  %.2fx wall\n",
			name, c.Batched.OpsPerSec, c.Batched.VirtualP99, c.Batched.VirtualWriteP99, c.Batched.Flushes, c.SpeedupWall)
		return c
	}

	uniform := make([]uint64, ops)
	rng := rand.New(rand.NewSource(seed + 101))
	for i := range uniform {
		uniform[i] = hashutil.Mix64(uint64(rng.Int63n(int64(keyRange))) + 1)
	}
	rep.Uniform = runWorkload("uniform", uniform)
	zipf := make([]uint64, ops)
	z := workload.NewZipfStream(seed+202, rep.ZipfS, keyRange)
	for i := range zipf {
		zipf[i] = z.Next()
	}
	rep.Zipf = runWorkload("zipf", zipf)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("insert comparison (gomaxprocs %d) -> %s\n", rep.GOMAXPROCS, path)
}
