package clam

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// Benchmarks for the batched lookup pipeline against the plain serial loop
// (one blocking GetU64 per key, the paper's design point). The workload is
// flash-heavy: the store is warmed past eviction onset so
// most hits require at least one incarnation page probe, which is where
// batching (lock amortization, page dedupe, overlapped virtual I/O) pays.

// openBatchBench builds an instance with the given shard count (one
// worker per shard) small enough to warm past eviction onset quickly: 16 MB
// of flash = 512k entry capacity, warmed with 700k distinct keys so the
// incarnation rings wrap. The warm universe depends only on the seed, so
// every shard count sees the same keys.
func openBatchBench(b *testing.B, shards int) (Store, []uint64) {
	b.Helper()
	s, err := Open(WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithSeed(7), WithShards(shards), WithWorkers(shards))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	const nKeys = 700000
	universe := make([]uint64, nKeys)
	vals := make([]uint64, nKeys)
	for i := range universe {
		universe[i] = rng.Uint64()
		vals[i] = uint64(i)
	}
	const chunk = 16384
	for at := 0; at < nKeys; at += chunk {
		end := min(at+chunk, nKeys)
		if err := s.PutBatchU64(context.Background(), universe[at:end], vals[at:end]); err != nil {
			b.Fatal(err)
		}
	}
	if s.Stats().Core.Evictions == 0 {
		b.Fatal("warm-up did not reach the eviction regime")
	}
	return s, universe
}

// measureLookups times fn, best of 3 (robust against scheduler noise).
func measureLookups(b *testing.B, fn func()) time.Duration {
	b.Helper()
	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		fn()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// BenchmarkLookupBatchVsSerialLoop compares the pipeline against the plain
// single-caller per-key GetU64 loop — the paper's blocking design point —
// on three probe streams over warmed instances (lookups under FIFO don't
// mutate state, so both sides see an identical structure):
//
//   - uniform: uniformly drawn warm keys on 8 shards, the flash-heavy
//     baseline;
//   - zipf: Zipf(1.2)-ranked warm keys on 8 shards, so one shard's group
//     dwarfs the others — the skew the stealing router was built for — and
//     each shard's phase A resolves its hot keys' repeats once;
//   - uniform-1shard: the uniform stream on one CLAM, where the batch still
//     pays the router's grouping copy and one goroutine hop.
//
// The parallel component of the speedup is bounded by GOMAXPROCS (reported
// alongside, as in BenchmarkShardedSpeedup); the batching component —
// lock/clock/histogram amortization, coalesced repeats, page dedupe —
// survives even on one core.
func BenchmarkLookupBatchVsSerialLoop(b *testing.B) {
	sharded, universe := openBatchBench(b, 8)
	rng := rand.New(rand.NewSource(61))
	uniform := make([]uint64, 65536)
	for i := range uniform {
		uniform[i] = universe[rng.Intn(len(universe))]
	}
	zipfRank := rand.NewZipf(rand.New(rand.NewSource(62)), 1.2, 1, uint64(len(universe)-1))
	zipf := make([]uint64, 65536)
	for i := range zipf {
		zipf[i] = universe[zipfRank.Uint64()]
	}
	stores := map[int]Store{8: sharded} // by shard count, warmed on first use
	for _, tc := range []struct {
		name   string
		shards int
		probes []uint64
	}{{"uniform", 8, uniform}, {"zipf", 8, zipf}, {"uniform-1shard", 1, uniform}} {
		b.Run(tc.name, func(b *testing.B) {
			s := stores[tc.shards]
			if s == nil {
				s, _ = openBatchBench(b, tc.shards)
				stores[tc.shards] = s
				b.ResetTimer()
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				loop := measureLookups(b, func() {
					for _, k := range tc.probes {
						if _, _, err := s.GetU64(k); err != nil {
							b.Fatal(err)
						}
					}
				})
				pipeline := measureLookups(b, func() {
					if _, _, err := s.GetBatchU64(context.Background(), tc.probes); err != nil {
						b.Fatal(err)
					}
				})
				speedup = loop.Seconds() / pipeline.Seconds()
				b.ReportMetric(float64(len(tc.probes))/pipeline.Seconds(), "pipeline_ops/s(wall)")
				b.ReportMetric(float64(len(tc.probes))/loop.Seconds(), "loop_ops/s(wall)")
			}
			b.ReportMetric(speedup, "speedup_x")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkGetBatchZipf1Worker is the get-batch-zipf benchmark workload's
// measured step with one batch worker: the same store shape (8 shards,
// 64 MB of IntelSSD flash, 12 MB of DRAM, FIFO), warmed with 1.25 times
// its flash capacity of Zipf(1.1) keys, then GetBatchU64 calls of 4096
// keys of the same distribution. One worker takes scheduling out of the
// wall time, so ns/key is the lookup pipeline's host cost per key.
// virt-ns/key is the virtual time per key: each batch's largest shard-clock
// advance, the batch's virtual makespan, summed over batches. screened/key
// is core.Stats.ScreenedProbes per key: the buffer probes phase A skipped
// because the staging filter ruled the key out of the buffer.
func BenchmarkGetBatchZipf1Worker(b *testing.B) {
	const (
		flash   = 64 << 20
		entries = flash / 32 // 16-byte entries at 50% cuckoo load
		batch   = 4096
		zipfS   = 1.1
	)
	s := openShardedT(b, WithDevice(IntelSSD), WithFlash(flash), WithMemory(12<<20),
		WithShards(8), WithWorkers(1))
	keyRange := workload.RangeForLSR(entries, 0.4)
	warm := workload.NewZipfStream(2, zipfS, keyRange)
	keys, vals := make([]uint64, 8192), make([]uint64, 8192)
	for n := 0; n < entries*5/4; n += len(keys) {
		for i := range keys {
			keys[i], vals[i] = warm.Next(), uint64(n+i+1)
		}
		if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
			b.Fatal(err)
		}
	}
	if s.Stats().Core.Flushes == 0 {
		b.Fatal("warm-up left every key in the buffers")
	}
	probe := workload.NewZipfStream(3, zipfS, keyRange)
	probes := make([]uint64, 32*batch)
	for i := range probes {
		probes[i] = probe.Next()
	}
	// One untimed pass over the probe batches: the first calls after the
	// warm-up's puts start each shard's read run and fill its hot-entry
	// cache, so the timed batches all meet warm caches.
	for at := 0; at < len(probes); at += batch {
		if _, _, err := s.GetBatchU64(context.Background(), probes[at:at+batch]); err != nil {
			b.Fatal(err)
		}
	}
	before := make([]time.Duration, s.NumShards())
	var virt time.Duration
	screened := s.Stats().Core.ScreenedProbes
	for i := 0; b.Loop(); i++ {
		at := i % (len(probes) / batch) * batch
		for sh := range before {
			before[sh] = s.Shard(sh).Clock().Now()
		}
		if _, _, err := s.GetBatchU64(context.Background(), probes[at:at+batch]); err != nil {
			b.Fatal(err)
		}
		var most time.Duration
		for sh, t := range before {
			most = max(most, s.Shard(sh).Clock().Now()-t)
		}
		virt += most
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	b.ReportMetric(float64(virt.Nanoseconds())/float64(b.N*batch), "virt-ns/key")
	b.ReportMetric(float64(s.Stats().Core.ScreenedProbes-screened)/float64(b.N*batch), "screened/key")
}
