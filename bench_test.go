// Package repro's root benchmark suite measures the store through its
// public API: the dedup merge, per-key insert and lookup throughput, and
// concurrent per-key callers on one shard against eight. The paper's
// figures and tables are regenerated by cmd/clam-figures, not here.
package repro

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/clam"
	"repro/internal/dedup"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

func BenchmarkDedupMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clock := vclock.New()
		c, err := clam.Open(
			clam.WithDevice(clam.IntelSSD),
			clam.WithFlash(32<<20), clam.WithMemory(8<<20), clam.WithClock(clock))
		if err != nil {
			b.Fatal(err)
		}
		base := dedup.NewFingerprintSet(1, 50000)
		if err := dedup.Populate(c, base); err != nil {
			b.Fatal(err)
		}
		res, err := dedup.MergeOverlapping(c, dedup.NewOverlappingSet(base, 2, 20000, 0.3), clock)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Rate(), "fps/s(virtual)")
			b.ReportMetric(metrics.Ms(res.Elapsed), "merge_ms(virtual)")
		}
	}
}

// --- raw data-structure throughput (real CPU time) ---

func BenchmarkCLAMInsert(b *testing.B) {
	c, err := clam.Open(
		clam.WithDevice(clam.IntelSSD), clam.WithFlash(64<<20), clam.WithMemory(12<<20))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PutU64(rng.Uint64()|1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(metrics.Ms(st.InsertLatency.Mean), "insert_ms(virtual)")
}

// --- sharded parallel throughput (wall-clock) ---
//
// These benchmarks compare the paper's single-instance design point
// (Shards: 1, every operation behind one mutex) against the sharded
// scaling path at a fixed offered concurrency of 8 goroutines. Virtual
// time plays no role in the measurement: the metric is real wall-clock
// throughput of the in-memory hot path, which is what sharding buys.
// Speedup tracks available parallelism — expect ~1x at GOMAXPROCS=1 and
// ≥2x once a few cores are available.

const benchGoroutines = 8

func openShardedBench(b *testing.B, shards int) clam.Store {
	b.Helper()
	s, err := clam.Open(
		clam.WithDevice(clam.IntelSSD), clam.WithFlash(256<<20), clam.WithMemory(64<<20),
		clam.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchKeys pre-generates one uniform key stream per goroutine so key
// generation stays off the measured path.
func benchKeys(goroutines, per int, seed int64) [][]uint64 {
	keys := make([][]uint64, goroutines)
	for g := range keys {
		rng := rand.New(rand.NewSource(seed + int64(g)))
		keys[g] = make([]uint64, per)
		for i := range keys[g] {
			keys[g][i] = rng.Uint64()
		}
	}
	return keys
}

func runParallelInserts(b *testing.B, s clam.Store, keys [][]uint64) {
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, k := range keys[g] {
				if err := s.PutU64(k, uint64(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func benchParallelInsert(b *testing.B, shards int) {
	s := openShardedBench(b, shards)
	per := b.N/benchGoroutines + 1
	keys := benchKeys(benchGoroutines, per, 10)
	b.ResetTimer()
	runParallelInserts(b, s, keys)
	b.StopTimer()
	b.ReportMetric(float64(benchGoroutines*per)/b.Elapsed().Seconds(), "ops/s(wall)")
}

func BenchmarkParallelInsert1Shard(b *testing.B)  { benchParallelInsert(b, 1) }
func BenchmarkParallelInsert8Shards(b *testing.B) { benchParallelInsert(b, 8) }

func benchParallelLookup(b *testing.B, shards int) {
	s := openShardedBench(b, shards)
	warm := benchKeys(benchGoroutines, 100000, 20)
	runParallelInserts(b, s, warm)
	per := b.N/benchGoroutines + 1
	keys := make([][]uint64, benchGoroutines)
	for g := range keys {
		rng := rand.New(rand.NewSource(30 + int64(g)))
		keys[g] = make([]uint64, per)
		for i := range keys[g] {
			// ~50% hits: half from the warmed set, half random.
			if i%2 == 0 {
				keys[g][i] = warm[g][rng.Intn(len(warm[g]))]
			} else {
				keys[g][i] = rng.Uint64()
			}
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range keys[g] {
				if _, _, err := s.GetU64(k); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(benchGoroutines*per)/b.Elapsed().Seconds(), "ops/s(wall)")
}

func BenchmarkParallelLookup1Shard(b *testing.B)  { benchParallelLookup(b, 1) }
func BenchmarkParallelLookup8Shards(b *testing.B) { benchParallelLookup(b, 8) }

func BenchmarkShardedInsertBatch(b *testing.B) {
	s := openShardedBench(b, 8)
	rng := rand.New(rand.NewSource(40))
	keys := make([]uint64, 4096)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(keys))/b.Elapsed().Seconds(), "ops/s(wall)")
}

// BenchmarkShardedSpeedup runs the same 8-goroutine insert workload
// against a 1-shard baseline and an 8-shard instance and reports the
// wall-clock speedup directly, the headline number for the sharding
// tentpole. GOMAXPROCS bounds the achievable factor.
func BenchmarkShardedSpeedup(b *testing.B) {
	const totalOps = 200000
	keys := benchKeys(benchGoroutines, totalOps/benchGoroutines, 50)
	// Best-of-3 on a fresh instance each time: a single 0.3s region is at
	// the mercy of scheduler and CPU-steal noise, and the min is the
	// standard robust estimator for wall-clock comparisons.
	measure := func(shards int) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			s := openShardedBench(b, shards)
			// Collect the previous instance's heap (tens of MB of buffers
			// and Bloom banks) so GC work is not charged to the region.
			runtime.GC()
			start := time.Now()
			runParallelInserts(b, s, keys)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := measure(1)
		sharded := measure(8)
		speedup = base.Seconds() / sharded.Seconds()
	}
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

func BenchmarkCLAMLookup(b *testing.B) {
	c, err := clam.Open(
		clam.WithDevice(clam.IntelSSD), clam.WithFlash(64<<20), clam.WithMemory(12<<20))
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 20
	for i := uint64(1); i <= n; i++ {
		if err := c.PutU64(i, i); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	c.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.GetU64(uint64(rng.Int63n(n*2)) + 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(metrics.Ms(st.LookupLatency.Mean), "lookup_ms(virtual)")
	b.ReportMetric(st.Core.HitRate(), "hit_rate")
}
