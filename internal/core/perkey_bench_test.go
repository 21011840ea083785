package core

import (
	"math/rand"
	"testing"

	"repro/internal/ssd"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// BenchmarkPerKeyOps measures the host cost of the per-key calls — each a
// one-key batch — on a warmed testConfig store whose keys are spread over
// the buffer and every incarnation, so lookups mix buffer hits, flash
// probes and Bloom-excluded misses. The cpu-clock case builds the device
// on the store's clock; the own-clock case builds it on a clock of its own
// (Config.DeviceClock), as every kind-opened clam shard does.
func BenchmarkPerKeyOps(b *testing.B) {
	for _, own := range []bool{false, true} {
		name := "cpu-clock"
		if own {
			name = "own-clock"
		}
		b.Run(name, func(b *testing.B) { benchPerKeyOps(b, own) })
	}
}

func benchPerKeyOps(b *testing.B, ownClock bool) {
	cfg, _ := testConfig(b)
	if ownClock {
		devClock := vclock.New()
		cfg.Device, cfg.DeviceClock = ssd.New(ssd.IntelX18M(), 1<<20, devClock), []*vclock.Clock{devClock}
	}
	bh := mustNew(b, cfg)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for i, k := range keys {
		if err := bh.Insert(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bh.Lookup(keys[i&(len(keys)-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bh.Insert(keys[i&(len(keys)-1)], uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPhaseA measures the host cost of a lookup's phase A in the
// order lookupBatch runs it — route, query (the Bloom query, which answers
// for the buffer too) and, only when the buffer's filter may hold the key,
// or an incarnation's may and the table has pending deletes, probeBuffer
// (the delete-list check and the buffer probe) — per key of 4096-key
// Zipf(1.1) batches, on one shard of the get-batch-zipf benchmark
// workload's store (8 MB of IntelSSD flash, 4 super tables of 128 KB
// buffers, 16 incarnations, 29 filter bits per entry) warmed with
// 1.25 times its capacity of keys from the same distribution. With
// BenchmarkCoalesceProbe, the host cost of the dedupe probe that replaces
// phase A for a repeated key, it prices CPU.BatchCoalesce: the probe's
// share of this cost, times the 2.0 µs phase A is charged. It reports the
// buffer probes the staging filter skipped as screened/key.
func BenchmarkPhaseA(b *testing.B) {
	const (
		flash = 8 << 20
		batch = 4096
		zipfS = 1.1
	)
	clock := vclock.New()
	bh := mustNew(b, Config{
		Device:             ssd.New(ssd.IntelX18M(), flash, clock),
		Clock:              clock,
		PartitionBits:      2,
		BufferBytes:        128 << 10,
		NumIncarnations:    16,
		FilterBitsPerEntry: 29,
		Seed:               7,
	})
	entries := uint64(flash / 32) // 16-byte entries at 50% cuckoo load
	keyRange := workload.RangeForLSR(entries, 0.4)
	warm := workload.NewZipfStream(2, zipfS, keyRange)
	keys, vals := make([]uint64, 8192), make([]uint64, 8192)
	for n := uint64(0); n < entries*5/4; n += uint64(len(keys)) {
		for i := range keys {
			keys[i], vals[i] = warm.Next(), n+uint64(i)+1
		}
		if err := bh.InsertBatch(keys, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
	probe := workload.NewZipfStream(3, zipfS, keyRange)
	probes := make([]uint64, 32*batch)
	for i := range probes {
		probes[i] = probe.Next()
	}
	found, screened := 0, 0
	for i := 0; b.Loop(); i++ {
		at := i % (len(probes) / batch) * batch
		for _, k := range probes[at : at+batch] {
			st, kh := bh.route(k)
			if mask, staged := st.query(kh); !staged && (mask == 0 || len(st.deleteList) == 0) {
				screened++
			} else if res, _ := st.probeBuffer(kh); res.Found {
				found++
			}
		}
		bh.settleCPUDebt()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	b.ReportMetric(float64(found)/float64(b.N*batch), "buffer_hits/key")
	b.ReportMetric(float64(screened)/float64(b.N*batch), "screened/key")
}

// BenchmarkCoalesceProbe measures the host cost per key of phase A's
// dedupe probe (keyTable.first, which finds a repeated key or records a
// new one, after a reset per call) over 4096-key batches of the
// get-batch-zipf benchmark workload's Zipf(1.1) keys, each split by its
// top three key bits into the runs its 8 shards' LookupBatch calls take.
// With BenchmarkPhaseA it prices CPU.BatchCoalesce.
func BenchmarkCoalesceProbe(b *testing.B) {
	const (
		entries = 64 << 20 / 32 // 16-byte entries at 50% cuckoo load
		batch   = 4096
		batches = 32
		shards  = 8
	)
	probe := workload.NewZipfStream(3, 1.1, workload.RangeForLSR(entries, 0.4))
	runs := make([][]uint64, batches*shards)
	for i := range batches {
		for range batch {
			k := probe.Next()
			at := i*shards + int(k>>61)
			runs[at] = append(runs[at], k)
		}
	}
	var t keyTable
	distinct := 0
	for i := 0; b.Loop(); i++ {
		for _, run := range runs[i%batches*shards:][:shards] {
			t.reset()
			for j := range run {
				if t.first(run, j) < 0 {
					distinct++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	b.ReportMetric(float64(distinct)/float64(b.N*batch), "distinct/key")
}

// BenchmarkHotCache measures the host cost per key of the hot-entry
// cache over the distinct keys of 4096-key batches of the get-batch-zipf
// benchmark workload's Zipf(1.1) keys, each split by its top three key
// bits into the runs its 8 shards' LookupBatch calls take, each shard with
// the 4,096-entry cache that workload's layout gives it. "probe" runs a
// read run's cache traffic: every key is probed (hotCache.get), and a miss
// filled (hotCache.put); "fill" fills every key. With BenchmarkPhaseA they
// price CPU.CacheFill, the fill's share of phase A's host cost, and
// CPU.CacheProbe, the probe loop's share less its fills, each times the
// 2.0 µs phase A is charged.
func BenchmarkHotCache(b *testing.B) {
	const (
		entries = 64 << 20 / 32 // 16-byte entries at 50% cuckoo load
		batch   = 4096
		batches = 32
		shards  = 8
		cached  = 4096
	)
	probe := workload.NewZipfStream(3, 1.1, workload.RangeForLSR(entries, 0.4))
	runs := make([][]uint64, batches*shards)
	distinct := 0
	for i := range batches {
		seen := map[uint64]bool{}
		for range batch {
			k := probe.Next()
			if !seen[k] {
				seen[k] = true
				at := i*shards + int(k>>61)
				runs[at] = append(runs[at], k)
				distinct++
			}
		}
	}
	var caches [shards]hotCache
	for sh := range caches {
		caches[sh] = newHotCache(cached)
	}
	b.Run("probe", func(b *testing.B) {
		misses := 0
		for b.Loop() {
			for i, run := range runs {
				c := &caches[i%shards]
				for _, k := range run {
					if _, ok := c.get(k, 1); !ok {
						c.put(k, k, 1)
						misses++
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*distinct), "ns/key")
		b.ReportMetric(float64(misses)/float64(b.N*distinct), "misses/key")
	})
	b.Run("fill", func(b *testing.B) {
		for b.Loop() {
			for i, run := range runs {
				c := &caches[i%shards]
				for _, k := range run {
					c.put(k, k, 1)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*distinct), "ns/key")
	})
}
