package clam

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hashutil"
)

// The insert-batch benchmarks compare the write-side pipeline against a
// per-key PutU64 loop on identically configured sharded stores, in wall
// time; the clambench dedup-ingest workload measures batched puts end to
// end in wall and virtual time.

func putBenchStore(b *testing.B) Store {
	b.Helper()
	return openShardedT(b, WithDevice(IntelSSD), WithFlash(16<<20),
		WithBufferKB(8), WithShards(8), withBatchChunk(1<<16))
}

func putBenchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.Mix64(uint64(rng.Int63n(400000)) + 1)
	}
	return keys
}

func BenchmarkPutBatchU64(b *testing.B) {
	st := putBenchStore(b)
	keys := putBenchKeys(1 << 15)
	vals := make([]uint64, len(keys))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutBatchU64(ctx, keys, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/op")
}

func BenchmarkPutU64SerialLoop(b *testing.B) {
	st := putBenchStore(b)
	keys := putBenchKeys(1 << 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if err := st.PutU64(k, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(keys)), "keys/op")
}
