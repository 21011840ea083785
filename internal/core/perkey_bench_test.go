package core

import (
	"math/rand"
	"testing"
)

// BenchmarkPerKeyOps measures the host cost of the per-key calls — each a
// one-key batch — on a warmed testConfig store whose keys are spread over
// the buffer and every incarnation, so lookups mix buffer hits, flash
// probes and Bloom-excluded misses.
func BenchmarkPerKeyOps(b *testing.B) {
	cfg, _ := testConfig(b)
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
