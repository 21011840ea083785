// Sharded walkthrough: scale a CLAM past one core by partitioning the key
// space across independent shards.
//
// The paper evaluates a single blocking-I/O CLAM; clam.Sharded is this
// repository's scaling path, reached through the same Open call with
// WithShards. Each shard is a complete CLAM — its own BufferHash, device
// models, value log, virtual clock and histograms — and keys route by
// their top bits, so shards never share mutable state. This program:
//
//  1. bulk-loads a million fingerprints through the ctx-aware batch API,
//  2. drives concurrent single-key lookups from 8 goroutines,
//  3. prints the merged statistics and per-shard balance, and
//  4. re-runs the same load on a 1-shard instance (the paper's design
//     point: a CLAM, which is the same store over one shard) to show the
//     wall-clock difference; the gap tracks GOMAXPROCS.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/clam"
	"repro/internal/metrics"
)

const goroutines = 8

var nKeys = 1 << 20

func open(shards int) clam.Store {
	s, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(256<<20), // total, split evenly across shards
		clam.WithMemory(64<<20),
		clam.WithShards(shards),
	)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// keys are uniform 64-bit fingerprints — the paper's workload shape and
// the assumption behind routing by high key bits.
func fingerprints(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = rng.Uint64()
	}
	return ks
}

// load bulk-inserts, then looks everything up from concurrent goroutines,
// returning the wall-clock time spent. It drives the Store interface, so
// the 8-shard deployment and the single-CLAM baseline run the same code.
func load(s clam.Store, keys []uint64) time.Duration {
	ctx := context.Background()
	start := time.Now()
	const chunk = 16384
	vals := make([]uint64, chunk)
	for off := 0; off < len(keys); off += chunk {
		end := min(off+chunk, len(keys))
		for i := range vals[:end-off] {
			vals[i] = uint64(off + i)
		}
		if err := s.PutBatchU64(ctx, keys[off:end], vals[:end-off]); err != nil {
			log.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	per := len(keys) / goroutines
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range keys[g*per : (g+1)*per] {
				if _, _, err := s.GetU64(k); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

func main() {
	smoke := flag.Bool("smoke", false, "shrink the workload for CI smoke runs")
	flag.Parse()
	if *smoke {
		nKeys = 1 << 17
	}
	keys := fingerprints(1, nKeys)

	s := open(8).(*clam.Sharded)
	shardedWall := load(s, keys)

	st := s.Stats()
	fmt.Printf("8 shards, %d keys, %d lookup goroutines (GOMAXPROCS=%d)\n",
		nKeys, goroutines, runtime.GOMAXPROCS(0))
	fmt.Printf("wall-clock: %v\n", shardedWall.Round(time.Millisecond))
	fmt.Printf("inserts: mean %.4f ms (virtual, merged across shards)\n",
		metrics.Ms(st.InsertLatency.Mean))
	fmt.Printf("lookups: mean %.4f ms, hit rate %.3f\n",
		metrics.Ms(st.LookupLatency.Mean), st.Core.HitRate())
	fmt.Printf("devices: %d writes, %d reads across %d shard devices\n",
		st.Device.Writes, st.Device.Reads, s.NumShards())
	fmt.Printf("virtual makespan: %v (slowest shard clock)\n\n", s.Now().Round(time.Millisecond))

	fmt.Printf("per-shard balance (high-key-bit routing over uniform fingerprints):\n")
	for i := 0; i < s.NumShards(); i++ {
		ss := s.Shard(i).Stats()
		fmt.Printf("  shard %d: %7d inserts %7d lookups  clock %v\n",
			i, ss.Core.Inserts, ss.Core.Lookups, s.Shard(i).Clock().Now().Round(time.Millisecond))
	}

	base := open(1) // WithShards(1): a CLAM, the one-shard store
	baseWall := load(base, keys)
	fmt.Printf("\n1 shard (paper baseline): %v wall-clock — %.2fx vs sharded\n",
		baseWall.Round(time.Millisecond), baseWall.Seconds()/shardedWall.Seconds())
}
