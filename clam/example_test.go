package clam_test

import (
	"context"
	"crypto/sha1"
	"fmt"
	"log"

	"repro/clam"
)

// Example mirrors the package quick start: open a Store over a simulated
// SSD, map content fingerprints to variable-length chunks, look them up,
// update and delete with the paper's lazy semantics.
func Example() {
	st, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(16<<20), // scaled-down stand-in for the paper's 32 GB
		clam.WithMemory(4<<20), // DRAM budget, split per §6.4
		clam.WithValueLog(8<<20) /* chunk storage for byte values */)
	if err != nil {
		log.Fatal(err)
	}

	chunk := []byte("the quick brown chunk")
	fp := sha1.Sum(chunk) // a real 20-byte content fingerprint
	if err := st.Put(fp[:], chunk); err != nil {
		log.Fatal(err)
	}
	if data, ok, err := st.Get(fp[:]); err == nil && ok {
		fmt.Printf("found %d bytes: %s\n", len(data), data)
	}

	st.Put(fp[:], []byte("v2")) // lazy update: newest version shadows older ones
	data, _, _ := st.Get(fp[:])
	fmt.Printf("updated to %s\n", data)

	st.Delete(fp[:]) // lazy delete (§5.1.1)
	if _, ok, _ := st.Get(fp[:]); !ok {
		fmt.Println("deleted")
	}

	// The U64 fast path stores word-sized values inline — the paper's
	// fingerprint → address workload, no value log involved.
	st.PutU64(0x9e3779b97f4a7c15, 4096)
	if addr, ok, _ := st.GetU64(0x9e3779b97f4a7c15); ok {
		fmt.Println("address", addr)
	}
	// Output:
	// found 21 bytes: the quick brown chunk
	// updated to v2
	// deleted
	// address 4096
}

// Example_sharded scales the same Store API across shards: byte keys route
// by fingerprint bits, batches fan out over a worker pool, and Stats
// merges the per-shard state.
func Example_sharded() {
	st, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(32<<20), // totals, split evenly across shards
		clam.WithMemory(8<<20),
		clam.WithShards(4),
	)
	if err != nil {
		log.Fatal(err)
	}

	// One batch call fingerprints the keys, groups them by shard and
	// dispatches chunk tasks across the worker pool.
	keys := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
	vals := [][]byte{[]byte("1"), []byte("22"), []byte("333"), []byte("4444")}
	ctx := context.Background()
	if err := st.PutBatch(ctx, keys, vals); err != nil {
		log.Fatal(err)
	}
	got, found, err := st.GetBatch(ctx, keys)
	if err != nil {
		log.Fatal(err)
	}
	for i := range keys {
		fmt.Println(found[i], string(got[i]))
	}
	fmt.Println("inserts seen:", st.Stats().Core.Inserts)
	// Output:
	// true 1
	// true 22
	// true 333
	// true 4444
	// inserts seen: 4
}
