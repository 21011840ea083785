package clam

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestValuesCallerOwned pins the ownership contract of byte lookups: a
// value Get or GetBatch returns is the caller's. Appending to it or
// overwriting it changes no other value of the batch and no later read,
// and it stays intact after a PutBatch wraps the value log over the pages
// it was read from.
func TestValuesCallerOwned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"clam", nil},
		{"sharded", []Option{WithShards(4), WithWorkers(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(append([]Option{WithDevice(IntelSSD), WithFlash(4 << 20), WithMemory(1 << 20),
				WithValueLog(1 << 20), WithSeed(19)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(23))
			keys, want := make([][]byte, 1200), make([][]byte, 1200)
			for i := range keys {
				keys[i] = fmt.Appendf(nil, "owned-%05d", i)
				want[i] = make([]byte, 1+rng.Intn(400))
				rng.Read(want[i])
			}
			if err := s.PutBatch(ctx, keys, want); err != nil {
				t.Fatal(err)
			}
			check := func(what string, got [][]byte, found []bool) {
				t.Helper()
				for i := range keys {
					if !found[i] || !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s: key %d reads %x, want %x", what, i, got[i], want[i])
					}
				}
			}

			got, found, err := s.GetBatch(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			check("GetBatch", got, found)
			// Appending within a value's capacity would overwrite its
			// neighbour in a shared buffer.
			for i := range got {
				_ = append(got[i], bytes.Repeat([]byte{0xA5}, 64)...)
			}
			check("GetBatch after appends", got, found)
			// Overwrite every value with its own mark: an overlap would
			// leave another value's mark behind.
			for i, v := range got {
				for j := range v {
					v[j] = byte(i)
				}
			}
			for i, v := range got {
				if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, len(v))) {
					t.Fatalf("value %d holds another value's bytes after the overwrites", i)
				}
			}
			for i := range keys {
				v, ok, err := s.Get(keys[i])
				if err != nil || !ok || !bytes.Equal(v, want[i]) {
					t.Fatalf("Get(%d) after overwriting GetBatch values: %x, %v, %v", i, v, ok, err)
				}
				v = append(v, 1)
				v[0] ^= 0xFF
			}
			got, found, err = s.GetBatch(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			check("GetBatch after overwriting Get values", got, found)

			// Wrap every shard's value log over the records just read.
			one, _, err := s.Get(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			shards := routerOf(s).shards
			before := make([]uint64, len(shards))
			for i, sh := range shards {
				before[i] = sh.vlog.Stats().AppendedBytes
			}
			fill := make([][]byte, 6000)
			fillVals := make([][]byte, len(fill))
			for i := range fill {
				fill[i] = fmt.Appendf(nil, "filler-%05d", i)
				fillVals[i] = bytes.Repeat([]byte{0xEE}, 300)
			}
			if err := s.PutBatch(ctx, fill, fillVals); err != nil {
				t.Fatal(err)
			}
			for i, sh := range shards {
				if st := sh.vlog.Stats(); st.AppendedBytes-before[i] < uint64(st.Capacity) || st.Wraps == 0 {
					t.Fatalf("shard %d: the filler did not overwrite the whole log: %+v", i, st)
				}
			}
			check("GetBatch values after the log wrapped", got, found)
			if !bytes.Equal(one, want[0]) {
				t.Fatalf("Get value after the log wrapped: %x, want %x", one, want[0])
			}
		})
	}
}

// routerOf returns the router a CLAM or Sharded store embeds.
func routerOf(s Store) *router {
	if c, ok := s.(*CLAM); ok {
		return c.router
	}
	return s.(*Sharded).router
}

// TestFingerprintStripes checks the router's striped fingerprinting
// against the serial loop: for every batch size around the striping
// threshold and every worker count, groupBytes yields the fingerprints
// and the groups a serial pass does.
func TestFingerprintStripes(t *testing.T) {
	const chunk = defaultBatchChunk
	rng := rand.New(rand.NewSource(29))
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = make([]byte, 1+rng.Intn(40))
		rng.Read(keys[i])
	}
	for _, workers := range []int{1, 2, 3, 4} {
		s := openShardedT(t, WithDevice(IntelSSD), WithFlash(4<<20), WithMemory(1<<20),
			WithShards(4), WithWorkers(workers), WithSeed(31))
		for _, n := range []int{0, 1, chunk - 1, chunk, 2*chunk - 1, 2 * chunk, 2*chunk + 1, 4096} {
			batch := keys[:n]
			want := make([]uint64, n)
			for i, k := range batch {
				want[i] = fingerprint(k, s.fpSeed)
			}
			wg := s.groupInto(&shardGroups{start: make([]int, 5), cur: make([]int, 4)}, want, nil, batch, nil)
			g := s.groupBytes(batch, batch, nil)
			name := fmt.Sprintf("workers=%d n=%d", workers, n)
			switch {
			case !slices.Equal(g.fps, want):
				t.Errorf("%s: striped fingerprints differ from the serial loop", name)
			case !slices.Equal(g.kbuf, wg.kbuf) || !slices.Equal(g.idx, wg.idx) ||
				!slices.Equal(g.start, wg.start) || !slices.Equal(g.cur, wg.cur):
				t.Errorf("%s: groups differ from the serial grouping", name)
			}
			for j := range g.bkbuf {
				if &g.bkbuf[j][0] != &wg.bkbuf[j][0] {
					t.Fatalf("%s: grouped key %d is not the serial grouping's", name, j)
				}
			}
			s.putGroups(g)
		}
	}
}
