package clam

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// openExpiryCLAM opens the one-shard store the expiry tests drive: a 128
// KB value log under a 512 KB index, so the index keeps entries for many log
// cycles after the log has lapped their records.
func openExpiryCLAM(t *testing.T, policy Policy) *CLAM {
	return openCLAMT(t, WithDevice(IntelSSD), WithFlash(512<<10), WithMemory(256<<10),
		WithBufferKB(16), WithValueLog(128<<10), withBatchChunk(64), WithPolicy(policy), WithSeed(23))
}

// byteOnlyRun drives a fixed stream of byte ops through a one-shard store:
// Put, Get, Delete, PutBatch and GetBatch over 6,000 keys, half of the
// picks from the 300 keys written last. Every hit must return the latest
// value a shadow map holds for its key. It returns the final virtual clock
// and a digest of every answer, in call order.
func byteOnlyRun(t *testing.T, c *CLAM) (clock time.Duration, resultsDigest uint64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2301))
	keys := make([][]byte, 6000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key-%d-%x", i, rng.Uint32())
	}
	var recent []int
	pick := func() []byte {
		if len(recent) > 0 && rng.Intn(2) == 0 {
			return keys[recent[rng.Intn(len(recent))]]
		}
		return keys[rng.Intn(len(keys))]
	}
	shadow := make(map[string][]byte)
	put := func(k []byte, i int) []byte {
		v := fmt.Appendf(nil, "v%d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(120)))
		shadow[string(k)] = v
		return v
	}
	rh := fnv.New64a()
	answer := func(k, v []byte, found bool) {
		if want, live := shadow[string(k)]; found && (!live || !bytes.Equal(v, want)) {
			t.Fatalf("key %q: got %q, latest value %q (live %v)", k, v, want, live)
		}
		fmt.Fprintf(rh, "%q %t;", v, found)
	}
	window := func() [][]byte {
		w := make([][]byte, 1+rng.Intn(64))
		for j := range w {
			w[j] = pick()
		}
		return w
	}
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(100); {
		case r < 40:
			n := rng.Intn(len(keys))
			recent = append(recent, n)
			if len(recent) > 300 {
				recent = recent[1:]
			}
			if err := c.Put(keys[n], put(keys[n], i)); err != nil {
				t.Fatal(err)
			}
		case r < 80:
			k := pick()
			v, found, err := c.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			answer(k, v, found)
		case r < 84:
			k := pick()
			delete(shadow, string(k))
			if err := c.Delete(k); err != nil {
				t.Fatal(err)
			}
		case r < 92:
			w := window()
			vals := make([][]byte, len(w))
			for j, k := range w {
				vals[j] = put(k, i)
			}
			if err := c.PutBatch(ctx, w, vals); err != nil {
				t.Fatal(err)
			}
		default:
			w := window()
			vals, found, err := c.GetBatch(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			for j, k := range w {
				answer(k, vals[j], found[j])
			}
		}
	}
	return c.Clock().Now(), rh.Sum64()
}

// TestExpiryKeepsAnswers runs byteOnlyRun through several value-log wraps.
// Under FIFO, expiring the incarnations the log has lapped must leave
// every answer as it was before expiry existed, pinned by the digest, and
// must lower the virtual clock below the one pinned with it, since the
// pages of expired incarnations are no longer read. LRU and UpdateBased
// re-insert entries and so change what the index keeps; their answers
// must match the shadow map, which byteOnlyRun checks.
func TestExpiryKeepsAnswers(t *testing.T) {
	// Captured before expiry existed, from a run with 40 evictions and 41
	// log wraps.
	const fifoClock, fifoResults = time.Duration(2568461344), uint64(0x910bca84d24d1110)
	for _, policy := range []Policy{FIFO, LRU, UpdateBased} {
		t.Run(policy.String(), func(t *testing.T) {
			c := openExpiryCLAM(t, policy)
			clock, rd := byteOnlyRun(t, c)
			st := c.Stats()
			t.Logf("clock %d, results %#x; %d expirations, %d evictions, %d log wraps",
				int64(clock), rd, st.Core.Expirations, st.Core.Evictions, st.ValueLog.Wraps)
			if st.ValueLog.Wraps < 3 || st.Core.Expirations == 0 {
				t.Fatalf("%d log wraps and %d expirations, want at least 3 and some", st.ValueLog.Wraps, st.Core.Expirations)
			}
			if policy != FIFO {
				return
			}
			if rd != fifoResults || clock >= fifoClock {
				t.Fatalf("results %#x, clock %d; pinned %#x and a clock below %d", rd, int64(clock), fifoResults, int64(fifoClock))
			}
		})
	}
}

// TestExpiryStopsAtFirstU64Put runs byte puts on a store until it expires
// incarnations, then serves one U64 put, and then laps the log again with
// byte puts: an inline value is no record pointer, so the store must
// expire nothing after it.
func TestExpiryStopsAtFirstU64Put(t *testing.T) {
	c := openExpiryCLAM(t, FIFO)
	val := bytes.Repeat([]byte{'v'}, 100)
	i := 0
	putUntil := func(done func() bool) {
		for ; !done(); i++ {
			if err := c.Put(fmt.Appendf(nil, "key-%d", i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	putUntil(func() bool { return c.Stats().Core.Expirations > 0 })
	if err := c.PutU64(7, 7); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	putUntil(func() bool { return c.Stats().ValueLog.Wraps >= before.ValueLog.Wraps+3 })
	after := c.Stats()
	if after.Core.Expirations != before.Core.Expirations {
		t.Fatalf("expirations %d -> %d after a U64 put", before.Core.Expirations, after.Core.Expirations)
	}
	if after.Core.Flushes == before.Core.Flushes {
		t.Fatal("no flush after the U64 put")
	}
	if v, found, err := c.GetU64(7); err != nil || !found || v != 7 {
		t.Fatalf("GetU64(7) = %d, %v, %v", v, found, err)
	}
}
