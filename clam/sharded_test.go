package clam

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vclock"
)

// withBatchChunk overrides the batch router's write granularity, fixed at
// defaultBatchChunk in Open: write batches are consumed in chunks of at
// most n keys, and read batches stay one chunk per shard. Tests use it to
// pin chunk-64 rows and to force re-queueing.
func withBatchChunk(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: withBatchChunk(%d): chunk must be positive", n)
		}
		c.batchChunk = n
		return nil
	}
}

// openShardedSmall opens the standard test deployment: 32 MB flash, 8 MB
// DRAM, seed 7.
func openShardedSmall(t testing.TB, shards, workers int) *Sharded {
	t.Helper()
	return openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithSeed(7), WithShards(shards), WithWorkers(workers))
}

func TestOpenShardedValidation(t *testing.T) {
	base := []Option{WithDevice(IntelSSD), WithFlash(32 << 20), WithMemory(8 << 20)}
	cases := []struct {
		name string
		opts []Option
	}{
		{"non-power-of-two", append(base[:3:3], WithShards(3))},
		{"negative shards", append(base[:3:3], WithShards(-4))},
		{"negative workers", append(base[:3:3], WithShards(4), WithWorkers(-1))},
		{"shared clock", append(base[:3:3], WithShards(4), WithClock(vclock.New()))},
		{"indivisible flash", []Option{WithDevice(IntelSSD), WithFlash(32<<20 + 1), WithMemory(8 << 20), WithShards(4)}},
		{"zero flash", []Option{WithShards(4)}},
		// Out-of-range tuning options, on one CLAM and on a Sharded store:
		// negative values are rejected (0 means "default"), as is a policy
		// outside the four eviction policies.
		{"negative max incarnations", []Option{WithFlash(16 << 20), WithMemory(4 << 20), WithMaxIncarnations(-1)}},
		{"negative buffer KB", []Option{WithFlash(16 << 20), WithMemory(4 << 20), WithBufferKB(-1)}},
		{"negative memory", []Option{WithFlash(16 << 20), WithMemory(-1), WithBufferKB(128)}},
		{"negative workers on one CLAM", []Option{WithFlash(16 << 20), WithMemory(4 << 20), WithWorkers(-1)}},
		{"unknown policy", []Option{WithFlash(16 << 20), WithMemory(4 << 20), WithPolicy(Policy(99))}},
		{"negative policy", []Option{WithFlash(16 << 20), WithMemory(4 << 20), WithPolicy(Policy(-1))}},
		{"unknown policy, sharded", append(base[:3:3], WithShards(4), WithPolicy(Policy(99)))},
	}
	for _, c := range cases {
		if _, err := Open(c.opts...); err == nil {
			t.Errorf("%s: Open accepted invalid options", c.name)
		}
	}
}

func TestOpenShardedDefaults(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(8))
	if s.NumShards() != 8 || s.workers != 8 {
		t.Fatalf("defaults: shards=%d workers=%d, want 8/8", s.NumShards(), s.workers)
	}
	// Workers above the shard count are useless; the pool is capped.
	s = openShardedSmall(t, 4, 99)
	if s.workers != 4 {
		t.Fatalf("workers not capped at shards: %d", s.workers)
	}
	// WithShards(1) opens a plain CLAM, the paper's single-instance design.
	one, err := Open(WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, isCLAM := one.(*CLAM); !isCLAM {
		t.Fatalf("WithShards(1) opened %T, want *CLAM", one)
	}
	if err := one.PutU64(^uint64(0), 9); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := one.GetU64(^uint64(0)); !ok || v != 9 {
		t.Fatalf("1-shard lookup: %d %v", v, ok)
	}
}

func TestShardedRoutesByHighKeyBits(t *testing.T) {
	s := openShardedSmall(t, 8, 8)
	for i := uint64(0); i < 8; i++ {
		if err := s.PutU64(i<<61|12345, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if got := s.Shard(i).Stats().Core.Inserts; got != 1 {
			t.Errorf("shard %d received %d inserts, want exactly 1", i, got)
		}
	}
}

// TestShardedConcurrentShardIsolation hammers each shard from its own
// goroutine. Under `go test -race` this fails if any state — buffers,
// device models, clocks, histograms — leaks across shard boundaries.
func TestShardedConcurrentShardIsolation(t *testing.T) {
	const perG = 3000
	s := openShardedSmall(t, 8, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g << 61 // top 3 bits route to shard g
			for i := uint64(0); i < perG; i++ {
				k := base | (i + 1)
				if err := s.PutU64(k, i); err != nil {
					errs <- err
					return
				}
				if v, ok, err := s.GetU64(k); err != nil || !ok || v != i {
					errs <- err
					return
				}
				if i%5 == 0 {
					if err := s.DeleteU64(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Core.Inserts != 8*perG {
		t.Fatalf("merged inserts = %d, want %d", st.Core.Inserts, 8*perG)
	}
	if st.Core.Deletes != 8*(perG/5) {
		t.Fatalf("merged deletes = %d, want %d", st.Core.Deletes, 8*(perG/5))
	}
	if st.InsertLatency.Count != 8*perG || st.LookupLatency.Count != 8*perG {
		t.Fatalf("merged histogram counts: %d inserts, %d lookups", st.InsertLatency.Count, st.LookupLatency.Count)
	}
	for g := uint64(0); g < 8; g++ {
		k := g<<61 | perG // not a multiple of 5 +1, survives deletion
		if v, ok, _ := s.GetU64(k); !ok || v != perG-1 {
			t.Fatalf("shard %d lost key %#x: (%d, %v)", g, k, v, ok)
		}
	}
}

// TestShardedConcurrentOpsAndStats races random-key operations against
// concurrent Stats, Flush and Now calls: the aggregation path must take
// every shard lock correctly or -race flags it.
func TestShardedConcurrentOpsAndStats(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	var ops sync.WaitGroup
	done := make(chan struct{})
	go func() {
		// Aggregate continuously while operations are in flight; Stats,
		// Now and Flush must lock each shard correctly or -race fires.
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Stats()
				_ = s.Now()
				_ = s.Flush()
			}
		}
	}()
	for g := 0; g < 6; g++ {
		ops.Add(1)
		go func(g int64) {
			defer ops.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 4000; i++ {
				k := rng.Uint64()
				switch i % 4 {
				case 0, 1:
					s.PutU64(k, uint64(i))
				case 2:
					s.GetU64(k)
				case 3:
					s.DeleteU64(k)
				}
			}
		}(int64(g))
	}
	ops.Wait()
	close(done)
	st := s.Stats()
	if st.Core.Inserts != 6*2000 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 6*2000)
	}
}

// TestCLAMConcurrentOpsAndStats exercises the single-mutex CLAM path the
// same way, protecting the documented "safe for concurrent use" contract.
func TestCLAMConcurrentOpsAndStats(t *testing.T) {
	c := openSmall(t, IntelSSD)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Stats()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 3000; i++ {
				k := rng.Uint64()
				c.PutU64(k, uint64(i))
				c.GetU64(k)
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	if st := c.Stats(); st.Core.Inserts != 4*3000 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 4*3000)
	}
}

func TestShardedBatchMatchesSingleOps(t *testing.T) {
	batched := openShardedSmall(t, 4, 4)
	single := openShardedSmall(t, 4, 1)

	rng := rand.New(rand.NewSource(99))
	const n = 20000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = rng.Uint64()
	}
	if err := batched.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := single.PutU64(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Mix hits and misses.
	probe := make([]uint64, 0, 3000)
	for i := 0; i < 2000; i++ {
		probe = append(probe, keys[rng.Intn(n)])
	}
	for i := 0; i < 1000; i++ {
		probe = append(probe, rng.Uint64())
	}
	bv, bok, err := batched.GetBatchU64(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		sv, sok, err := single.GetU64(k)
		if err != nil {
			t.Fatal(err)
		}
		if bv[i] != sv || bok[i] != sok {
			t.Fatalf("probe %d (%#x): batch (%d,%v) vs single (%d,%v)", i, k, bv[i], bok[i], sv, sok)
		}
	}

	// Deletes via batch must be equivalent too.
	del := keys[:500]
	if err := batched.DeleteBatchU64(context.Background(), del); err != nil {
		t.Fatal(err)
	}
	dv, dok, err := batched.GetBatchU64(context.Background(), del)
	if err != nil {
		t.Fatal(err)
	}
	for i := range del {
		if dok[i] {
			t.Fatalf("deleted key %#x still found (=%d)", del[i], dv[i])
		}
	}
}

func TestShardedBatchPreservesPerShardOrder(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	// Three writes to the same key inside one batch: the last one wins,
	// because a shard group executes in input order on a single worker.
	k := uint64(0xdeadbeef) << 32
	if err := s.PutBatchU64(context.Background(), []uint64{k, k, k}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.GetU64(k); !ok || v != 3 {
		t.Fatalf("lookup after dup-key batch: (%d, %v), want (3, true)", v, ok)
	}
}

func TestShardedBatchLengthMismatch(t *testing.T) {
	s := openShardedSmall(t, 2, 2)
	if err := s.PutBatchU64(context.Background(), make([]uint64, 3), make([]uint64, 2)); err == nil {
		t.Fatal("InsertBatch accepted mismatched lengths")
	}
}

// TestShardedConcurrentBatches issues overlapping batch calls from many
// goroutines; the worker pools of concurrent batches contend on the same
// shard locks, which -race verifies is safe.
func TestShardedConcurrentBatches(t *testing.T) {
	s := openShardedSmall(t, 8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + g))
			keys := make([]uint64, 500)
			vals := make([]uint64, 500)
			for round := 0; round < 10; round++ {
				for i := range keys {
					keys[i] = rng.Uint64()
					vals[i] = rng.Uint64()
				}
				if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.GetBatchU64(context.Background(), keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := s.Stats(); st.Core.Inserts != 6*10*500 {
		t.Fatalf("inserts = %d, want %d", st.Core.Inserts, 6*10*500)
	}
}

func TestShardedFlushQuiesces(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 10000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), uint64(i)
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Device.Writes == 0 {
		t.Fatal("flush wrote nothing to any shard device")
	}
	vs, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !ok[i] || vs[i] != vals[i] {
			t.Fatalf("post-flush lookup %d: (%d, %v)", i, vs[i], ok[i])
		}
	}
}

func TestShardedPerShardVirtualClocks(t *testing.T) {
	s := openShardedSmall(t, 4, 4)
	// Work lands only on shard 0; its clock must advance while others idle.
	for i := uint64(1); i <= 5000; i++ {
		if err := s.PutU64(i, i); err != nil { // small keys: high bits zero
			t.Fatal(err)
		}
	}
	if t0 := s.Shard(0).Clock().Now(); t0 == 0 {
		t.Fatal("shard 0 clock did not advance")
	}
	for i := 1; i < 4; i++ {
		if ti := s.Shard(i).Clock().Now(); ti != 0 {
			t.Fatalf("idle shard %d clock advanced to %v", i, ti)
		}
	}
	if s.Now() != s.Shard(0).Clock().Now() {
		t.Fatal("Now() is not the max shard clock")
	}
}

// --- chunked batch router ---

// TestRouterTinyChunksEquivalence forces maximal re-queueing (chunk 1)
// and checks batch results against per-key ops, so the router's
// claim/re-enqueue cycle is exercised thousands of times under -race.
func TestRouterTinyChunksEquivalence(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithSeed(7), WithShards(8), WithWorkers(4), withBatchChunk(1))
	ref := openShardedSmall(t, 8, 1)
	rng := rand.New(rand.NewSource(44))
	keys := make([]uint64, 4000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), rng.Uint64()
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := ref.PutU64(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		rv, rok, _ := ref.GetU64(k)
		if v[i] != rv || ok[i] != rok {
			t.Fatalf("key %#x: (%d,%v) vs ref (%d,%v)", k, v[i], ok[i], rv, rok)
		}
	}
}

// TestRouterSkewedBatch routes ~70% of a batch to one shard — the scenario
// that starved the old one-task-per-shard dispatch — and checks results and
// ordering stay correct.
func TestRouterSkewedBatch(t *testing.T) {
	s := openShardedSmall(t, 8, 8)
	rng := rand.New(rand.NewSource(45))
	const n = 30000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		if rng.Float64() < 0.7 {
			keys[i] = rng.Uint64() >> 3 // top 3 bits zero: shard 0
		} else {
			keys[i] = rng.Uint64()
		}
		vals[i] = uint64(i)
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.GetBatchU64(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[uint64]uint64, n)
	for i, k := range keys {
		last[k] = vals[i]
	}
	for i, k := range keys {
		if !ok[i] || v[i] != last[k] {
			t.Fatalf("key %#x: (%d,%v), want (%d,true): same-shard chunk order violated?",
				k, v[i], ok[i], last[k])
		}
	}
}

// TestLookupBatchMatchesPerKeyPath cross-checks the pipeline path against
// a plain GetU64 loop on the same instance (FIFO policy: lookups don't
// mutate state, so both paths may run back to back).
func TestLookupBatchMatchesPerKeyPath(t *testing.T) {
	s := openShardedSmall(t, 8, 4)
	rng := rand.New(rand.NewSource(46))
	keys := make([]uint64, 20000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), rng.Uint64()
	}
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := make([]uint64, 5000)
	for i := range probe {
		if i%3 == 0 {
			probe[i] = rng.Uint64()
		} else {
			probe[i] = keys[rng.Intn(len(keys))]
		}
	}
	bv, bok, err := s.GetBatchU64(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		lv, lok, err := s.GetU64(k)
		if err != nil {
			t.Fatal(err)
		}
		if lv != bv[i] || lok != bok[i] {
			t.Fatalf("probe %d: per-key (%d,%v) vs pipeline (%d,%v)", i, lv, lok, bv[i], bok[i])
		}
	}
}

func TestOpenShardedBatchChunkValidation(t *testing.T) {
	// Open takes no chunk option: every store uses the fixed chunk.
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20), WithShards(4))
	if s.chunk != defaultBatchChunk {
		t.Fatalf("default chunk = %d, want %d", s.chunk, defaultBatchChunk)
	}
}

// --- hot-shard regimes ---

// The hot-shard differential regime: the lookup and insert oracles of
// differential_test.go / differential_insert_test.go re-run over Zipf
// streams whose hot mass lands on one shard. A small router chunk makes
// the hot shard hold many pending chunks, so one worker owns it across
// chunks while the others drain the cold shards. Key-for-key results and
// every core counter, per shard, must equal the serial per-key instance.

// genHotShardOps builds a deterministic op stream whose key popularity is
// Zipf and whose hot mass lands on shard 0 of a 4-shard deployment: the
// first hotFrac of the key universe — the heavy ranks — has its top two
// key bits cleared. hotFrac 1.0 makes every batch single-shard.
func genHotShardOps(seed int64, nOps, nKeys int, hotFrac, pLookup, pDelete, pFlush float64) []op {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, nKeys)
	hot := int(float64(nKeys) * hotFrac)
	for i := range keys {
		k := rng.Uint64()
		if i < hot {
			k &= 1<<62 - 1 // clear the top 2 bits: shard 0 of 4
		}
		keys[i] = k
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(nKeys-1))
	ops := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		k := keys[z.Uint64()]
		switch r := rng.Float64(); {
		case r < pFlush:
			ops = append(ops, op{kind: opFlush})
		case r < pFlush+pDelete:
			ops = append(ops, op{kind: opDelete, key: k})
		case r < pFlush+pDelete+pLookup:
			ops = append(ops, op{kind: opLookup, key: k})
		default:
			ops = append(ops, op{kind: opInsert, key: k, val: rng.Uint64()})
		}
	}
	return ops
}

// hotShardStores opens a serial per-key Sharded and a batched twin of the
// same shape whose router cuts a hot shard's group into 256-key chunks.
func hotShardStores(t *testing.T, base []Option) (serial, batched *Sharded) {
	t.Helper()
	base = base[:len(base):len(base)]
	serial = openShardedT(t, append(base, WithShards(4), WithWorkers(4))...)
	batched = openShardedT(t, append(base, WithShards(4), WithWorkers(4), withBatchChunk(256))...)
	return serial, batched
}

// checkShardCountersEqual asserts per-shard core-counter equality — a
// stronger pin than the aggregate: no shard may have done different
// structural work, whichever worker executed its chunks.
func checkShardCountersEqual(t *testing.T, name string, serial, batched *Sharded) {
	t.Helper()
	for i := 0; i < serial.NumShards(); i++ {
		sc, bc := serial.Shard(i).Stats().Core, batched.Shard(i).Stats().Core
		if structural(sc) != structural(bc) {
			t.Fatalf("%s: shard %d core counters diverge:\nserial  %+v\nbatched %+v", name, i, sc, bc)
		}
	}
}

func TestDifferentialHotShardLookups(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hotFrac float64
	}{
		{"hot85", 0.85},      // skewed across shards
		{"singleShard", 1.0}, // every batch routes to one shard
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := genHotShardOps(9001, 40000, 20000, tc.hotFrac, 0.30, 0.08, 0.0002)
			base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
				WithPolicy(FIFO), WithSeed(11)}
			serial, batched := hotShardStores(t, base)
			// Lookup windows span several router chunks of the hot shard.
			applyBatchedDifferentialWindow(t, tc.name, serial, batched, ops, true, 1536)
			checkLookupCountersEqual(t, tc.name, serial, batched)
			checkShardCountersEqual(t, tc.name, serial, batched)
			// The hot shard's runs split, so the oracle covers lent dedupe.
			if lent := batched.Stats().LentDedupes; lent == 0 {
				t.Fatal("no shard deduped for the hot shard's runs")
			} else {
				t.Logf("%d positions lent", lent)
			}
		})
	}
}

func TestDifferentialHotShardInserts(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		ops := genHotShardOps(9102, 40000, 20000, 0.85, 0.15, 0.06, 0.0002)
		base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
			WithPolicy(FIFO), WithSeed(11)}
		serial, batched := hotShardStores(t, base)
		oracle := applyInsertDifferentialWindow(t, "hot-strict", serial, batched, ops, true, 1536)
		verifyInsertFinal(t, "hot-strict", serial, batched, oracle, 9102)
		checkInsertCountersEqual(t, "hot-strict", serial, batched)
		checkShardCountersEqual(t, "hot-strict", serial, batched)
	})
	t.Run("eviction", func(t *testing.T) {
		// Tiny instances: the hot shard's incarnation ring wraps many
		// times, so its batches drive flush cascades and evictions.
		ops := genHotShardOps(9203, 60000, 8000, 0.85, 0.12, 0.10, 0.001)
		base := []Option{WithDevice(IntelSSD), WithFlash(1 << 20), WithMemory(256 << 10),
			WithBufferKB(8), WithPolicy(FIFO), WithSeed(23)}
		serial, batched := hotShardStores(t, base)
		oracle := applyInsertDifferentialWindow(t, "hot-evict", serial, batched, ops, false, 1536)
		verifyInsertFinal(t, "hot-evict", serial, batched, oracle, 9203)
		checkInsertCountersEqual(t, "hot-evict", serial, batched)
		checkShardCountersEqual(t, "hot-evict", serial, batched)
		if batched.Stats().Core.Evictions == 0 {
			t.Fatal("eviction regime never evicted; retune the test sizes")
		}
	})
}

// TestBatchGroupingAllocs is the allocation guard for the batch surface:
// once the pool is warm, grouping a large batch — the counting sort, the
// per-shard runs, the result slots and the fingerprint buffer, for writes
// and for reads — must not allocate per call, and a full batch call
// must allocate only its outputs, the router's goroutines and the core
// pipeline's own per-chunk state.
func TestBatchGroupingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a fraction of sync.Pool puts, so exact allocation counts are meaningless; CI runs this guard in a non-race step")
	}
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithShards(8), WithWorkers(4), WithSeed(5))
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 4096)
	vals := make([]uint64, len(keys))
	bkeys := make([][]byte, 512)
	bvals := make([][]byte, len(bkeys))
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), uint64(i)
	}
	for i := range bkeys {
		bkeys[i] = make([]byte, 16)
		rng.Read(bkeys[i])
		bvals[i] = bkeys[i][:8]
	}
	group := func() {
		s.putGroups(s.group(keys, vals))
		s.putGroups(s.groupBytes(bkeys, bkeys, bvals))
		s.putGroups(s.group(keys, nil))
		s.putGroups(s.groupBytes(bkeys, bkeys, nil))
	}
	group()
	// sync.Pool may shed entries on a GC, so allow a stray allocation or
	// two; a per-key or per-call regression measures in the hundreds.
	if allocs := testing.AllocsPerRun(20, group); allocs > 4 {
		t.Fatalf("grouping allocates %.1f allocs per batch; want ~0", allocs)
	}

	// Whole batch calls at 8 shards and 4 workers, bounded at their
	// measured counts: the outputs, the router's ready queue, goroutines
	// and closures, and the core pipelines' per-chunk state. GetBatch adds
	// one value arena per chunk, not one copy per hit (512 hits here; see
	// TestDedupWindowAllocs for the dedup shape). AllocsPerRun truncates
	// the mean, so a rare pool refill does not show.
	ctx := context.Background()
	if err := s.PutBatch(ctx, bkeys, bvals); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		bound float64
		call  func() error
	}{
		{"PutBatchU64", 5, func() error { return s.PutBatchU64(ctx, keys, vals) }},
		{"GetBatchU64", 7, func() error { _, _, err := s.GetBatchU64(ctx, keys); return err }},
		{"GetBatch", 15, func() error { _, _, err := s.GetBatch(ctx, bkeys); return err }},
		{"ContainsBatch", 6, func() error { _, err := s.ContainsBatch(ctx, bkeys); return err }},
		{"DeleteBatch", 5, func() error { return s.DeleteBatch(ctx, bkeys) }},
	} {
		for i := 0; i < 3; i++ { // warm the pool and the shards' scratch
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.1f allocs per call", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s allocates %.1f per warmed call; want at most %.0f", c.name, allocs, c.bound)
		}
	}
}

// TestLookupBatchAllocs pins the allocations of a steady-state 4096-key
// GetBatchU64 on the get-batch-zipf store shape (8 shards, 2 workers) at a
// small scale, warmed so most lookups probe flash: the outputs, the
// router's grouping and goroutines, and nothing per probe. The lookup
// pipeline's probe reads and page views must not add to it. Two kinds of
// batch run: uniform keys, half of them stored, and Zipf(1.1)-skewed
// recently stored keys, whose hot shard's run lends its dedupe to the
// other shards: the pieces, forwarded keys and their index map must not
// add either. The skewed calls rotate through more distinct keys than the
// hot-entry caches hold, so the measured calls both lend and probe flash.
func TestLookupBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a fraction of sync.Pool puts, so exact allocation counts are meaningless; CI runs this guard in a non-race step")
	}
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithShards(8), WithWorkers(2), WithSeed(9))
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	const rounds, recentRounds = 80, 16
	keys, vals := make([]uint64, 8192), make([]uint64, 8192)
	var stored, recent []uint64
	for round := 0; round < rounds; round++ {
		for i := range keys {
			keys[i], vals[i] = rng.Uint64(), uint64(i+1)
		}
		if err := s.PutBatchU64(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, keys[:64]...)
		if round >= rounds-recentRounds {
			recent = append(recent, keys...)
		}
	}
	if s.Stats().Core.Evictions == 0 {
		t.Fatal("warm-up did not reach the eviction regime")
	}
	uniform := make([]uint64, 4096)
	for i := range uniform {
		if i%2 == 0 {
			uniform[i] = stored[rng.Intn(len(stored))]
		} else {
			uniform[i] = rng.Uint64()
		}
	}
	// Zipf(1.1) ranks over the recent keys, so the hottest keys repeat on
	// their shards as they do on get-batch-zipf, with each batch's ranks
	// shifted to other keys.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(recent)-1))
	skewed := make([][]uint64, 32)
	for b := range skewed {
		skewed[b] = make([]uint64, 4096)
		for i := range skewed[b] {
			skewed[b][i] = recent[(int(zipf.Uint64())+b*len(recent)/len(skewed))%len(recent)]
		}
	}
	for _, c := range []struct {
		name    string
		batches [][]uint64
		lends   bool // the measured calls lend as well as probe flash
	}{{"uniform", [][]uint64{uniform}, false}, {"zipf", skewed, true}} {
		calls := 0
		get := func() {
			if _, _, err := s.GetBatchU64(ctx, c.batches[calls%len(c.batches)]); err != nil {
				t.Fatal(err)
			}
			calls++
		}
		for range max(3, len(c.batches)) { // warm the pool and the shards' scratch
			get()
		}
		before, lent := s.Stats().Core.FlashProbes, s.Stats().LentDedupes
		allocs := testing.AllocsPerRun(20, get)
		st := s.Stats()
		if st.Core.FlashProbes == before {
			t.Fatalf("%s: no lookup probed flash", c.name)
		}
		if c.lends && st.LentDedupes == lent {
			t.Fatalf("%s: no run lent its dedupe", c.name)
		}
		t.Logf("%s GetBatchU64 of %d keys: %.1f allocs per call, %d flash probes, %d positions lent",
			c.name, len(c.batches[0]), allocs, st.Core.FlashProbes-before, st.LentDedupes-lent)
		const bound = 5 // the router's per-call allocations; none per key or probe
		if allocs > bound {
			t.Errorf("%s GetBatchU64 allocates %.1f per warmed call; want at most %d", c.name, allocs, bound)
		}
	}
}
