package clam

import (
	"context"
	"math/rand"
	"testing"
)

// The insert-batch differential oracle, mirroring differential_test.go's
// lookup oracle on the write side: the same seeded op stream drives a
// serial-mutation instance (per-key PutU64/DeleteU64) and a batched
// instance (windowed PutBatchU64/DeleteBatchU64) in lockstep. Windows
// preserve op order — a kind switch, a lookup or a Flush drains pending
// mutations first — so the batched instance sees exactly the serial
// sequence, just in batch-sized bites. The contract under test is the
// insert pipeline's promise: exact core-counter equality and identical
// post-state lookups, in both the strict and the eviction regimes, for
// CLAM and Sharded alike.

// batchMutStore is a store that also offers the batched mutation pipeline.
type batchMutStore interface {
	store
	PutBatchU64(ctx context.Context, keys, values []uint64) error
	DeleteBatchU64(ctx context.Context, keys []uint64) error
}

// applyInsertDifferential drives ops into serial and batched in lockstep,
// checking each lookup against both instances and the oracle tolerance
// (strict: exact found/not-found agreement below eviction onset).
func applyInsertDifferential(t *testing.T, name string, serial, batched batchMutStore, ops []op, strict bool) map[uint64]uint64 {
	return applyInsertDifferentialWindow(t, name, serial, batched, ops, strict, 192)
}

// applyInsertDifferentialWindow is applyInsertDifferential with an explicit
// mutation-window size (see applyBatchedDifferentialWindow).
func applyInsertDifferentialWindow(t *testing.T, name string, serial, batched batchMutStore, ops []op, strict bool, window int) map[uint64]uint64 {
	t.Helper()
	ctx := context.Background()
	oracle := make(map[uint64]uint64)
	var (
		insKeys, insVals []uint64
		delKeys          []uint64
	)
	flushIns := func(at int) {
		if len(insKeys) == 0 {
			return
		}
		if err := batched.PutBatchU64(ctx, insKeys, insVals); err != nil {
			t.Fatalf("%s: insert batch before op %d: %v", name, at, err)
		}
		insKeys, insVals = insKeys[:0], insVals[:0]
	}
	flushDel := func(at int) {
		if len(delKeys) == 0 {
			return
		}
		if err := batched.DeleteBatchU64(ctx, delKeys); err != nil {
			t.Fatalf("%s: delete batch before op %d: %v", name, at, err)
		}
		delKeys = delKeys[:0]
	}
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			if err := serial.PutU64(o.key, o.val); err != nil {
				t.Fatalf("%s: op %d insert (serial): %v", name, i, err)
			}
			flushDel(i)
			insKeys, insVals = append(insKeys, o.key), append(insVals, o.val)
			if len(insKeys) >= window {
				flushIns(i)
			}
			oracle[o.key] = o.val
		case opDelete:
			if err := serial.DeleteU64(o.key); err != nil {
				t.Fatalf("%s: op %d delete (serial): %v", name, i, err)
			}
			flushIns(i)
			delKeys = append(delKeys, o.key)
			if len(delKeys) >= window {
				flushDel(i)
			}
			delete(oracle, o.key)
		case opFlush:
			flushIns(i)
			flushDel(i)
			if err := serial.Flush(); err != nil {
				t.Fatalf("%s: op %d flush (serial): %v", name, i, err)
			}
			if err := batched.Flush(); err != nil {
				t.Fatalf("%s: op %d flush (batched): %v", name, i, err)
			}
		case opLookup:
			flushIns(i)
			flushDel(i)
			sv, sok, err := serial.GetU64(o.key)
			if err != nil {
				t.Fatalf("%s: op %d lookup (serial): %v", name, i, err)
			}
			bv, bok, err := batched.GetU64(o.key)
			if err != nil {
				t.Fatalf("%s: op %d lookup (batched): %v", name, i, err)
			}
			if sv != bv || sok != bok {
				t.Fatalf("%s: op %d lookup(%#x): serial (%d,%v) vs batched (%d,%v)",
					name, i, o.key, sv, sok, bv, bok)
			}
			want, ok := oracle[o.key]
			if bok && (!ok || bv != want) {
				t.Fatalf("%s: op %d lookup(%#x) = %d, oracle has (%d, %v): stale or resurrected value",
					name, i, o.key, bv, want, ok)
			}
			if strict && bok != ok {
				t.Fatalf("%s: op %d lookup(%#x) found=%v, oracle=%v (strict phase)",
					name, i, o.key, bok, ok)
			}
		}
	}
	flushIns(len(ops))
	flushDel(len(ops))
	return oracle
}

// checkInsertCountersEqual asserts the serial and batched instances did
// byte-identical structural work: every core counter — inserts, deletes,
// flushes, evictions, cascades, partial scans, re-insertions and the
// lookup-side counters from the interleaved checks — must match exactly,
// but for those that depend on timing (see structural).
func checkInsertCountersEqual(t *testing.T, name string, serial, batched batchMutStore) {
	t.Helper()
	sc, bc := serial.Stats().Core, batched.Stats().Core
	if structural(sc) != structural(bc) {
		t.Fatalf("%s: core counters diverge:\nserial  %+v\nbatched %+v", name, sc, bc)
	}
	if sc.Inserts == 0 || sc.Flushes == 0 {
		t.Fatalf("%s: degenerate stream (inserts=%d flushes=%d); retune the test", name, sc.Inserts, sc.Flushes)
	}
}

// verifyInsertFinal sweeps the oracle and a sample of absent keys on both
// instances, requiring per-key agreement between them throughout.
func verifyInsertFinal(t *testing.T, name string, serial, batched batchMutStore, oracle map[uint64]uint64, seed int64) {
	t.Helper()
	for k, want := range oracle {
		sv, sok, err := serial.GetU64(k)
		if err != nil {
			t.Fatalf("%s: final serial lookup: %v", name, err)
		}
		bv, bok, err := batched.GetU64(k)
		if err != nil {
			t.Fatalf("%s: final batched lookup: %v", name, err)
		}
		if sv != bv || sok != bok {
			t.Fatalf("%s: final lookup(%#x): serial (%d,%v) vs batched (%d,%v)", name, k, sv, sok, bv, bok)
		}
		if bok && bv != want {
			t.Fatalf("%s: final lookup(%#x) = %d, oracle %d", name, k, bv, want)
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < 2000; i++ {
		k := rng.Uint64()
		if _, ok := oracle[k]; ok {
			continue
		}
		sv, sok, _ := serial.GetU64(k)
		bv, bok, _ := batched.GetU64(k)
		if sv != bv || sok != bok {
			t.Fatalf("%s: absent-key lookup(%#x): serial (%d,%v) vs batched (%d,%v)", name, k, sv, sok, bv, bok)
		}
	}
}

func TestDifferentialInsertBatchStrict(t *testing.T) {
	// Insert-heavy stream below eviction onset: exact oracle agreement,
	// exact counter equality, and zero evictions on both sides.
	ops := genOps(5001, 40000, 20000, 0.15, 0.08, 0.0002)
	cs, ss := strictStores(t, FIFO)
	cb, sb := strictStores(t, FIFO)

	co := applyInsertDifferential(t, "clam", cs, cb, ops, true)
	so := applyInsertDifferential(t, "sharded", ss, sb, ops, true)
	if len(co) != len(so) {
		t.Fatalf("oracle divergence: %d vs %d keys", len(co), len(so))
	}
	verifyInsertFinal(t, "clam", cs, cb, co, 5001)
	verifyInsertFinal(t, "sharded", ss, sb, so, 5001)
	checkInsertCountersEqual(t, "clam", cs, cb)
	checkInsertCountersEqual(t, "sharded", ss, sb)
	for _, st := range []struct {
		name string
		s    store
	}{{"clam", cb}, {"sharded", sb}} {
		if ev := st.s.Stats().Core.Evictions; ev != 0 {
			t.Fatalf("%s: strict phase evicted %d times; retune the test sizes", st.name, ev)
		}
	}
}

func TestDifferentialInsertBatchEvictionRegime(t *testing.T) {
	for _, policy := range []Policy{FIFO, UpdateBased} {
		t.Run(policy.String(), func(t *testing.T) {
			ops := genOps(6002, 60000, 8000, 0.12, 0.12, 0.001)
			cs, ss := evictionStores(t, policy)
			cb, sb := evictionStores(t, policy)

			co := applyInsertDifferential(t, "clam", cs, cb, ops, false)
			so := applyInsertDifferential(t, "sharded", ss, sb, ops, false)
			verifyInsertFinal(t, "clam", cs, cb, co, 6002)
			verifyInsertFinal(t, "sharded", ss, sb, so, 6002)
			checkInsertCountersEqual(t, "clam", cs, cb)
			checkInsertCountersEqual(t, "sharded", ss, sb)
			for _, st := range []struct {
				name string
				s    store
			}{{"clam", cb}, {"sharded", sb}} {
				if st.s.Stats().Core.Evictions == 0 {
					t.Fatalf("%s: eviction phase never evicted; retune the test sizes", st.name)
				}
			}
		})
	}
}

// TestInsertBatchBytePathEquivalence drives the byte-keyed PutBatch against
// a serial Put loop: identical record placement (value-log stats), core
// counters, and per-key Get results — the two overlapped write streams must
// be pure time-model changes.
func TestInsertBatchBytePathEquivalence(t *testing.T) {
	open := func(shards int) batchByteStore {
		t.Helper()
		opts := []Option{WithDevice(IntelSSD), WithFlash(8 << 20), WithMemory(2 << 20),
			WithValueLog(1 << 20), WithSeed(31)}
		if shards > 1 {
			return openShardedT(t, append(opts, WithShards(shards))...)
		}
		return openCLAMT(t, opts...)
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"clam", 1}, {"sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			serial, batched := open(tc.shards), open(tc.shards)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(7001))
			keys := make([][]byte, 6000)
			vals := make([][]byte, len(keys))
			for i := range keys {
				keys[i] = make([]byte, 12+rng.Intn(20))
				rng.Read(keys[i])
				vals[i] = make([]byte, rng.Intn(400))
				rng.Read(vals[i])
			}
			for at := 0; at < len(keys); at += 777 {
				hi := min(at+777, len(keys))
				for i := at; i < hi; i++ {
					if err := serial.Put(keys[i], vals[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := batched.PutBatch(ctx, keys[at:hi], vals[at:hi]); err != nil {
					t.Fatal(err)
				}
			}
			sst, bst := serial.Stats(), batched.Stats()
			if structural(sst.Core) != structural(bst.Core) {
				t.Fatalf("core counters diverge:\nserial  %+v\nbatched %+v", sst.Core, bst.Core)
			}
			if sst.ValueLog.Records != bst.ValueLog.Records ||
				sst.ValueLog.AppendedBytes != bst.ValueLog.AppendedBytes ||
				sst.ValueLog.Wraps != bst.ValueLog.Wraps {
				t.Fatalf("value-log stats diverge:\nserial  %+v\nbatched %+v", sst.ValueLog, bst.ValueLog)
			}
			for i, k := range keys {
				sv, sok, err := serial.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				bv, bok, err := batched.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if sok != bok || string(sv) != string(bv) {
					t.Fatalf("key %d: serial (%q,%v) vs batched (%q,%v)", i, sv, sok, bv, bok)
				}
			}
		})
	}
}

// batchByteStore is the byte surface the equivalence test needs.
type batchByteStore interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool, error)
	PutBatch(ctx context.Context, keys, values [][]byte) error
	Stats() Stats
}
