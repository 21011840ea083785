package clam

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ssd"
	"repro/internal/vclock"
)

// The byte-API differential harness mirrors differential_test.go for the
// Store byte surface: a seeded randomized stream of Put (new keys and lazy
// updates) / Delete / Get / Flush operations runs against a CLAM, a
// Sharded CLAM and a plain map[string][]byte oracle, asserting agreement
// modulo the documented semantics:
//
//   - Lazy delete (§5.1.1): a deleted key stays invisible until re-put.
//   - Eviction: once the incarnation ring or the circular value log wraps,
//     old entries may silently disappear, so "not found" for a key the
//     oracle holds is legal only in the eviction regime. A found key must
//     always carry the oracle's exact latest value — the full-key
//     verification on every record read turns fingerprint collisions and
//     lapped log records into misses, never wrong bytes.
//
// The strict phase sizes the workload below both eviction onset and the
// value log's first wrap, where the tolerance collapses to exact equality.

// byteOp is one operation of the byte-API stream.
type byteOp struct {
	kind opKind // reuses the u64 harness op kinds
	key  []byte
	val  []byte
}

// genByteOps builds a deterministic op stream over a universe of
// variable-length keys (8–47 bytes) with variable-length values.
func genByteOps(seed int64, nOps, nKeys, maxVal int, pLookup, pDelete, pFlush float64) []byteOp {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, nKeys)
	for i := range keys {
		k := make([]byte, 8+rng.Intn(40))
		rng.Read(k)
		keys[i] = k
	}
	ops := make([]byteOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		k := keys[rng.Intn(nKeys)]
		switch r := rng.Float64(); {
		case r < pFlush:
			ops = append(ops, byteOp{kind: opFlush})
		case r < pFlush+pDelete:
			ops = append(ops, byteOp{kind: opDelete, key: k})
		case r < pFlush+pDelete+pLookup:
			ops = append(ops, byteOp{kind: opLookup, key: k})
		default:
			v := make([]byte, rng.Intn(maxVal+1))
			rng.Read(v)
			ops = append(ops, byteOp{kind: opInsert, key: k, val: v})
		}
	}
	return ops
}

// applyByteDifferential feeds ops to s and the oracle in lockstep,
// checking every Get against the oracle.
func applyByteDifferential(t *testing.T, name string, s Store, ops []byteOp, strict bool) map[string][]byte {
	t.Helper()
	oracle := make(map[string][]byte)
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			if err := s.Put(o.key, o.val); err != nil {
				t.Fatalf("%s: op %d put: %v", name, i, err)
			}
			oracle[string(o.key)] = o.val
		case opDelete:
			if err := s.Delete(o.key); err != nil {
				t.Fatalf("%s: op %d delete: %v", name, i, err)
			}
			delete(oracle, string(o.key))
		case opFlush:
			if err := s.Flush(); err != nil {
				t.Fatalf("%s: op %d flush: %v", name, i, err)
			}
		case opLookup:
			v, found, err := s.Get(o.key)
			if err != nil {
				t.Fatalf("%s: op %d get: %v", name, i, err)
			}
			want, ok := oracle[string(o.key)]
			if found && (!ok || !bytes.Equal(v, want)) {
				t.Fatalf("%s: op %d get(%q) = %d bytes, oracle has (%d bytes, %v): stale or resurrected value",
					name, i, o.key, len(v), len(want), ok)
			}
			if strict && found != ok {
				t.Fatalf("%s: op %d get(%q) found=%v, oracle=%v (strict phase)",
					name, i, o.key, found, ok)
			}
		}
	}
	return oracle
}

// verifyByteFinal sweeps the oracle (serially and via GetBatch) plus a
// sample of absent keys. It returns how many oracle keys the store lost
// (legal only in the eviction regime).
func verifyByteFinal(t *testing.T, name string, s Store, oracle map[string][]byte, seed int64) int {
	t.Helper()
	keys := make([][]byte, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, []byte(k))
	}
	bv, bok, err := s.GetBatch(context.Background(), keys)
	if err != nil {
		t.Fatalf("%s: final GetBatch: %v", name, err)
	}
	lost := 0
	for i, k := range keys {
		v, found, err := s.Get(k)
		if err != nil {
			t.Fatalf("%s: final get: %v", name, err)
		}
		if found != bok[i] || !bytes.Equal(v, bv[i]) {
			t.Fatalf("%s: serial/batched divergence on %q: (%v, %d bytes) vs (%v, %d bytes)",
				name, k, found, len(v), bok[i], len(bv[i]))
		}
		if !found {
			lost++
			continue
		}
		if !bytes.Equal(v, oracle[string(k)]) {
			t.Fatalf("%s: final get(%q) returned wrong bytes", name, k)
		}
	}
	// Keys outside the universe must never be found.
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < 1000; i++ {
		k := make([]byte, 8+rng.Intn(40))
		rng.Read(k)
		if _, ok := oracle[string(k)]; ok {
			continue
		}
		if _, found, _ := s.Get(k); found {
			t.Fatalf("%s: found never-inserted key %q", name, k)
		}
	}
	return lost
}

// TestDifferentialBytesStrictNoEvictions runs one stream against three
// stores: a CLAM, a Sharded store and a WithCustomDevice CLAM over an
// Intel SSD built on its WithClock clock, which keeps a value log like
// every other store. All three must answer exactly as the oracle does.
func TestDifferentialBytesStrictNoEvictions(t *testing.T) {
	// 30k ops over 10k keys with values up to 200 B: total appended record
	// bytes stay well below the 16 MB value log, and the index stays below
	// eviction onset, so the tolerance collapses to exact equality.
	ops := genByteOps(7001, 30000, 10000, 200, 0.25, 0.10, 0.0002)
	c, s := strictStores(t, FIFO)
	clock := vclock.New()
	cd := openCLAMT(t, WithCustomDevice(ssd.New(ssd.IntelX18M(), 16<<20, clock)), WithClock(clock),
		WithFlash(16<<20), WithMemory(4<<20), WithPolicy(FIFO), WithSeed(11))
	stores := []struct {
		name string
		s    Store
	}{{"clam", c}, {"sharded", s}, {"custom-device", cd}}

	var oracle map[string][]byte
	for _, st := range stores {
		o := applyByteDifferential(t, st.name, st.s, ops, true)
		if oracle == nil {
			oracle = o
		} else if len(o) != len(oracle) {
			t.Fatalf("oracle divergence: clam %d keys, %s %d", len(oracle), st.name, len(o))
		}
	}

	for _, st := range stores {
		stats := st.s.Stats()
		if stats.Core.Evictions != 0 {
			t.Fatalf("%s: strict phase evicted %d times; retune the test sizes", st.name, stats.Core.Evictions)
		}
		if stats.ValueLog.Wraps != 0 {
			t.Fatalf("%s: strict phase wrapped the value log %d times; retune the test sizes",
				st.name, stats.ValueLog.Wraps)
		}
		if stats.ValueLog.Records == 0 || stats.ValueDevice.Writes == 0 {
			t.Fatalf("%s: value log unused (%+v)", st.name, stats.ValueLog)
		}
		if lost := verifyByteFinal(t, st.name, st.s, oracle, 7001); lost != 0 {
			t.Fatalf("%s: lost %d keys with zero evictions", st.name, lost)
		}
	}

	// Same stream, same semantics: every per-key answer must agree between
	// the three stores.
	for k, v := range oracle {
		for _, st := range stores {
			got, ok, err := st.s.Get([]byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s diverges on %q: (%v, %d bytes, %v), oracle %d bytes", st.name, k, ok, len(got), err, len(v))
			}
		}
	}
}

func TestDifferentialBytesEvictionRegime(t *testing.T) {
	for _, policy := range []Policy{FIFO, UpdateBased} {
		t.Run(policy.String(), func(t *testing.T) {
			// Tiny stores (1 MB flash, 8 KB buffers, 1 MB value log) with
			// values up to 400 B: both the incarnation rings and the value
			// logs wrap several times over the stream.
			ops := genByteOps(8002, 40000, 4000, 400, 0.15, 0.10, 0.001)
			c, s := evictionStores(t, policy)

			co := applyByteDifferential(t, "clam", c, ops, false)
			so := applyByteDifferential(t, "sharded", s, ops, false)
			if len(co) != len(so) {
				t.Fatalf("oracle divergence: %d vs %d keys", len(co), len(so))
			}

			for _, st := range []struct {
				name string
				s    Store
			}{{"clam", c}, {"sharded", s}} {
				stats := st.s.Stats()
				if stats.Core.Evictions == 0 {
					t.Fatalf("%s: eviction phase never evicted; retune the test sizes", st.name)
				}
				if stats.ValueLog.Wraps == 0 {
					t.Fatalf("%s: value log never wrapped; retune the test sizes", st.name)
				}
				lost := verifyByteFinal(t, st.name, st.s, co, 8002)
				if lost == len(co) {
					t.Fatalf("%s: lost all %d oracle keys", st.name, lost)
				}
				t.Logf("%s/%s: %d oracle keys, %d lost to eviction (%d evictions, %d log wraps)",
					st.name, policy, len(co), lost, stats.Core.Evictions, stats.ValueLog.Wraps)
			}
		})
	}
}

// TestDifferentialBytesBatchedWindows drives the strict stream with Get
// windows flushed through GetBatch on a second instance, proving the
// batched byte pipeline (index probes + value-log reads) agrees key-for-key
// with serial Gets, and that its core counters match serial Gets of each
// window's distinct keys.
func TestDifferentialBytesBatchedWindows(t *testing.T) {
	ops := genByteOps(9003, 20000, 8000, 150, 0.3, 0.08, 0.0002)
	cs, ss := strictStores(t, FIFO)
	cb, sb := strictStores(t, FIFO)

	for _, pair := range []struct {
		name            string
		serial, batched Store
	}{{"clam", cs, cb}, {"sharded", ss, sb}} {
		oracle := make(map[string][]byte)
		var win [][]byte
		flush := func(at int) {
			if len(win) == 0 {
				return
			}
			bv, bok, err := pair.batched.GetBatch(context.Background(), win)
			if err != nil {
				t.Fatalf("%s: batch before op %d: %v", pair.name, at, err)
			}
			names := make([]string, len(win))
			for i, k := range win {
				names[i] = string(k)
			}
			distinct, of := distinctInOrder(names)
			svs, soks := make([][]byte, len(distinct)), make([]bool, len(distinct))
			for d, k := range distinct {
				if svs[d], soks[d], err = pair.serial.Get([]byte(k)); err != nil {
					t.Fatalf("%s: serial get before op %d: %v", pair.name, at, err)
				}
			}
			for i, k := range win {
				sv, sok := svs[of[i]], soks[of[i]]
				if sok != bok[i] || !bytes.Equal(sv, bv[i]) {
					t.Fatalf("%s: window at %d key %q: serial (%v, %d bytes) vs batched (%v, %d bytes)",
						pair.name, at, k, sok, len(sv), bok[i], len(bv[i]))
				}
				want, ok := oracle[string(k)]
				if bok[i] != ok || (ok && !bytes.Equal(bv[i], want)) {
					t.Fatalf("%s: window at %d key %q: batched (%v) vs oracle (%v) (strict phase)",
						pair.name, at, k, bok[i], ok)
				}
			}
			win = win[:0]
		}
		both := func(at int, f func(s Store) error) {
			flush(at)
			if err := f(pair.serial); err != nil {
				t.Fatalf("%s: op %d (serial): %v", pair.name, at, err)
			}
			if err := f(pair.batched); err != nil {
				t.Fatalf("%s: op %d (batched): %v", pair.name, at, err)
			}
		}
		for i, o := range ops {
			switch o.kind {
			case opInsert:
				both(i, func(s Store) error { return s.Put(o.key, o.val) })
				oracle[string(o.key)] = o.val
			case opDelete:
				both(i, func(s Store) error { return s.Delete(o.key) })
				delete(oracle, string(o.key))
			case opFlush:
				both(i, func(s Store) error { return s.Flush() })
			case opLookup:
				win = append(win, o.key)
				if len(win) == 128 {
					flush(i)
				}
			}
		}
		flush(len(ops))
		checkLookupCountersEqual(t, pair.name, pair.serial, pair.batched)
	}
}

// TestByteBatchMutations covers PutBatch/DeleteBatch end to end on both
// implementations, including duplicate keys within one batch (last write
// wins within a shard's in-order chunk stream). A twin of each store
// replays the same mutations one key at a time, and the value log's stats
// must match: a batch kills exactly the records the per-key calls kill.
// Only BufferedBytes may differ, since a batch writes its full pages in
// one submission at its end (see storage.ValueLog.AppendBatch).
// The first batches stay in the buffers; the last one flushes them, so
// some duplicates find their earlier record buffered and others find it
// flushed, where it dies silently.
func TestByteBatchMutations(t *testing.T) {
	c, s := strictStores(t, FIFO)
	tc, ts := strictStores(t, FIFO)
	ctx := context.Background()
	for _, st := range []struct {
		name    string
		s, twin Store
	}{{"clam", c, tc}, {"sharded", s, ts}} {
		const n = 5000
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = fmt.Appendf(nil, "bulk-key-%06d", i%4000) // 1000 dups
			vals[i] = fmt.Appendf(nil, "val-%06d", i)
		}
		// Scatter the dups so some share a chunk with their first
		// occurrence and others do not.
		rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		flushes := st.s.Stats().Core.Flushes
		if err := st.s.PutBatch(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if err := st.twin.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, found, err := st.s.GetBatch(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		last := make(map[string][]byte, n)
		for i := range keys {
			last[string(keys[i])] = vals[i]
		}
		for i := range keys {
			if !found[i] || !bytes.Equal(got[i], last[string(keys[i])]) {
				t.Fatalf("%s: key %q: (%q, %v), want %q", st.name, keys[i], got[i], found[i], last[string(keys[i])])
			}
		}
		if err := st.s.DeleteBatch(ctx, keys[:1000]); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:1000] {
			if err := st.twin.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		_, found, err = st.s.GetBatch(ctx, keys[:1000])
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range found {
			if ok {
				t.Fatalf("%s: deleted key %q still found", st.name, keys[i])
			}
		}
		if f := st.s.Stats().Core.Flushes; f != flushes {
			t.Fatalf("%s: %d buffer flushes during the buffered batches; shrink them", st.name, f-flushes)
		}
		b, k := st.s.Stats().ValueLog, st.twin.Stats().ValueLog
		b.BufferedBytes = k.BufferedBytes
		if b.DeadBytes == 0 || b != k {
			t.Fatalf("%s: batch value-log stats %+v, per-key %+v", st.name, b, k)
		}
		// A batch that crosses buffer flushes, with every 3rd key repeated.
		const m = 60000
		fkeys := make([][]byte, m)
		fvals := make([][]byte, m)
		for i := range fkeys {
			fkeys[i] = fmt.Appendf(nil, "flush-key-%06d", i%(2*m/3))
			fvals[i] = fmt.Appendf(nil, "val-%06d", i)
		}
		rand.New(rand.NewSource(4)).Shuffle(m, func(i, j int) { fkeys[i], fkeys[j] = fkeys[j], fkeys[i] })
		dead := st.s.Stats().ValueLog.DeadBytes
		if err := st.s.PutBatch(ctx, fkeys, fvals); err != nil {
			t.Fatal(err)
		}
		for i := range fkeys {
			if err := st.twin.Put(fkeys[i], fvals[i]); err != nil {
				t.Fatal(err)
			}
		}
		if st.s.Stats().Core.Flushes == flushes {
			t.Fatalf("%s: the flushing batch flushed nothing", st.name)
		}
		b, k = st.s.Stats().ValueLog, st.twin.Stats().ValueLog
		b.BufferedBytes = k.BufferedBytes
		if b.DeadBytes == dead || b != k {
			t.Fatalf("%s: flushing batch value-log stats %+v, per-key %+v", st.name, b, k)
		}
		if err := st.s.PutBatch(ctx, keys[:2], keys[:1]); err == nil {
			t.Fatalf("%s: PutBatch accepted mismatched lengths", st.name)
		}
	}
}
