package clam

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// The differential harness runs a seeded randomized stream of Insert /
// Update / Delete / Lookup / Flush operations against a CLAM, a Sharded
// CLAM, and a plain map[uint64]uint64 oracle, asserting agreement modulo
// the paper's documented semantics:
//
//   - Lazy delete (§5.1.1): a deleted key stays invisible until
//     re-inserted — it may never resurface from an older incarnation.
//   - Eviction (§5.1.2): once the incarnation ring wraps, old entries may
//     be silently dropped, so "not found" for a key the oracle still holds
//     is legal only after the structure reports evictions. A found key,
//     however, must always carry the oracle's latest value: eviction can
//     lose data but can never reorder versions or invent values.
//
// The strict phase sizes the workload below eviction onset, where the
// tolerance collapses to exact equality: CLAM, Sharded and the oracle must
// agree on every lookup.

// store is the U64 operation surface shared by CLAM and Sharded.
type store interface {
	PutU64(key, value uint64) error
	DeleteU64(key uint64) error
	GetU64(key uint64) (uint64, bool, error)
	Flush() error
	Stats() Stats
}

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opLookup
	opFlush
)

type op struct {
	kind opKind
	key  uint64
	val  uint64
}

// genOps builds a deterministic op stream over a fixed universe of
// uniformly distributed keys (the paper's keys are fingerprints, and
// Sharded routes by high key bits, so uniformity matters).
func genOps(seed int64, nOps, nKeys int, pLookup, pDelete, pFlush float64) []op {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	ops := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		k := keys[rng.Intn(nKeys)]
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

// applyDifferential feeds ops to s and the oracle in lockstep. On every
// lookup it checks the tolerance invariants; when strict is set it also
// requires found/not-found to match the oracle exactly.
func applyDifferential(t *testing.T, name string, s store, ops []op, strict bool) map[uint64]uint64 {
	t.Helper()
	oracle := make(map[uint64]uint64)
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			if err := s.PutU64(o.key, o.val); err != nil {
				t.Fatalf("%s: op %d insert: %v", name, i, err)
			}
			oracle[o.key] = o.val
		case opDelete:
			if err := s.DeleteU64(o.key); err != nil {
				t.Fatalf("%s: op %d delete: %v", name, i, err)
			}
			delete(oracle, o.key)
		case opFlush:
			if err := s.Flush(); err != nil {
				t.Fatalf("%s: op %d flush: %v", name, i, err)
			}
		case opLookup:
			v, found, err := s.GetU64(o.key)
			if err != nil {
				t.Fatalf("%s: op %d lookup: %v", name, i, err)
			}
			want, ok := oracle[o.key]
			if found && (!ok || v != want) {
				t.Fatalf("%s: op %d lookup(%#x) = %d, oracle has (%d, %v): stale or resurrected value",
					name, i, o.key, v, want, ok)
			}
			if strict && found != ok {
				t.Fatalf("%s: op %d lookup(%#x) found=%v, oracle=%v (strict phase)",
					name, i, o.key, found, ok)
			}
		}
	}
	return oracle
}

// verifyFinal sweeps the oracle and a sample of absent keys after the
// stream completes. It returns the number of oracle keys the store lost
// (legal only in the eviction regime).
func verifyFinal(t *testing.T, name string, s store, oracle map[uint64]uint64, seed int64) int {
	t.Helper()
	lost := 0
	for k, want := range oracle {
		v, found, err := s.GetU64(k)
		if err != nil {
			t.Fatalf("%s: final lookup: %v", name, err)
		}
		if !found {
			lost++
			continue
		}
		if v != want {
			t.Fatalf("%s: final lookup(%#x) = %d, oracle %d", name, k, v, want)
		}
	}
	// Keys outside the universe must never be found.
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < 2000; i++ {
		k := rng.Uint64()
		if _, ok := oracle[k]; ok {
			continue
		}
		if _, found, _ := s.GetU64(k); found {
			t.Fatalf("%s: found never-inserted key %#x", name, k)
		}
	}
	return lost
}

// strictStores opens a CLAM and a 4-shard Sharded sized so the strict op
// stream stays below eviction onset.
func strictStores(t *testing.T, policy Policy) (*CLAM, *Sharded) {
	t.Helper()
	base := []Option{WithDevice(IntelSSD), WithFlash(16 << 20), WithMemory(4 << 20),
		WithPolicy(policy), WithSeed(11)}
	c := openCLAMT(t, base...)
	s := openShardedT(t, append(base[:len(base):len(base)], WithShards(4))...)
	return c, s
}

func TestDifferentialStrictNoEvictions(t *testing.T) {
	// 40k ops over 20k keys with rare flushes: well below the incarnation
	// ring capacity, so the lazy-delete/eviction tolerance collapses to
	// exact equality with the oracle.
	ops := genOps(1001, 40000, 20000, 0.25, 0.10, 0.0002)
	c, s := strictStores(t, FIFO)

	co := applyDifferential(t, "clam", c, ops, true)
	so := applyDifferential(t, "sharded", s, ops, true)

	for _, st := range []struct {
		name string
		s    store
	}{{"clam", c}, {"sharded", s}} {
		if ev := st.s.Stats().Core.Evictions; ev != 0 {
			t.Fatalf("%s: strict phase config evicted %d times; retune the test sizes", st.name, ev)
		}
		if lost := verifyFinal(t, st.name, st.s, co, 1001); lost != 0 {
			t.Fatalf("%s: lost %d keys with zero evictions", st.name, lost)
		}
	}

	// Same stream, same semantics: both oracles are identical maps, and
	// every per-key answer must agree between the two implementations.
	if len(co) != len(so) {
		t.Fatalf("oracle divergence: clam %d keys, sharded %d", len(co), len(so))
	}
	for k, v := range co {
		cv, cok, _ := c.GetU64(k)
		sv, sok, _ := s.GetU64(k)
		if cv != sv || cok != sok || !cok || cv != v {
			t.Fatalf("clam/sharded diverge on %#x: (%d,%v) vs (%d,%v), oracle %d", k, cv, cok, sv, sok, v)
		}
	}
}

// evictionStores opens deliberately tiny instances (8 KB buffers, 1 MB of
// flash) so a tens-of-thousands op stream wraps the incarnation ring many
// times.
func evictionStores(t *testing.T, policy Policy) (*CLAM, *Sharded) {
	t.Helper()
	base := []Option{WithDevice(IntelSSD), WithFlash(1 << 20), WithMemory(256 << 10),
		WithBufferKB(8), WithPolicy(policy), WithSeed(23)}
	c := openCLAMT(t, base...)
	s := openShardedT(t, append(base[:len(base):len(base)], WithShards(4))...)
	return c, s
}

func TestDifferentialEvictionRegime(t *testing.T) {
	for _, policy := range []Policy{FIFO, UpdateBased} {
		t.Run(policy.String(), func(t *testing.T) {
			ops := genOps(2002, 60000, 8000, 0.15, 0.14, 0.001)
			c, s := evictionStores(t, policy)

			co := applyDifferential(t, "clam", c, ops, false)
			so := applyDifferential(t, "sharded", s, ops, false)
			if len(co) != len(so) {
				t.Fatalf("oracle divergence: %d vs %d keys", len(co), len(so))
			}

			for _, st := range []struct {
				name string
				s    store
			}{{"clam", c}, {"sharded", s}} {
				stats := st.s.Stats()
				if stats.Core.Evictions == 0 {
					t.Fatalf("%s: eviction phase never evicted; retune the test sizes", st.name)
				}
				lost := verifyFinal(t, st.name, st.s, co, 2002)
				// Data loss must be explainable by eviction, and the
				// structure must still retain a healthy fraction: losing
				// everything would mean routing or delete-list bugs, not
				// FIFO eviction.
				if lost == len(co) {
					t.Fatalf("%s: lost all %d oracle keys", st.name, lost)
				}
				t.Logf("%s/%s: %d oracle keys, %d lost to eviction (%d evictions, %d flushes)",
					st.name, policy, len(co), lost, stats.Core.Evictions, stats.Core.Flushes)
			}
		})
	}
}

// --- batched-lookup oracle phase ---

// batchStore is a store that also offers the batched lookup pipeline.
type batchStore interface {
	store
	GetBatchU64(ctx context.Context, keys []uint64) ([]uint64, []bool, error)
}

// applyBatchedDifferential drives the same op stream into a serial-lookup
// instance and a batched-lookup instance in lockstep. Mutations apply to
// both immediately; lookups accumulate into a window that is flushed —
// one GetBatchU64 on the batched instance, and on the serial one a per-key
// GetU64 loop over the window's distinct keys in first-occurrence order,
// which is what the coalesced batch resolves (see distinctInOrder) —
// before any mutation executes, and at the end of the stream. Every
// position of a flushed window must agree with its key's serial answer
// and obey the oracle tolerance (strict: exact found/not-found agreement).
func applyBatchedDifferential(t *testing.T, name string, serial, batched batchStore, ops []op, strict bool) map[uint64]uint64 {
	return applyBatchedDifferentialWindow(t, name, serial, batched, ops, strict, 128)
}

// applyBatchedDifferentialWindow is applyBatchedDifferential with an
// explicit lookup-window size (the hot-shard tests use windows spanning
// several router chunks, so one batch holds a queue of hot-shard chunks).
func applyBatchedDifferentialWindow(t *testing.T, name string, serial, batched batchStore, ops []op, strict bool, window int) map[uint64]uint64 {
	t.Helper()
	oracle := make(map[uint64]uint64)
	var (
		pkeys []uint64
		pwant []uint64 // oracle value at enqueue time
		pok   []bool
	)
	flush := func(at int) {
		if len(pkeys) == 0 {
			return
		}
		bv, bok, err := batched.GetBatchU64(context.Background(), pkeys)
		if err != nil {
			t.Fatalf("%s: batch before op %d: %v", name, at, err)
		}
		distinct, of := distinctInOrder(pkeys)
		svs, soks := make([]uint64, len(distinct)), make([]bool, len(distinct))
		for d, k := range distinct {
			if svs[d], soks[d], err = serial.GetU64(k); err != nil {
				t.Fatalf("%s: serial lookup before op %d: %v", name, at, err)
			}
		}
		for i, k := range pkeys {
			sv, sok := svs[of[i]], soks[of[i]]
			if sv != bv[i] || sok != bok[i] {
				t.Fatalf("%s: op window at %d key %#x: serial (%d,%v) vs batched (%d,%v)",
					name, at, k, sv, sok, bv[i], bok[i])
			}
			if bok[i] && (!pok[i] || bv[i] != pwant[i]) {
				t.Fatalf("%s: lookup(%#x) = %d, oracle had (%d, %v): stale or resurrected value",
					name, k, bv[i], pwant[i], pok[i])
			}
			if strict && bok[i] != pok[i] {
				t.Fatalf("%s: lookup(%#x) found=%v, oracle=%v (strict phase)", name, k, bok[i], pok[i])
			}
		}
		pkeys, pwant, pok = pkeys[:0], pwant[:0], pok[:0]
	}
	both := func(at int, f func(s store) error) {
		flush(at)
		if err := f(serial); err != nil {
			t.Fatalf("%s: op %d (serial): %v", name, at, err)
		}
		if err := f(batched); err != nil {
			t.Fatalf("%s: op %d (batched): %v", name, at, err)
		}
	}
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			both(i, func(s store) error { return s.PutU64(o.key, o.val) })
			oracle[o.key] = o.val
		case opDelete:
			both(i, func(s store) error { return s.DeleteU64(o.key) })
			delete(oracle, o.key)
		case opFlush:
			both(i, func(s store) error { return s.Flush() })
		case opLookup:
			w, ok := oracle[o.key]
			pkeys, pwant, pok = append(pkeys, o.key), append(pwant, w), append(pok, ok)
			if len(pkeys) == window {
				flush(i)
			}
		}
	}
	flush(len(ops))
	return oracle
}

// distinctInOrder returns the distinct keys of a read batch in
// first-occurrence order, and for each position the index of its key in
// that list: a one-key loop over the list is the lookup sequence a
// coalesced batch resolves, so its core counters are the batch's.
func distinctInOrder[K comparable](keys []K) (distinct []K, of []int) {
	at := make(map[K]int, len(keys))
	of = make([]int, len(keys))
	for i, k := range keys {
		d, ok := at[k]
		if !ok {
			d = len(distinct)
			at[k] = d
			distinct = append(distinct, k)
		}
		of[i] = d
	}
	return distinct, of
}

// checkLookupCountersEqual asserts the serial and batched instances probed
// flash identically: same lookups, hits, flash probes, spurious probes and
// per-lookup I/O histogram — the structural equality the pipeline promises
// against a one-key loop over each window's distinct keys (see
// structural).
func checkLookupCountersEqual(t *testing.T, name string, serial, batched batchStore) {
	t.Helper()
	sc, bc := serial.Stats().Core, batched.Stats().Core
	if structural(sc) != structural(bc) {
		t.Fatalf("%s: core counters diverge:\nserial  %+v\nbatched %+v", name, sc, bc)
	}
	if sc.Lookups == 0 || sc.FlashProbes == 0 {
		t.Fatalf("%s: degenerate stream (lookups=%d flash probes=%d); retune the test",
			name, sc.Lookups, sc.FlashProbes)
	}
}

func TestDifferentialBatchedStrictNoEvictions(t *testing.T) {
	ops := genOps(3001, 40000, 20000, 0.25, 0.10, 0.0002)
	cs, ss := strictStores(t, FIFO)
	cb, sb := strictStores(t, FIFO)

	co := applyBatchedDifferential(t, "clam", cs, cb, ops, true)
	so := applyBatchedDifferential(t, "sharded", ss, sb, ops, true)
	if len(co) != len(so) {
		t.Fatalf("oracle divergence: %d vs %d keys", len(co), len(so))
	}
	checkLookupCountersEqual(t, "clam", cs, cb)
	checkLookupCountersEqual(t, "sharded", ss, sb)
	for _, st := range []struct {
		name string
		s    store
	}{{"clam", cb}, {"sharded", sb}} {
		if ev := st.s.Stats().Core.Evictions; ev != 0 {
			t.Fatalf("%s: strict phase evicted %d times; retune the test sizes", st.name, ev)
		}
	}
}

func TestDifferentialBatchedEvictionRegime(t *testing.T) {
	for _, policy := range []Policy{FIFO, UpdateBased} {
		t.Run(policy.String(), func(t *testing.T) {
			ops := genOps(4002, 60000, 8000, 0.15, 0.14, 0.001)
			cs, ss := evictionStores(t, policy)
			cb, sb := evictionStores(t, policy)

			applyBatchedDifferential(t, "clam", cs, cb, ops, false)
			applyBatchedDifferential(t, "sharded", ss, sb, ops, false)
			checkLookupCountersEqual(t, "clam", cs, cb)
			checkLookupCountersEqual(t, "sharded", ss, sb)
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

// structural returns s without the counters that depend on how calls and
// device time fell, not on what the store did: the probes a held index
// image answered in DRAM (which images are held depends on which calls
// flushed), and how much flush and insert work device waits hid. A probe
// of a held image still counts in FlashProbes and LookupIOHist.
func structural(s core.Stats) core.Stats {
	s.PendingProbes, s.FlushCPUHidden, s.FlushCPULanded = 0, 0, 0
	s.InsertCPUHidden, s.InsertCPULanded = 0, 0
	return s
}
