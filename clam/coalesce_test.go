package clam

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// Coalesced read batches against one-key calls: every op of an input
// applies to a store that reads through batches and to a twin that reads
// one key at a time. Keys come from alphabets of coalesceKeys keys per
// family, so most positions of a read batch repeat an earlier one.
const coalesceKeys = 6

// coalesce ops: each is an op byte, a window-length byte (1 to 24; 0
// reads as 1) and one key byte per window position. copLongReads cycles
// its window's keys out to longReadRun positions and reads them through
// all three batch reads.
const (
	copPutU64 = iota
	copDeleteU64
	copPut
	copDelete
	copPutBatches
	copDeleteBatch
	copGetBatchU64
	copGetBatch
	copContainsBatch
	copFlush
	copLongReads
	numCoalesceOps
)

// longReadRun is copLongReads' batch length: a shard run longer than a
// write batch's 512-key chunk, whose repeats straddle its position 512.
const longReadRun = 600

// coalescePair is a store read through batches and its twin read through
// one-key calls; both see the same mutations.
type coalescePair struct {
	t           *testing.T
	batch, twin Store
	seq         int
}

// coalesceValue is the byte value of put seq: empty for every fifth put,
// so a coalesced hit may carry no bytes.
func coalesceValue(seq int) []byte {
	if seq%5 == 0 {
		return []byte{}
	}
	return fmt.Appendf(nil, "v%d-%s", seq, bytes.Repeat([]byte{'.'}, seq%40))
}

func coalesceByteKey(i int) []byte { return fmt.Appendf(nil, "key-%d", i%coalesceKeys) }

func (p *coalescePair) both(f func(s Store) error) {
	p.t.Helper()
	for _, s := range []Store{p.batch, p.twin} {
		if err := f(s); err != nil {
			p.t.Fatal(err)
		}
	}
}

// apply runs one op over the window's key indexes w.
func (p *coalescePair) apply(op int, w []byte) {
	t, ctx := p.t, context.Background()
	t.Helper()
	ukeys := make([]uint64, len(w))
	bkeys := make([][]byte, len(w))
	for j, b := range w {
		ukeys[j], bkeys[j] = u64Key(int(b)%coalesceKeys), coalesceByteKey(int(b))
	}
	p.seq++
	switch op {
	case copPutU64:
		p.both(func(s Store) error { return s.PutU64(ukeys[0], uint64(p.seq)) })
	case copDeleteU64:
		p.both(func(s Store) error { return s.DeleteU64(ukeys[0]) })
	case copPut:
		p.both(func(s Store) error { return s.Put(bkeys[0], coalesceValue(p.seq)) })
	case copDelete:
		p.both(func(s Store) error { return s.Delete(bkeys[0]) })
	case copPutBatches:
		vals := make([]uint64, len(w))
		bvals := make([][]byte, len(w))
		for j := range vals {
			vals[j], bvals[j] = uint64(p.seq)<<8|uint64(j), coalesceValue(p.seq+j)
		}
		p.both(func(s Store) error { return s.PutBatchU64(ctx, ukeys, vals) })
		p.both(func(s Store) error { return s.PutBatch(ctx, bkeys, bvals) })
	case copDeleteBatch:
		p.both(func(s Store) error { return s.DeleteBatch(ctx, bkeys) })
	case copGetBatchU64:
		vals, found, err := p.batch.GetBatchU64(ctx, ukeys)
		if err != nil {
			t.Fatal(err)
		}
		// Reads move no answer, so each key's one-key call answers all
		// of its positions.
		type answer struct {
			v  uint64
			ok bool
		}
		one := map[uint64]answer{}
		for j, k := range ukeys {
			a, done := one[k]
			if !done {
				v, ok, err := p.twin.GetU64(k)
				if err != nil {
					t.Fatal(err)
				}
				a = answer{v, ok}
				one[k] = a
			}
			if v, ok := a.v, a.ok; vals[j] != v || found[j] != ok {
				t.Fatalf("GetBatchU64 position %d (key %d of %v): (%d, %t), one-key GetU64 (%d, %t)",
					j, w[j]%coalesceKeys, w, vals[j], found[j], v, ok)
			}
		}
	case copGetBatch:
		vals, found, err := p.batch.GetBatch(ctx, bkeys)
		if err != nil {
			t.Fatal(err)
		}
		type answer struct {
			v  []byte
			ok bool
		}
		one := map[string]answer{}
		for j, k := range bkeys {
			a, done := one[string(k)]
			if !done {
				v, ok, err := p.twin.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				a = answer{v, ok}
				one[string(k)] = a
			}
			if found[j] != a.ok || !bytes.Equal(vals[j], a.v) || a.ok && vals[j] == nil {
				t.Fatalf("GetBatch position %d (%q of %v): (%q, %t), one-key Get (%q, %t)",
					j, k, w, vals[j], found[j], a.v, a.ok)
			}
		}
		checkNoAlias(t, vals)
	case copContainsBatch:
		found, err := p.batch.ContainsBatch(ctx, bkeys)
		if err != nil {
			t.Fatal(err)
		}
		one := map[string]bool{}
		for j, k := range bkeys {
			ok, done := one[string(k)]
			if !done {
				f, err := p.twin.ContainsBatch(ctx, [][]byte{k})
				if err != nil {
					t.Fatal(err)
				}
				ok = f[0]
				one[string(k)] = ok
			}
			if found[j] != ok {
				t.Fatalf("ContainsBatch position %d (%q of %v): %t, one-key ContainsBatch %t", j, k, w, found[j], ok)
			}
		}
	case copFlush:
		p.both(func(s Store) error { return s.Flush() })
	case copLongReads:
		long := make([]byte, longReadRun)
		for j := range long {
			long[j] = w[j%len(w)]
		}
		for _, op := range []int{copGetBatchU64, copGetBatch, copContainsBatch} {
			p.apply(op, long)
		}
	}
}

// checkNoAlias requires the memory each returned value may reach, its
// backing array up to its capacity, to be disjoint from every other
// value's, so writing to or appending to one cannot change another. A
// value of capacity 0 reaches nothing: appending to it allocates.
func checkNoAlias(t *testing.T, vals [][]byte) {
	t.Helper()
	type reach struct {
		lo, hi uintptr
		pos    int
	}
	var rs []reach
	for i, v := range vals {
		if cap(v) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
			rs = append(rs, reach{lo, lo + uintptr(cap(v)), i})
		}
	}
	slices.SortFunc(rs, func(a, b reach) int { return cmp.Compare(a.lo, b.lo) })
	for k := 1; k < len(rs); k++ {
		if a, b := rs[k-1], rs[k]; a.hi > b.lo {
			t.Fatalf("position %d's value (capacity %d) reaches into position %d's (%q)",
				a.pos, cap(vals[a.pos]), b.pos, vals[b.pos])
		}
	}
}

// coalesceSeeds is FuzzCoalescedBatches' seed corpus.
func coalesceSeeds() [][]byte {
	seeds := [][]byte{{
		copPutBatches, 6, 0, 1, 2, 3, 4, 5,
		copGetBatchU64, 12, 0, 0, 1, 0, 2, 1, 0, 5, 5, 5, 3, 0,
		copGetBatch, 12, 0, 0, 1, 0, 2, 1, 0, 5, 5, 5, 3, 0,
		copContainsBatch, 8, 1, 1, 1, 2, 2, 9, 9, 0,
		copDeleteU64, 1, 1,
		copDelete, 1, 5,
		copGetBatchU64, 6, 1, 1, 0, 1, 1, 0,
		copGetBatch, 6, 5, 5, 0, 5, 0, 5,
		copContainsBatch, 4, 5, 0, 5, 0,
	}}
	// Every second round flushes before its reads, so repeats resolve
	// from flash as well as from the buffers, and the incarnation rings
	// wrap; the empty values of every fifth put coalesce as well.
	var churn []byte
	for i := range 40 {
		churn = append(churn, copPutBatches, 24)
		for j := range 24 {
			churn = append(churn, byte(i+j))
		}
		if i%2 == 1 {
			churn = append(churn, copFlush, 1, 0)
		}
		churn = append(churn, copGetBatch, 16, byte(i), byte(i), 1, 2, 2, 2, 3, 1, 4, 4, 5, 0, 0, 3, byte(i), 1)
		churn = append(churn, copGetBatchU64, 10, 3, 3, 3, byte(i), 2, 2, 0, 5, byte(i), 3)
		churn = append(churn, copContainsBatch, 5, byte(i), 1, byte(i), 1, 4)
		churn = append(churn, copPut, 1, byte(i%5), copDeleteBatch, 2, byte(i%3), byte(i%3))
	}
	return append(seeds,
		churn,
		// Shard runs longer than a write chunk: each long read cycles its
		// window out to longReadRun positions, key 2 at seven in eight, so
		// on every shard count key 2's run passes position 512 and repeats
		// on both sides of it, from flash, then from the buffers, then
		// deleted.
		[]byte{
			copPutBatches, 6, 0, 1, 2, 3, 4, 5,
			copFlush, 1, 0,
			copLongReads, 8, 2, 2, 2, 5, 2, 2, 2, 2,
			copPut, 1, 2, copPutU64, 1, 2,
			copLongReads, 16, 2, 4, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2,
			copDeleteU64, 1, 2, copDelete, 1, 2,
			copLongReads, 8, 2, 2, 2, 3, 2, 2, 2, 2,
		},
		// One GetBatchU64 meets every outcome of phase A: key 0
		// is a flash hit, key 1, put again after the flush, a buffer hit an
		// incarnation's filter admits too, key 2 a deleted flash-resident
		// key, key 3, first put after the flush, a buffer hit only the
		// staging filter admits, and key 4 a miss no filter admits, whose
		// buffer probe is skipped unless its super table has a pending
		// delete. Each key is given twice, so on every shard count each
		// shard's run is a batch.
		[]byte{
			copPutBatches, 3, 0, 1, 2,
			copFlush, 1, 0,
			copPutU64, 1, 1,
			copDeleteU64, 1, 2,
			copPutU64, 1, 3,
			copGetBatchU64, 10, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4,
		},
		// GetBatchU64 windows that pile most positions onto key 2's shard
		// (shard 6 of 8, shard 1 of 2, with keys 0 and 5), after flushes
		// of key 2 alone that put its clock ahead: the run splits, and the
		// other shards dedupe its tail (TestCoalesceSeedsLend). Key 2 hits
		// in flash, then in the buffer; key 0, deleted, misses.
		[]byte{
			copPutBatches, 6, 0, 1, 2, 3, 4, 5,
			copFlush, 1, 0,
			copPutU64, 1, 2, copFlush, 1, 0,
			copPutU64, 1, 2, copFlush, 1, 0,
			copDeleteU64, 1, 0,
			copGetBatchU64, 24, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 6, 2, 2, 2, 1, 2, 2, 3, 2, 4,
			copPutU64, 1, 2,
			copGetBatchU64, 24, 2, 1, 2, 2, 2, 2, 2, 2, 2, 6, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 5,
			copLongReads, 12, 2, 2, 2, 2, 2, 2, 2, 0, 1, 3, 4, 5,
		},
	)
}

// FuzzCoalescedBatches runs an op sequence on 1-, 2- and 8-shard store
// pairs: GetBatchU64, GetBatch and ContainsBatch positions must equal the
// twin's one-key GetU64, Get and ContainsBatch answers, interleaved with
// per-key and batch puts and deletes and flushes of both families. The
// stores are small enough that the sequences flush buffers and evict
// incarnations, so repeats resolve from the buffer and from flash, and a
// GetBatchU64 run that piles onto one shard lends its dedupe to the
// others.
func FuzzCoalescedBatches(f *testing.F) {
	for _, seed := range coalesceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runCoalesced(t, ops) })
}

// coalesceShards are the shard counts runCoalesced opens.
var coalesceShards = [...]int{1, 2, 8}

// runCoalesced runs ops on a store pair of each of coalesceShards and
// returns the positions each batch store's shards deduped for one
// another (Stats.LentDedupes).
func runCoalesced(t *testing.T, ops []byte) (lent [len(coalesceShards)]uint64) {
	if len(ops) > 4000 {
		ops = ops[:4000]
	}
	for si, shards := range coalesceShards {
		open := func() Store {
			s, err := Open(WithDevice(IntelSSD), WithFlash(1<<20), WithMemory(128<<10),
				WithValueLog(256<<10), WithBufferKB(4), WithShards(shards), WithSeed(17))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		p := &coalescePair{t: t, batch: open(), twin: open()}
		for i := 0; i+2 < len(ops); {
			op, n := int(ops[i])%numCoalesceOps, max(1, int(ops[i+1])%25)
			i += 2
			w := ops[i:min(i+n, len(ops))]
			i += len(w)
			if len(w) > 0 {
				p.apply(op, w)
			}
		}
		lent[si] = p.batch.Stats().LentDedupes
	}
	return lent
}

// TestCoalesceSeedsLend requires FuzzCoalescedBatches' seeds to split a
// GetBatchU64 run, so the fuzzer's oracle covers lent dedupe: on 2 and 8
// shards some seed lends, and on 1 shard none can.
func TestCoalesceSeedsLend(t *testing.T) {
	var lent [len(coalesceShards)]uint64
	for k, seed := range coalesceSeeds() {
		l := runCoalesced(t, seed)
		t.Logf("seed#%d: %v positions lent on %v shards", k, l, coalesceShards)
		for i, n := range l {
			lent[i] += n
		}
	}
	for i, shards := range coalesceShards {
		t.Logf("%d shards: %d positions lent", shards, lent[i])
		if (shards > 1) != (lent[i] > 0) {
			t.Errorf("%d shards: %d positions lent", shards, lent[i])
		}
	}
}

// TestLongReadRunsResolveOnce reads batches whose run on one shard is far
// longer than a write batch's 512-key chunk, 300 distinct keys cycled over
// 1200 positions, so every key repeats on both sides of position 512, on
// 1- and 8-shard stores: most of the keys route to shard 0 and half of
// them are stored, some flushed to flash and some buffered. Every
// GetBatchU64, GetBatch and ContainsBatch position must match a one-key
// call, and the core's Lookups must grow by exactly the distinct count.
func TestLongReadRunsResolveOnce(t *testing.T) {
	const (
		distinct  = 300
		positions = 1200
	)
	ctx := context.Background()
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprint(shards, "-shard"), func(t *testing.T) {
			st, err := Open(WithDevice(IntelSSD), WithFlash(4<<20), WithMemory(512<<10),
				WithValueLog(1<<20), WithBufferKB(16), WithShards(shards), WithSeed(29))
			if err != nil {
				t.Fatal(err)
			}
			r := routerOf(st)
			rng := rand.New(rand.NewSource(31))
			// Keys of shard 0 but for every sixth, which goes anywhere.
			ukeys := make([]uint64, distinct)
			bkeys := make([][]byte, distinct)
			for i := range distinct {
				ukeys[i] = rng.Uint64()
				if i%6 != 0 {
					ukeys[i] >>= 3
				}
				for {
					bkeys[i] = fmt.Appendf(nil, "long-%d-%d", i, rng.Int())
					if i%6 == 0 || r.shardIndex(fingerprint(bkeys[i], r.fpSeed)) == 0 {
						break
					}
				}
			}
			// The even keys are stored, the first half of them flushed.
			for half := range 2 {
				var uk []uint64
				var uv []uint64
				var bk, bv [][]byte
				for i := half * distinct / 2; i < (half+1)*distinct/2; i += 2 {
					uk, uv = append(uk, ukeys[i]), append(uv, uint64(i)+1)
					bk, bv = append(bk, bkeys[i]), append(bv, fmt.Appendf(nil, "value-%d", i))
				}
				if err := st.PutBatchU64(ctx, uk, uv); err != nil {
					t.Fatal(err)
				}
				if err := st.PutBatch(ctx, bk, bv); err != nil {
					t.Fatal(err)
				}
				if half == 0 {
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			ubatch := make([]uint64, positions)
			bbatch := make([][]byte, positions)
			for j := range positions {
				ubatch[j], bbatch[j] = ukeys[j%distinct], bkeys[j%distinct]
			}
			run := 0
			for _, k := range ubatch {
				if r.shardIndex(k) == 0 {
					run++
				}
			}
			if run <= 512 {
				t.Fatalf("shard 0's U64 run is %d positions, want more than 512", run)
			}
			lookups := func() uint64 { return st.Stats().Core.Lookups }

			before := lookups()
			vals, found, err := st.GetBatchU64(ctx, ubatch)
			if err != nil {
				t.Fatal(err)
			}
			if n := lookups() - before; n != distinct {
				t.Fatalf("GetBatchU64 resolved %d keys, want %d", n, distinct)
			}
			for j, k := range ubatch {
				v, ok, err := st.GetU64(k)
				if err != nil {
					t.Fatal(err)
				}
				if vals[j] != v || found[j] != ok {
					t.Fatalf("GetBatchU64 position %d: (%d, %t), one-key GetU64 (%d, %t)", j, vals[j], found[j], v, ok)
				}
			}

			before = lookups()
			bvals, bfound, err := st.GetBatch(ctx, bbatch)
			if err != nil {
				t.Fatal(err)
			}
			if n := lookups() - before; n != distinct {
				t.Fatalf("GetBatch resolved %d keys, want %d", n, distinct)
			}
			hits := 0
			for j, k := range bbatch {
				v, ok, err := st.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if bfound[j] != ok || !bytes.Equal(bvals[j], v) {
					t.Fatalf("GetBatch position %d: (%q, %t), one-key Get (%q, %t)", j, bvals[j], bfound[j], v, ok)
				}
				if ok {
					hits++
				}
			}
			if hits != positions/2 {
				t.Fatalf("GetBatch hit %d positions, want %d", hits, positions/2)
			}
			checkNoAlias(t, bvals)

			before = lookups()
			cfound, err := st.ContainsBatch(ctx, bbatch)
			if err != nil {
				t.Fatal(err)
			}
			if n := lookups() - before; n != distinct {
				t.Fatalf("ContainsBatch resolved %d keys, want %d", n, distinct)
			}
			for j, k := range bbatch {
				one, err := st.ContainsBatch(ctx, [][]byte{k})
				if err != nil {
					t.Fatal(err)
				}
				if cfound[j] != one[0] {
					t.Fatalf("ContainsBatch position %d: %t, one-key ContainsBatch %t", j, cfound[j], one[0])
				}
			}
		})
	}
}

// TestCoalesceKeepsCollidingKeysApart reads a byte batch whose distinct
// keys share a fingerprint, through a one-shard store's chunk helpers with
// chosen fingerprints: 5 indexes b's record and 1<<63 c's, and a also
// fingerprints to 5. A lookup resolves each distinct fingerprint once and
// reads its record once, then verifies every position against its own
// key, so a's positions miss and b's hit, each with a copy of its own. An
// existence probe, whose answer is one per fingerprint, reads true at
// every position.
func TestCoalesceKeepsCollidingKeysApart(t *testing.T) {
	c := openCLAMT(t, WithDevice(IntelSSD), WithFlash(1<<20), WithMemory(128<<10),
		WithValueLog(256<<10), WithBufferKB(4))
	s := c.shards[0]
	a, b, k := []byte("a"), []byte("b"), []byte("c")
	if err := s.putBatchRecords([]uint64{5, 1 << 63}, [][]byte{b, k}, [][]byte{[]byte("vb"), []byte("vc")}); err != nil {
		t.Fatal(err)
	}
	fps := []uint64{5, 5, 5, 1 << 63, 5}
	keys := [][]byte{a, b, a, k, b}
	lookups := func() uint64 { return s.bh.Stats().Lookups }

	values, found := make([][]byte, len(fps)), make([]bool, len(fps))
	before := lookups()
	if err := s.getBatchRecords(fps, keys, values, found); err != nil {
		t.Fatal(err)
	}
	if n := lookups() - before; n != 2 {
		t.Fatalf("GetBatch resolved %d keys, want one per distinct fingerprint (2)", n)
	}
	if n := len(s.batchReq); n != 2 {
		t.Fatalf("GetBatch read %d records from the value log, want one per distinct fingerprint (2)", n)
	}
	want := [][]byte{nil, []byte("vb"), nil, []byte("vc"), []byte("vb")}
	for i := range want {
		if found[i] != (want[i] != nil) || !bytes.Equal(values[i], want[i]) {
			t.Fatalf("position %d (%q): (%q, %t), want %q", i, keys[i], values[i], found[i], want[i])
		}
	}
	checkNoAlias(t, values)

	before = lookups()
	if err := s.containsBatchFPs(fps, found); err != nil {
		t.Fatal(err)
	}
	if n := lookups() - before; n != 2 {
		t.Fatalf("ContainsBatch resolved %d keys, want one per distinct fingerprint (2)", n)
	}
	if i := slices.Index(found, false); i >= 0 {
		t.Fatalf("ContainsBatch position %d (fingerprint %#x) reads false", i, fps[i])
	}
}
