package clam

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
)

// Coalesced read batches against one-key calls: every op of an input
// applies to a store that reads through batches and to a twin that reads
// one key at a time. Keys come from alphabets of coalesceKeys keys per
// family, so most positions of a read batch repeat an earlier one.
const coalesceKeys = 6

// coalesce ops: each is an op byte, a window-length byte (1 to 24; 0
// reads as 1) and one key byte per window position.
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
	numCoalesceOps
)

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
		for j, k := range ukeys {
			v, ok, err := p.twin.GetU64(k)
			if err != nil {
				t.Fatal(err)
			}
			if vals[j] != v || found[j] != ok {
				t.Fatalf("GetBatchU64 position %d (key %d of %v): (%d, %t), one-key GetU64 (%d, %t)",
					j, w[j]%coalesceKeys, w, vals[j], found[j], v, ok)
			}
		}
	case copGetBatch:
		vals, found, err := p.batch.GetBatch(ctx, bkeys)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(bkeys))
		for j, k := range bkeys {
			v, ok, err := p.twin.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if found[j] != ok || !bytes.Equal(vals[j], v) || ok && vals[j] == nil {
				t.Fatalf("GetBatch position %d (%q of %v): (%q, %t), one-key Get (%q, %t)",
					j, k, w, vals[j], found[j], v, ok)
			}
			want[j] = v
		}
		checkNoAlias(t, vals, want)
	case copContainsBatch:
		found, err := p.batch.ContainsBatch(ctx, bkeys)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range bkeys {
			one, err := p.twin.ContainsBatch(ctx, [][]byte{k})
			if err != nil {
				t.Fatal(err)
			}
			if found[j] != one[0] {
				t.Fatalf("ContainsBatch position %d (%q of %v): %t, one-key ContainsBatch %t", j, k, w, found[j], one[0])
			}
		}
	case copFlush:
		p.both(func(s Store) error { return s.Flush() })
	}
}

// checkNoAlias writes to, then appends to, each returned value in turn and
// requires every other position to keep its answer.
func checkNoAlias(t *testing.T, vals, want [][]byte) {
	t.Helper()
	check := func(j int, how string) {
		for i, v := range vals {
			if i != j && !bytes.Equal(v, want[i]) {
				t.Fatalf("%s position %d's value changed position %d's: %q, want %q", how, j, i, v, want[i])
			}
		}
	}
	for j, v := range vals {
		if len(v) > 0 {
			v[0] ^= 0xff
			check(j, "writing")
			v[0] ^= 0xff
		}
		_ = append(v, "appended"...)
		check(j, "appending to")
	}
}

// FuzzCoalescedBatches runs an op sequence on 1-, 2- and 8-shard store
// pairs: GetBatchU64, GetBatch and ContainsBatch positions must equal the
// twin's one-key GetU64, Get and ContainsBatch answers, interleaved with
// per-key and batch puts and deletes and flushes of both families. The
// stores are small enough that the sequences flush buffers and evict
// incarnations, so repeats resolve from the buffer and from flash.
func FuzzCoalescedBatches(f *testing.F) {
	f.Add([]byte{
		copPutBatches, 6, 0, 1, 2, 3, 4, 5,
		copGetBatchU64, 12, 0, 0, 1, 0, 2, 1, 0, 5, 5, 5, 3, 0,
		copGetBatch, 12, 0, 0, 1, 0, 2, 1, 0, 5, 5, 5, 3, 0,
		copContainsBatch, 8, 1, 1, 1, 2, 2, 9, 9, 0,
		copDeleteU64, 1, 1,
		copDelete, 1, 5,
		copGetBatchU64, 6, 1, 1, 0, 1, 1, 0,
		copGetBatch, 6, 5, 5, 0, 5, 0, 5,
		copContainsBatch, 4, 5, 0, 5, 0,
	})
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
	f.Add(churn)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4000 {
			ops = ops[:4000]
		}
		for _, shards := range []int{1, 2, 8} {
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
		}
	})
}

// TestCoalesceKeepsCollidingKeysApart groups a byte read batch whose
// distinct keys share a fingerprint: a lookup keeps them in separate slots,
// each verified against its own key, while an existence probe, whose
// answer is per fingerprint, coalesces them.
func TestCoalesceKeepsCollidingKeysApart(t *testing.T) {
	r := newRouter(make([]*shard, 2), 1, defaultBatchChunk, 1)
	fps := []uint64{5, 5, 5, 1 << 63, 5}
	bk := [][]byte{[]byte("a"), []byte("b"), []byte("a"), []byte("c"), []byte("b")}
	for _, tc := range []struct {
		bk        [][]byte
		slots     []int // input position of each grouped slot
		positions [][]int
	}{
		{bk, []int{0, 1, 3}, [][]int{{0, 2}, {1, 4}, {3}}},
		{nil, []int{0, 3}, [][]int{{0, 1, 2, 4}, {3}}},
	} {
		g := r.groupDistinct(r.getGroups(), fps, tc.bk)
		if !slices.Equal(g.idx, tc.slots) {
			t.Fatalf("verify %t: slots at positions %v, want %v", tc.bk != nil, g.idx, tc.slots)
		}
		for j, i := range g.idx {
			var got []int
			for ; i >= 0; i = int(g.next[i]) {
				got = append(got, i)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.positions[j]) {
				t.Fatalf("verify %t: slot %d answers positions %v, want %v", tc.bk != nil, j, got, tc.positions[j])
			}
			if tc.bk != nil && int(g.mult[j]) != len(got) {
				t.Fatalf("slot %d: multiplicity %d, want %d", j, g.mult[j], len(got))
			}
		}
		if want := len(fps) - len(tc.slots); g.dups[0]+g.dups[1] != want {
			t.Fatalf("verify %t: %v repeats absorbed, want %d", tc.bk != nil, g.dups, want)
		}
		r.putGroups(g)
	}
}
