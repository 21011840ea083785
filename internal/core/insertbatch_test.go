package core

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/ssd"
	"repro/internal/vclock"
)

// repeatConfig is a one-table store whose 4 KB buffer holds 128 entries,
// so a few hundred keys flush it and, under partial discard, cascade.
func repeatConfig(policy EvictionPolicy) Config {
	clock := vclock.New()
	return Config{
		Device:             ssd.New(ssd.IntelX18M(), 256<<10, clock),
		Clock:              clock,
		BufferBytes:        4 << 10,
		NumIncarnations:    4,
		FilterBitsPerEntry: 16,
		Policy:             policy,
		Seed:               11,
	}
}

// FuzzInsertBatchRepeats' ops: a byte below opFresh appends one of 8 hot
// keys to the batch being built, one below opEnd appends that many fresh
// keys less 0x7f (1 to 112), which fill the buffer, one below opDelete
// ends the batch, and any other ends it and deletes a hot key.
const (
	opFresh  = 0x80
	opEnd    = 0xf0
	opDelete = 0xf8
)

// repeatBatch is one decoded batch and the hot key deleted after it, 0
// for none.
type repeatBatch struct {
	keys []uint64
	del  uint64
}

// decodeRepeatOps decodes ops into batches until they hold 8,192
// positions, and returns every key they use.
func decodeRepeatOps(ops []byte) (batches []repeatBatch, universe []uint64) {
	universe = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var keys []uint64
	for pos := 0; len(ops) > 0 && pos < 8192; ops = ops[1:] {
		switch op := ops[0]; {
		case op < opFresh:
			keys = append(keys, universe[op%8])
			pos++
		case op < opEnd:
			for range op - opFresh + 1 {
				universe = append(universe, uint64(len(universe))+100)
				keys = append(keys, universe[len(universe)-1])
				pos++
			}
		default:
			b := repeatBatch{keys: keys}
			if op >= opDelete {
				b.del = universe[op%8]
			}
			batches, keys = append(batches, b), nil
		}
	}
	return append(batches, repeatBatch{keys: keys}), universe
}

// repeatSeeds are FuzzInsertBatchRepeats' seed corpus: mode bit 0 picks
// UpdateBased over FIFO and bit 1 passes displaced words.
var repeatSeeds = []struct {
	mode byte
	ops  []byte
}{
	// A hot key repeated 600 positions later, with only other hot keys
	// between: a flush-free batch that must advance the clocks equally.
	{0, slices.Concat([]byte{0}, bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 86), []byte{0, opEnd})},
	// Hot keys between runs of fresh keys that flush and cascade, then a
	// deleted hot key inserted twice.
	{3, slices.Concat([]byte{0, 1, 2, 3}, bytes.Repeat([]byte{0xef, 0, 1}, 8), []byte{2, 3, opEnd, opDelete + 3, 3, 0xc0, 3, 3, opEnd})},
	{2, slices.Concat([]byte{0, 1}, bytes.Repeat([]byte{0xef, 1, 0}, 6), bytes.Repeat([]byte{4, 5}, 300), []byte{opDelete + 5, 5, 0xa0, 5})},
	{1, slices.Concat(bytes.Repeat([]byte{0, 0xef, 0, 6}, 7), []byte{opEnd, 6, 0xef, 0xef, 6, 0, 0})},
}

// FuzzInsertBatchRepeats checks InsertBatch's repeated keys against
// one-key inserts on a twin: every batch over a tiny hot alphabet, with
// fresh keys that flush and cascade between a key's occurrences, must
// leave the same state and counters and displace the same words, a batch
// that flushes nothing must advance the clock as much as its one-key
// inserts, and every later lookup must answer alike.
func FuzzInsertBatchRepeats(f *testing.F) {
	for _, s := range repeatSeeds {
		f.Add(s.mode, s.ops)
	}
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		policy := []EvictionPolicy{FIFO, UpdateBased}[mode&1]
		serial, batched := mustNew(t, repeatConfig(policy)), mustNew(t, repeatConfig(policy))
		batches, universe := decodeRepeatOps(ops)
		var vals, want, got []uint64
		var one [1]uint64
		for _, batch := range batches {
			keys := batch.keys
			for len(vals) < len(keys) {
				vals = append(vals, uint64(len(vals))+1)
			}
			vals = vals[:len(keys)]
			flushes, from := serial.Stats().Flushes, serial.cfg.Clock.Now()
			want = want[:0]
			for i := range keys {
				if err := serial.InsertBatch(keys[i:i+1], vals[i:i+1], one[:]); err != nil {
					t.Fatal(err)
				}
				want = append(want, one[0])
			}
			got = nil
			if mode&2 != 0 {
				got = make([]uint64, len(keys))
			}
			bfrom := batched.cfg.Clock.Now()
			if err := batched.InsertBatch(keys, vals, got); err != nil {
				t.Fatal(err)
			}
			if got != nil && !slices.Equal(got, want) {
				t.Fatalf("batch of %d displaced %v, its one-key inserts %v", len(keys), got, want)
			}
			if serial.Stats().Flushes == flushes {
				s, b := serial.cfg.Clock.Now()-from, batched.cfg.Clock.Now()-bfrom
				if s != b {
					t.Fatalf("a flush-free batch of %d advanced the clock %v, its one-key inserts %v", len(keys), b, s)
				}
			}
			checkSameState(t, serial, batched)
			for _, b := range []*BufferHash{serial, batched} {
				if err := b.Delete(batch.del); batch.del != 0 && err != nil {
					t.Fatal(err)
				}
			}
		}
		checkInsertTwin(t, serial, batched, universe, 412)
	})
}

// checkSameState requires two instances to hold the same counters, flush
// sequence, and, in every super table, the same buffer size, incarnations
// and delete list.
func checkSameState(t *testing.T, a, b *BufferHash) {
	t.Helper()
	if as, bs := a.Stats(), b.Stats(); as != bs {
		t.Fatalf("counters diverge:\none-key %+v\nbatched %+v", as, bs)
	}
	if a.seq != b.seq || a.nextSlot != b.nextSlot {
		t.Fatalf("flush sequence %d at slot %d, batched %d at slot %d", a.seq, a.nextSlot, b.seq, b.nextSlot)
	}
	for i, x := range a.parts {
		y := b.parts[i]
		if x.buf.Len() != y.buf.Len() || x.flushGen != y.flushGen || x.live != y.live || x.dead != y.dead ||
			!slices.Equal(x.incs, y.incs) || !maps.Equal(x.deleteList, y.deleteList) {
			t.Fatalf("super table %d diverges: one-key %d buffered, gen %d, %d live, incarnations %v, deletes %v; batched %d, %d, %d, %v, %v",
				i, x.buf.Len(), x.flushGen, x.live, x.incs, x.deleteList, y.buf.Len(), y.flushGen, y.live, y.incs, y.deleteList)
		}
	}
}

// TestInsertBatchRepeatSeeds checks that FuzzInsertBatchRepeats' seeds
// reach what it is for, replayed through one-key inserts: a repeat that
// overwrites its buffered key more than 512 positions after the key's
// first occurrence, a repeat whose key a flush moved out since its
// previous occurrence, and a cascade.
func TestInsertBatchRepeatSeeds(t *testing.T) {
	var far, moved bool
	var cascades uint64
	for _, s := range repeatSeeds {
		b := mustNew(t, repeatConfig([]EvictionPolicy{FIFO, UpdateBased}[s.mode&1]))
		batches, _ := decodeRepeatOps(s.ops)
		for _, batch := range batches {
			first, gen := map[uint64]int{}, map[uint64]uint64{}
			for i, k := range batch.keys {
				st, _ := b.route(k)
				if f, ok := first[k]; !ok {
					first[k] = i
				} else if gen[k] == st.flushGen {
					far = far || i-f > 512
				} else {
					moved = true
				}
				if err := b.Insert(k, uint64(i)+1); err != nil {
					t.Fatal(err)
				}
				gen[k] = st.flushGen
			}
			if batch.del != 0 {
				if err := b.Delete(batch.del); err != nil {
					t.Fatal(err)
				}
			}
		}
		cascades += b.Stats().Cascades
	}
	if !far || !moved || cascades == 0 {
		t.Fatalf("seeds reach: a buffered repeat >512 positions on %t, a repeat after its flush %t, %d cascades", far, moved, cascades)
	}
}
