package clam

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// dedupWindow is the dedup index-merge window at a small scale: 8 shards
// and 2 workers over 16 MB of flash and 4 MB of DRAM, a universe of 20-byte
// fingerprints about twice the value logs' record capacity, and 256-byte
// values. Each window looks up windowKeys fingerprints with GetBatch and
// inserts the window's distinct misses with PutBatch, so the logs keep
// wrapping and the hit rate settles near one half. With 4 MB of value
// logs the universe fits the DRAM buffers, so the index never flushes and
// every lookup resolves in memory; with 16 MB it does not, and lookups
// probe flash incarnations, round after round.
type dedupWindow struct {
	s        *Sharded
	universe [][]byte
	slab     []byte // value of fingerprint i: slab[i%slabSpan:][:windowValue]
	rng      *rand.Rand
	idx      []int
	keys     [][]byte
	queued   []uint32 // last window that queued the fingerprint
	window   uint32
	putKeys  [][]byte
	putVals  [][]byte
}

const (
	windowKeys  = 4096
	windowValue = 256
	slabSpan    = 251

	// The two value-log sizes: the index stays in DRAM, or it flushes.
	memoryIndexLogs = 4 << 20
	flashIndexLogs  = 16 << 20
)

// dedupGeometries names the two index placements by their value-log size.
var dedupGeometries = []struct {
	name      string
	vlogBytes int64
}{{"memory-index", memoryIndexLogs}, {"flash-index", flashIndexLogs}}

// newDedupWindow opens the store with vlogBytes of value logs and merges
// windows until every shard's value log has wrapped.
func newDedupWindow(tb testing.TB, vlogBytes int64) *dedupWindow {
	tb.Helper()
	w := &dedupWindow{
		s: openShardedT(tb, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
			WithValueLog(vlogBytes), WithShards(8), WithWorkers(2), WithSeed(3)),
		universe: make([][]byte, 2*vlogBytes/int64(storage.RecordSize(20, windowValue))),
		slab:     make([]byte, slabSpan+windowValue),
		rng:      rand.New(rand.NewSource(37)),
		idx:      make([]int, windowKeys),
		keys:     make([][]byte, windowKeys),
	}
	w.queued = make([]uint32, len(w.universe))
	w.rng.Read(w.slab)
	for i := range w.universe {
		w.universe[i] = make([]byte, 20)
		w.rng.Read(w.universe[i])
	}
	for !w.wrapped() {
		if w.window > 1000 {
			tb.Fatal("value logs still unwrapped after 1000 windows")
		}
		w.step(tb)
	}
	return w
}

func (w *dedupWindow) wrapped() bool {
	for _, sh := range w.s.shards {
		if sh.vlog.Stats().Wraps == 0 {
			return false
		}
	}
	return true
}

func (w *dedupWindow) value(i int) []byte { return w.slab[i%slabSpan:][:windowValue] }

// draw fills w.keys with a window of fingerprints drawn from the universe.
func (w *dedupWindow) draw() {
	for j := range w.keys {
		w.idx[j] = w.rng.Intn(len(w.universe))
		w.keys[j] = w.universe[w.idx[j]]
	}
}

// step merges one window and returns its hits. Every hit must carry its
// fingerprint's value.
func (w *dedupWindow) step(tb testing.TB) int {
	hits := w.lookup(tb)
	w.insert(tb)
	return hits
}

// lookup draws the next window, looks it up, checks every hit and queues
// the window's distinct misses; it returns the hits.
func (w *dedupWindow) lookup(tb testing.TB) int {
	w.window++
	w.draw()
	vals, found, err := w.s.GetBatch(context.Background(), w.keys)
	if err != nil {
		tb.Fatal(err)
	}
	w.putKeys, w.putVals = w.putKeys[:0], w.putVals[:0]
	hits := 0
	for j, i := range w.idx {
		switch {
		case found[j]:
			if !bytes.Equal(vals[j], w.value(i)) {
				tb.Fatalf("fingerprint %d: hit returns the wrong value", i)
			}
			hits++
		case w.queued[i] != w.window:
			w.queued[i] = w.window
			w.putKeys = append(w.putKeys, w.keys[j])
			w.putVals = append(w.putVals, w.value(i))
		}
	}
	return hits
}

// insert puts the misses lookup queued.
func (w *dedupWindow) insert(tb testing.TB) {
	if err := w.s.PutBatch(context.Background(), w.putKeys, w.putVals); err != nil {
		tb.Fatal(err)
	}
}

// TestDedupWindowAllocs is the allocation guard of byte lookups on the
// dedup store shape: a warm 4096-key GetBatch at a hit rate near one half
// on wrapped logs allocates one value arena per chunk plus the router's
// constant, and nothing per hit — with the index in DRAM, and with it in
// flash, where a chunk's lookup takes several probing rounds.
func TestDedupWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a fraction of sync.Pool puts, so exact allocation counts are meaningless; CI runs this guard in a non-race step")
	}
	for _, g := range dedupGeometries {
		t.Run(g.name, func(t *testing.T) { testDedupWindowAllocs(t, g.vlogBytes) })
	}
}

func testDedupWindowAllocs(t *testing.T, vlogBytes int64) {
	w := newDedupWindow(t, vlogBytes)
	w.draw()
	g := w.s.groupBytes(w.keys, w.keys, nil) // the GetBatch's own runs, one chunk each
	chunks := 0
	for sh := range w.s.shards {
		if g.start[sh+1] > g.start[sh] {
			chunks++
		}
	}
	w.s.putGroups(g)
	ctx := context.Background()
	hits := 0
	get := func() {
		_, found, err := w.s.GetBatch(ctx, w.keys)
		if err != nil {
			t.Fatal(err)
		}
		hits = 0
		for _, ok := range found {
			if ok {
				hits++
			}
		}
	}
	for range 3 { // warm the pool and the shards' scratch
		get()
	}
	allocs := testing.AllocsPerRun(20, get)
	rate := float64(hits) / windowKeys
	probes := w.s.Stats().Core.FlashProbes
	t.Logf("GetBatch of %d keys in %d chunks at hit rate %.3f: %.1f allocs per call (%d flash probes so far)",
		windowKeys, chunks, rate, allocs, probes)
	if (probes > 0) != (vlogBytes == flashIndexLogs) {
		t.Fatalf("%d flash probes with %d MB of value logs; retune the store", probes, vlogBytes>>20)
	}
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("hit rate %.3f is not near one half; retune the store", rate)
	}
	// The two outputs, the chunk closure, and the goroutine closures of the
	// two workers and the second fingerprint stripe. A chunk without hits
	// allocates no arena.
	const constant = 6
	if bound := float64(chunks + constant); allocs > bound {
		t.Errorf("GetBatch allocates %.1f per warmed call; want at most %.0f (one arena per chunk plus %d)",
			allocs, bound, constant)
	}
}

// TestDedupPutWindowAllocs is the allocation guard of byte puts on the
// dedup store shape with the index in flash: a warm PutBatch of a window's
// misses allocates the router's constant and nothing per chunk, record or
// flush. Its windows flush index buffers and leave their images held
// across calls (Stats().Memory.PendingBytes), each in a pooled image
// buffer.
func TestDedupPutWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a fraction of sync.Pool puts, so exact allocation counts are meaningless; CI runs this guard in a non-race step")
	}
	w := newDedupWindow(t, flashIndexLogs)
	for range 3 { // warm the pool and the shards' scratch
		w.step(t)
	}
	// As testing.AllocsPerRun counts, on one P; the lookups between the
	// measured puts are not counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	const windows, constant = 40, 4 // the router's closures and the second worker's goroutine
	var before, after runtime.MemStats
	var most, flushes uint64
	var held int64
	for range windows {
		w.lookup(t)
		f := w.s.Stats().Core.Flushes
		runtime.ReadMemStats(&before)
		if err := w.s.PutBatch(ctx, w.putKeys, w.putVals); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		most = max(most, after.Mallocs-before.Mallocs)
		st := w.s.Stats()
		if st.Core.Flushes > f {
			flushes += st.Core.Flushes - f
			held = max(held, st.Memory.PendingBytes)
		}
	}
	t.Logf("PutBatch of a window's misses: at most %d allocs per call over %d windows, %d flushes, up to %d bytes held after a flushing call",
		most, windows, flushes, held)
	if flushes == 0 || held == 0 {
		t.Fatalf("%d flushes and %d bytes held over %d windows; retune the store", flushes, held, windows)
	}
	if most > constant {
		t.Errorf("PutBatch allocates up to %d per warmed call; want at most %d", most, constant)
	}
}

// BenchmarkDedupWindow times the dedup merge window on wrapped logs: a
// 4096-key GetBatch at a hit rate near one half, then a PutBatch of the
// misses, with the index in DRAM and in flash. It reports host ns per
// looked-up key; allocs/op is per window.
func BenchmarkDedupWindow(b *testing.B) {
	for _, g := range dedupGeometries {
		b.Run(g.name, func(b *testing.B) {
			w := newDedupWindow(b, g.vlogBytes)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for range b.N {
				hits += w.step(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windowKeys), "ns/key")
			b.ReportMetric(float64(hits)/float64(b.N*windowKeys), "hit_rate")
		})
	}
}
