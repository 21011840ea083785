package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ssd"
	"repro/internal/vclock"
)

// The cached-versus-cacheless oracle: two stores that differ only in
// Config.CacheEntries take the same ops in lockstep. Each lookup must give
// both the same answers; a key the cache answered must have read no flash
// page, and every other key exactly the probes of its cacheless twin, so
// that FlashProbes, SpuriousProbes and LookupIOHist differ only by the
// cache's hits, and every other counter not at all.

// cacheTwinEntries is the cached twin's cache: small enough that its sets
// evict while a read run's hot keys stay cached.
const cacheTwinEntries = 64

// twinConfig is the oracle's store: two super tables of 512 entries and 4
// incarnations each, with 4 Bloom bits per entry, so that a universe of
// 1,500 keys flushes, evicts and probes spurious pages.
func twinConfig(policy EvictionPolicy, cacheEntries int) Config {
	clock := vclock.New()
	return Config{
		Device:             ssd.New(ssd.IntelX18M(), 512<<10, clock),
		Clock:              clock,
		PartitionBits:      1,
		BufferBytes:        16 << 10,
		NumIncarnations:    4,
		FilterBitsPerEntry: 4,
		CacheEntries:       cacheEntries,
		Policy:             policy,
		Retain:             func(_, v uint64) bool { return v%2 == 0 },
		Seed:               5,
	}
}

// cacheTwins drives a cached store and its cacheless twin in lockstep.
type cacheTwins struct {
	t             testing.TB
	cached, plain *BufferHash
	universe      []uint64
	seq           uint64 // the last value inserted
	window        []uint64
	vals          []uint64
	res           [2][]LookupResult

	// What the cacheless twin's probe counters may exceed the cached
	// twin's by: the probes of the keys the cache answered, and their
	// LookupIOHist buckets (the cached twin counts each in bucket 0).
	probes, spurious uint64
	hist             [8]int64
	// answered counts the keys the cache answered that the cacheless twin
	// read flash for.
	answered int
	// What the ops did to the buffers the staging-filter invariant covers:
	// insert keys already buffered (updates in place), insert deleted keys
	// again, and Flush calls whose index writes failed.
	updates, revived, failed int
}

func newCacheTwins(t testing.TB, policy EvictionPolicy) *cacheTwins {
	tw := &cacheTwins{
		t:      t,
		cached: mustNew(t, twinConfig(policy, cacheTwinEntries)),
		plain:  mustNew(t, twinConfig(policy, 0)),
	}
	rng := rand.New(rand.NewSource(77))
	tw.universe = make([]uint64, 1500)
	for i := range tw.universe {
		tw.universe[i] = rng.Uint64()
	}
	return tw
}

// twins returns the twins, cached first.
func (tw *cacheTwins) twins() [2]*BufferHash { return [2]*BufferHash{tw.cached, tw.plain} }

// pick fills the window with n keys from ki on: the first 96 keys of the
// universe are hot, so read runs repeat them.
func (tw *cacheTwins) pick(ki, n int, hot bool) []uint64 {
	tw.window = tw.window[:0]
	span := len(tw.universe)
	if hot {
		span = 96
	}
	for j := range n {
		tw.window = append(tw.window, tw.universe[(ki+j*7)%span])
	}
	return tw.window
}

// holds reports whether b's cache answers key in its next lookup call, as
// far as the cache's state before the call tells: the call's own fills
// may evict the key first.
func holds(b *BufferHash, key uint64) bool {
	if len(b.cache.sets) == 0 || b.epoch != b.runEpoch {
		return false
	}
	for _, e := range b.cache.set(key) {
		if e.tag == b.epoch && e.key == key {
			return true
		}
	}
	return false
}

// sameErr requires both twins' errors to agree.
func (tw *cacheTwins) sameErr(what string, ec, ep error) {
	tw.t.Helper()
	if (ec == nil) != (ep == nil) {
		tw.t.Fatalf("%s: cached twin err %v, cacheless twin err %v", what, ec, ep)
	}
}

// lookup runs one LookupBatch call on both twins and checks it.
func (tw *cacheTwins) lookup(keys []uint64) {
	t := tw.t
	t.Helper()
	cached := make([]bool, len(keys))
	for i, k := range keys {
		cached[i] = holds(tw.cached, k)
	}
	var errs [2]error
	for w, b := range tw.twins() {
		tw.res[w] = slices.Grow(tw.res[w][:0], len(keys))[:len(keys)]
		errs[w] = b.LookupBatch(keys, tw.res[w])
	}
	tw.sameErr("LookupBatch", errs[0], errs[1])
	if errs[0] != nil {
		return
	}
	first := map[uint64]bool{}
	for i, k := range keys {
		rc, rp := tw.res[0][i], tw.res[1][i]
		if rc.Found != rp.Found || rc.Value != rp.Value {
			t.Fatalf("key %#x: cached twin (%d, %t), cacheless twin (%d, %t)", k, rc.Value, rc.Found, rp.Value, rp.Found)
		}
		if first[k] {
			continue
		}
		first[k] = true
		if rc.FlashReads == rp.FlashReads && rc.Spurious == rp.Spurious {
			continue
		}
		if !cached[i] || !rc.Found || rc.FlashReads != 0 || rc.Spurious != 0 {
			t.Fatalf("key %#x (cached before the call: %t): cached twin read %d pages (%d spurious), cacheless twin %d (%d)",
				k, cached[i], rc.FlashReads, rc.Spurious, rp.FlashReads, rp.Spurious)
		}
		tw.probes += uint64(rp.FlashReads)
		tw.spurious += uint64(rp.Spurious)
		tw.hist[min(rp.FlashReads, len(tw.hist)-1)]++
		tw.hist[0]--
		tw.answered++
	}
}

// step applies op kind with arguments a and b to both twins, then checks
// their counters.
func (tw *cacheTwins) step(kind, a, b int) {
	t := tw.t
	t.Helper()
	n := 1 + b%48
	switch kind % 7 {
	case 0, 1: // lookups; consecutive ones form read runs
		tw.lookup(tw.pick(a*11+b, n, kind%7 == 0))
	case 2:
		keys := tw.pick(a*11+b, n, a%2 == 0)
		tw.countRewrites(keys)
		tw.vals = tw.vals[:0]
		for range keys {
			tw.seq++
			tw.vals = append(tw.vals, tw.seq)
		}
		tw.sameErr("InsertBatch", tw.cached.InsertBatch(keys, tw.vals, nil), tw.plain.InsertBatch(keys, tw.vals, nil))
	case 3:
		keys := tw.pick(a*11+b, 1+b%4, a%2 == 0)
		tw.sameErr("DeleteBatch", tw.cached.DeleteBatch(keys, nil), tw.plain.DeleteBatch(keys, nil))
	case 4:
		tw.sameErr("Flush", tw.cached.Flush(), tw.plain.Flush())
	case 5:
		if s := tw.plain.Seq(); s > uint64(a%4) {
			tw.cached.ExpireThrough(s - uint64(a%4) - 1)
			tw.plain.ExpireThrough(s - uint64(a%4) - 1)
		}
	case 6: // an insert whose index writes fail, then a failing Flush
		var heal [2]func()
		for w, bh := range tw.twins() {
			heal[w] = failWrites(bh.cfg.Device.(*ssd.SSD))
		}
		keys := tw.pick(a*11+b, n, a%2 == 0)
		tw.vals = tw.vals[:0]
		for range keys {
			tw.seq++
			tw.vals = append(tw.vals, tw.seq)
		}
		tw.sameErr("failed InsertBatch", tw.cached.InsertBatch(keys, tw.vals, nil), tw.plain.InsertBatch(keys, tw.vals, nil))
		ec := tw.cached.Flush()
		tw.sameErr("failed Flush", ec, tw.plain.Flush())
		if ec != nil {
			tw.failed++
		}
		heal[0]()
		heal[1]()
	}
	tw.checkStats()
	for _, bh := range tw.twins() {
		requireStaged(t, bh)
	}
}

// countRewrites counts the keys an insert of keys finds in the cacheless
// twin's buffers or delete lists.
func (tw *cacheTwins) countRewrites(keys []uint64) {
	for _, k := range keys {
		st, kh := tw.plain.route(k)
		if _, ok := st.buf.Get(kh); ok {
			tw.updates++
		}
		if _, ok := st.deleteList[kh]; ok {
			tw.revived++
		}
	}
}

// requireStaged requires every key a super table of b buffers to be in its
// staging filter, which lets a lookup skip the buffer probe of a key the
// filter rules out.
func requireStaged(t testing.TB, b *BufferHash) {
	t.Helper()
	img := make([]byte, b.cfg.BufferBytes)
	for _, st := range b.parts {
		st.buf.Serialize(img)
		b.tableParams(st.idx).DecodeImage(img, func(kh, _ uint64) bool {
			if _, staged := st.bank.Query(kh); !staged {
				t.Fatalf("super table %d buffers key %#x, which its staging filter rules out", st.idx, kh)
			}
			return true
		})
	}
}

// checkStats requires the twins' counters to agree but for the cache's
// hits, and but for ScreenedProbes: a key the cache answers is one whose
// buffer probe the cacheless twin may skip.
func (tw *cacheTwins) checkStats() {
	t := tw.t
	t.Helper()
	sc, sp := tw.cached.Stats(), tw.plain.Stats()
	if sp.CacheHits != 0 || sc.CacheHits < uint64(tw.answered) {
		t.Fatalf("CacheHits: cached twin %d (it answered %d keys that read flash without it), cacheless twin %d",
			sc.CacheHits, tw.answered, sp.CacheHits)
	}
	sc.CacheHits, sc.ScreenedProbes, sp.ScreenedProbes = 0, 0, 0
	sp.FlashProbes -= tw.probes
	sp.SpuriousProbes -= tw.spurious
	for i, d := range tw.hist {
		sp.LookupIOHist[i] -= uint64(d)
	}
	if sc != sp {
		t.Fatalf("counters differ beyond the cache's hits:\ncached    %+v\ncacheless %+v", sc, sp)
	}
}

// TestHotCacheMatchesCacheless runs the oracle over random ops under FIFO,
// LRU, UpdateBased and PriorityBased: read runs of lookups over mostly hot
// keys, broken by puts, deletes, Flush, ExpireThrough and inserts whose
// index writes fail. Every row must see
// the cache answer keys, the staging filter rule out buffer probes, FIFO
// and the partial-discard rows' keys that read flash without the cache,
// and LRU re-insert flash hits; and, for the staging-filter invariant
// checked after every op, inserts update buffered keys in place and bring
// deleted keys back, partial discard re-inserts survivors, and Flush,
// ExpireThrough and a failed index write each take effect.
func TestHotCacheMatchesCacheless(t *testing.T) {
	for _, policy := range []EvictionPolicy{FIFO, LRU, UpdateBased, PriorityBased} {
		t.Run(policy.String(), func(t *testing.T) {
			tw := newCacheTwins(t, policy)
			rng := rand.New(rand.NewSource(int64(policy) + 31))
			for range 4000 {
				kind := rng.Intn(7)
				switch {
				case kind == 6 && rng.Intn(8) != 0:
					kind = 0 // keep failed writes rare
				case kind >= 2 && rng.Intn(3) != 0:
					kind = rng.Intn(2) // and read runs long
				}
				tw.step(kind, rng.Intn(256), rng.Intn(256))
			}
			st := tw.cached.Stats()
			t.Logf("%d cache hits, %d of keys that read flash without the cache; %d lookups, %d screened buffer probes, %d flash probes, %d flushes, %d evictions, %d LRU re-inserts, %d survivors re-inserted; %d updates in place, %d deleted keys inserted again, %d failed flushes",
				st.CacheHits, tw.answered, st.Lookups, st.ScreenedProbes, st.FlashProbes, st.Flushes, st.Evictions, st.LRUReinserts, st.Reinserted, tw.updates, tw.revived, tw.failed)
			// Under LRU a flash hit is re-inserted into its buffer, so a key
			// the cache answers is mostly one its twin finds buffered.
			partial := policy == UpdateBased || policy == PriorityBased
			switch {
			case st.CacheHits == 0:
				t.Fatal("the cache answered nothing")
			case st.ScreenedProbes == 0:
				t.Fatal("the staging filter ruled out no buffer probe")
			case policy != LRU && tw.answered == 0:
				t.Fatal("the cache never answered a key that reads flash without it")
			case policy == LRU && st.LRUReinserts == 0:
				t.Fatal("no LRU re-insertion")
			case partial && st.Reinserted == 0:
				t.Fatal("partial discard re-inserted no survivor")
			case tw.updates == 0 || tw.revived == 0:
				t.Fatalf("%d updates in place and %d deleted keys inserted again, want both", tw.updates, tw.revived)
			case st.Flushes == 0 || st.Expirations == 0 || tw.failed == 0:
				t.Fatalf("%d flushes, %d expirations and %d failed flushes, want all three", st.Flushes, st.Expirations, tw.failed)
			}
		})
	}
}

// FuzzHotCache runs the oracle over ops taken from the input: policy picks
// FIFO, LRU, UpdateBased or PriorityBased, and each 3-byte group of ops is
// (kind, a, b).
func FuzzHotCache(f *testing.F) {
	f.Add(byte(0), []byte{2, 0, 40, 2, 1, 40, 4, 0, 0, 0, 0, 30, 0, 0, 30, 1, 3, 20, 1, 3, 20})
	f.Add(byte(1), []byte{2, 9, 47, 2, 10, 47, 2, 11, 47, 4, 0, 0, 1, 2, 47, 1, 2, 47, 0, 2, 47, 0, 2, 47})
	f.Add(byte(2), []byte{2, 4, 47, 4, 0, 0, 2, 5, 47, 4, 0, 0, 0, 1, 20, 0, 1, 20, 3, 1, 2, 0, 1, 20, 6, 2, 30, 0, 1, 20})
	f.Add(byte(0), []byte{2, 0, 47, 4, 0, 0, 0, 0, 47, 0, 0, 47, 5, 0, 0, 0, 0, 47, 6, 1, 9, 0, 0, 47, 0, 0, 47})
	f.Fuzz(func(t *testing.T, policy byte, ops []byte) {
		tw := newCacheTwins(t, []EvictionPolicy{FIFO, LRU, UpdateBased, PriorityBased}[policy%4])
		for i := 0; i+2 < min(len(ops), 3*300); i += 3 {
			tw.step(int(ops[i]), int(ops[i+1]), int(ops[i+2]))
		}
	})
}

// TestHotCacheEpochs checks that every kind of write ends a read run: it
// bumps the write epoch, so no entry filled before it answers, and the
// next lookup call neither probes nor fills the cache. The two calls after
// it fill the cache and then hit it.
func TestHotCacheEpochs(t *testing.T) {
	cfg := twinConfig(FIFO, cacheTwinEntries)
	b := mustNew(t, cfg)
	const key = 12345
	if err := b.Insert(key, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"InsertBatch", func() error { return b.InsertBatch([]uint64{key}, []uint64{2}, nil) }},
		{"DeleteBatch", func() error { return b.DeleteBatch([]uint64{7}, nil) }},
		{"Flush", b.Flush},
		{"ExpireThrough", func() error { b.ExpireThrough(0); return nil }},
		{"a failed write", func() error {
			defer failWrites(cfg.Device.(*ssd.SSD))()
			if err := b.InsertBatch([]uint64{key}, []uint64{3}, nil); err != nil {
				return err
			}
			if err := b.Flush(); err == nil {
				t.Fatal("a Flush whose writes fail succeeded")
			}
			return b.InsertBatch([]uint64{key}, []uint64{4}, nil)
		}},
	} {
		epoch := b.epoch
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		if b.epoch == epoch {
			t.Fatalf("%s left the write epoch at %d", w.name, epoch)
		}
		hits := b.Stats().CacheHits
		for call := range 3 {
			res, err := b.Lookup(key)
			if err != nil || !res.Found {
				t.Fatalf("after %s, lookup %d: found %t, err %v", w.name, call, res.Found, err)
			}
			if got, want := b.Stats().CacheHits-hits, uint64(call/2); got != want {
				t.Fatalf("after %s, lookup %d: %d cache hits, want %d", w.name, call, got, want)
			}
		}
	}
}

// TestHotCacheKeepsRunAcrossLRUReinsert checks that an LRU re-insertion,
// which moves a flash hit into its buffer and changes no key's answer,
// leaves the read run's cache valid: a key cached before the re-insertion
// still answers from the cache in the run's next call.
func TestHotCacheKeepsRunAcrossLRUReinsert(t *testing.T) {
	b := mustNew(t, twinConfig(LRU, cacheTwinEntries))
	const flashKey, bufKey = 12345, 67890
	if err := b.Insert(flashKey, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(bufKey, 2); err != nil {
		t.Fatal(err)
	}
	lookup := func(key uint64) LookupResult {
		t.Helper()
		res, err := b.Lookup(key)
		if err != nil || !res.Found {
			t.Fatalf("lookup of %d: found %t, err %v", key, res.Found, err)
		}
		return res
	}
	lookup(bufKey) // ends the write's run
	lookup(bufKey) // a read run's buffer hit fills the cache
	reinserts := b.Stats().LRUReinserts
	if res := lookup(flashKey); res.FlashReads == 0 || b.Stats().LRUReinserts != reinserts+1 {
		t.Fatalf("the flash key read %d pages and was re-inserted %d times, want a flash hit re-inserted once",
			res.FlashReads, b.Stats().LRUReinserts-reinserts)
	}
	hits := b.Stats().CacheHits
	lookup(bufKey)
	if got := b.Stats().CacheHits - hits; got != 1 {
		t.Fatalf("after the re-insertion the cached key got %d cache hits, want 1", got)
	}
}
