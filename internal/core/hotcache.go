package core

import "math/bits"

// The hot-entry cache (§6.4: spend DRAM where it saves the most work). A
// skewed read stream resolves the same hot keys in every batch, and phase A
// charges each of them a full buffer probe and Bloom query, and a flash
// probe when the key is not buffered. The cache remembers the keys a read
// run found, buffer hits and flash hits alike, and phase A consults it
// before the delete list, the buffer and the Bloom bank: a cached key is a
// final hit at the cost of one probe.
//
// It is correct by construction rather than by invalidation. Every change
// of core state that can change an answer (InsertBatch, DeleteBatch,
// Flush, ExpireThrough, a dropped image) bumps the write epoch, an entry
// answers only at the epoch it was filled in, and a lookup call probes and
// fills the cache only in a read run: when no write has come since the
// previous lookup call ended. An LRU re-insertion bumps nothing: it moves
// a found key into its buffer with the value found, and changes no key's
// answer (fillable guards the one key it concerns). So an entry answers
// exactly what a lookup of the same state would, and a workload that
// interleaves every read with a write never probes, fills or pays for it.

// CacheEntryBytes is the DRAM one hot-cache entry takes: its key, value
// and epoch tag.
const CacheEntryBytes = 24

// cacheEntry is one way of a cache set: a key, its value, and the write
// epoch it was filled in (0 never matches: epochs start at 1).
type cacheEntry struct{ key, value, tag uint64 }

// hotCache is a 2-way set-associative cache of lookup hits, keyed by the
// caller's key. A set's first way holds the entry last hit; a new entry
// enters the second way, so it must be hit again before it is kept over
// another, and a key a read run finds once cannot evict one it keeps
// finding.
type hotCache struct {
	sets  [][2]cacheEntry
	shift uint // a key's set is the top bits of its Fibonacci hash
}

// newHotCache returns a cache of entries entries, a power of two of at
// least 2 (see Config.CacheEntries).
func newHotCache(entries int) hotCache {
	n := entries / 2
	return hotCache{sets: make([][2]cacheEntry, n), shift: uint(64 - bits.Len(uint(n-1)))}
}

// set returns key's set.
func (c *hotCache) set(key uint64) *[2]cacheEntry {
	return &c.sets[key*0x9e3779b97f4a7c15>>c.shift]
}

// get returns key's value if an entry filled at epoch holds it, and moves
// a hit in the second way to the first.
func (c *hotCache) get(key, epoch uint64) (uint64, bool) {
	s := c.set(key)
	if s[0].key == key && s[0].tag == epoch {
		return s[0].value, true
	}
	if s[1].key == key && s[1].tag == epoch {
		s[0], s[1] = s[1], s[0]
		return s[0].value, true
	}
	return 0, false
}

// put fills key's set with (key, value) at epoch: its second way, or its
// first when that way is not valid at epoch. A second way is valid only
// while its first is, since neither outlives its epoch.
func (c *hotCache) put(key, value, epoch uint64) {
	s := c.set(key)
	w := 0
	if s[0].tag == epoch {
		w = 1
	}
	s[w] = cacheEntry{key: key, value: value, tag: epoch}
}

// cacheHit probes the cache for key in a read run, charging
// CPU.CacheProbe. On a hit it writes key's result, the zero-I/O hit a
// lookup of the same state finds, and records the lookup.
func (b *BufferHash) cacheHit(key uint64, res *LookupResult) bool {
	b.chargeCPU(b.cfg.CPU.CacheProbe)
	v, ok := b.cache.get(key, b.epoch)
	if !ok {
		return false
	}
	*res = LookupResult{Value: v, Found: true}
	b.stats.recordLookup(*res)
	b.stats.CacheHits++
	return true
}

// fill caches a read run's hit on key, charging CPU.CacheFill.
func (b *BufferHash) fill(key, value uint64) {
	b.chargeCPU(b.cfg.CPU.CacheFill)
	b.cache.put(key, value, b.epoch)
}

// fillable reports whether a flash hit on st's in-partition key kh may
// fill the cache. Under LRU the hit was re-inserted into its buffer unless
// the buffer was full or the insert's cuckoo walk failed. Only that last
// case bars it: a later call that finds the key cached answers it in phase
// A, while without the cache its flash probe would resolve in phase C,
// after other keys' re-insertions of the same call moved the buffer's
// entries, and could re-insert it after all. A buffered key stays
// buffered, and a full buffer full, until the next write.
func (b *BufferHash) fillable(st *superTable, kh uint64) bool {
	if b.cfg.Policy != LRU {
		return true
	}
	_, buffered := st.buf.Get(kh)
	return buffered || st.buf.Full()
}
