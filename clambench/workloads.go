package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"repro/clam"
	"repro/internal/dedup"
	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The configuration every workload shares: the Intel X18-M SSD model, a
// 64 MB index, 12 MB of DRAM and FIFO eviction (the clam default). The
// sharded workloads use 8 shards and 2 batch workers, at most the cores of
// the 2-CPU host the benchmark was sized on.
const (
	flashBytes  = 64 << 20
	memoryBytes = 12 << 20
	// flashEntries is the index capacity at 32 flash bytes per entry
	// (16-byte entries at 50% cuckoo utilization).
	flashEntries = flashBytes / 32
	// warmInserts takes the U64 workloads past eviction onset.
	warmInserts = flashEntries * 5 / 4
	warmBatch   = 8192
	targetLSR   = 0.4

	shards     = 8
	workers    = 2
	batchKeys  = 4096
	zipfS      = 1.1
	valueBytes = 256
)

// scenario is one named workload. Its inputs come from the internal/workload
// and internal/dedup generators seeded from --seed; the store receives only
// the generated keys and values.
type scenario interface {
	// open returns a fresh store. tr is the traced run's tracer, or nil;
	// only the single-CLAM workload can wrap its index device with it.
	open(tr *tracer) (clam.Store, error)
	// warm brings a fresh store to the state the measured phase starts in.
	warm(c *client) error
	// begin restarts the measured-phase input stream.
	begin()
	// step issues the next measured step through c.
	step(c *client)
	// steps is the measured-phase length.
	steps() int
	// calls is the Store calls one step makes.
	calls() (gets, puts int)
	// putBytes is the user bytes (key and value) one put stores.
	putBytes() int
	options() map[string]any
}

var workloadNames = []string{"wan-serial", "get-batch-zipf", "dedup-ingest"}

// newWorkload sizes the named workload's measured phase from its step rate
// on the 2-CPU reference host, so that a run spends about seconds inside
// Store calls, and from the least step count that keeps minBeyond samples
// above every percentile it reports. The count is fixed, not timed, so the
// same seed always does the same work.
func newWorkload(name string, seed int64, seconds int) (scenario, error) {
	switch name {
	case "wan-serial":
		ks := workload.NewKeyStream(seed*2, keyRange)
		return &wanSerial{u64Keys: newU64Keys(seed, ks.Next), n: max(seconds*200_000, 100_000)}, nil
	case "get-batch-zipf":
		if err := checkUnmix(); err != nil {
			return nil, err
		}
		// The warm-up draws from the measured distribution: warmed with
		// uniform keys, whether the few hottest ranks happened to be stored
		// would swing the hit rate between seeds from 0.25 to 0.47.
		zs := workload.NewZipfStream(seed*2, zipfS, keyRange)
		k := newU64Keys(seed, func() uint64 { return unmix(zs.Next()) })
		return &getBatchZipf{u64Keys: k, n: max(seconds*800, 1_000), batch: make([]uint64, batchKeys)}, nil
	case "dedup-ingest":
		return newDedupIngest(seed, max(seconds*90, 1_000)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func openSharded() (clam.Store, error) {
	return clam.Open(clam.WithDevice(clam.IntelSSD), clam.WithFlash(flashBytes), clam.WithMemory(memoryBytes),
		clam.WithShards(shards), clam.WithWorkers(workers))
}

// keyRange is the U64 workloads' key space: ranks 1..keyRange, sized for a
// 0.4 lookup-success target and mapped to uniform 64-bit fingerprints by
// hashutil.Mix64 (the mapping workload.ZipfStream uses).
var keyRange = workload.RangeForLSR(flashEntries, targetLSR)

// u64Keys is the warm-up and the shadow of the two U64 workloads: the
// latest acknowledged value of every rank.
type u64Keys struct {
	seed       int64
	warmRanks  []uint32
	shadow     []uint32 // latest acknowledged value per rank; 0 = never written
	seq        uint64   // last value written
	keys, vals []uint64 // warm-up batch scratch
}

// newU64Keys draws the warm-up ranks from rank.
func newU64Keys(seed int64, rank func() uint64) *u64Keys {
	k := &u64Keys{
		seed:      seed,
		warmRanks: make([]uint32, warmInserts),
		shadow:    make([]uint32, keyRange+1),
		keys:      make([]uint64, 0, warmBatch),
		vals:      make([]uint64, 0, warmBatch),
	}
	for i := range k.warmRanks {
		k.warmRanks[i] = uint32(rank())
	}
	return k
}

// warm inserts the warm-up ranks in order through PutBatchU64.
func (k *u64Keys) warm(c *client) error {
	clear(k.shadow)
	k.seq = 0
	for lo := 0; lo < len(k.warmRanks); lo += warmBatch {
		ranks := k.warmRanks[lo:min(lo+warmBatch, len(k.warmRanks))]
		k.keys, k.vals = k.keys[:0], k.vals[:0]
		for i, r := range ranks {
			k.keys = append(k.keys, hashutil.Mix64(uint64(r)))
			k.vals = append(k.vals, k.seq+uint64(i)+1)
		}
		if c.putBatchU64(k.keys, k.vals) {
			for i, r := range ranks {
				k.shadow[r] = uint32(k.vals[i])
			}
		}
		k.seq += uint64(len(ranks))
	}
	return nil
}

// check verifies that a hit on rank r returned its latest acknowledged value.
func (k *u64Keys) check(c *client, r, v uint64) {
	if r == 0 || r > keyRange {
		c.wrong("hit on key %#x, outside the key space", hashutil.Mix64(r))
		return
	}
	if want := uint64(k.shadow[r]); want == 0 || v != want {
		c.wrong("key rank %d: got value %d, latest acknowledged %d", r, v, want)
	}
}

func (k *u64Keys) putBytes() int { return 16 }

// wanSerial is the paper's design point: a single CLAM driven by per-key
// calls in the WAN optimizer's pattern — every key is looked up, then
// inserted — at a 0.4 lookup-success target, past eviction onset.
type wanSerial struct {
	*u64Keys
	n      int
	stream *workload.KeyStream
}

func (w *wanSerial) open(tr *tracer) (clam.Store, error) {
	// The index device is built here rather than by kind so the traced run
	// can wrap it; both runs open the same SSD model on the same clock.
	clock := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), flashBytes, clock)
	var idx storage.Device = dev
	if tr != nil {
		idx = tr.wrap(dev)
	}
	return clam.Open(clam.WithCustomDevice(idx), clam.WithClock(clock),
		clam.WithFlash(flashBytes), clam.WithMemory(memoryBytes))
}

func (w *wanSerial) begin() { w.stream = workload.NewKeyStream(w.seed*2+1, keyRange) }

func (w *wanSerial) step(c *client) {
	r := w.stream.Next()
	key := hashutil.Mix64(r)
	if v, found, ok := c.getU64(key); ok && found {
		w.check(c, r, v)
	}
	w.seq++
	if c.putU64(key, w.seq) {
		w.shadow[r] = uint32(w.seq)
	}
}

func (w *wanSerial) steps() int              { return w.n }
func (w *wanSerial) calls() (gets, puts int) { return 1, 1 }

func (w *wanSerial) options() map[string]any {
	return map[string]any{
		"store": "clam.CLAM", "device": "ssd.IntelX18M via WithCustomDevice", "flash_bytes": flashBytes,
		"memory_bytes": memoryBytes, "policy": "fifo", "key_range": keyRange, "warm_inserts": warmInserts,
		"step": "GetU64 then PutU64 of one uniform key",
	}
}

// getBatchZipf is a read-only batched lookup stream on a sharded store:
// GetBatchU64 calls of batchKeys Zipf(1.1)-ranked keys over the key space
// the warm-up filled. FIFO lookups do not change the store, so every batch
// meets the same structure.
type getBatchZipf struct {
	*u64Keys
	n      int
	stream *workload.ZipfStream
	batch  []uint64
}

func (w *getBatchZipf) open(*tracer) (clam.Store, error) { return openSharded() }

func (w *getBatchZipf) begin() { w.stream = workload.NewZipfStream(w.seed*2+1, zipfS, keyRange) }

func (w *getBatchZipf) step(c *client) {
	for i := range w.batch {
		w.batch[i] = w.stream.Next()
	}
	vals, found, ok := c.getBatchU64(w.batch)
	if !ok {
		return
	}
	for i, f := range found {
		if f {
			w.check(c, unmix(w.batch[i]), vals[i])
		}
	}
}

func (w *getBatchZipf) steps() int              { return w.n }
func (w *getBatchZipf) calls() (gets, puts int) { return 1, 0 }

func (w *getBatchZipf) options() map[string]any {
	return map[string]any{
		"store": "clam.Sharded", "device": "IntelSSD", "flash_bytes": flashBytes, "memory_bytes": memoryBytes,
		"policy": "fifo", "shards": shards, "workers": workers, "key_range": keyRange, "warm_inserts": fmt.Sprintf("%d Zipf(%.1f)", warmInserts, zipfS),
		"step": fmt.Sprintf("GetBatchU64 of %d Zipf(%.1f) keys", batchKeys, zipfS),
	}
}

// unmix inverts hashutil.Mix64, recovering the rank behind a
// workload.ZipfStream key so a hit can be checked against the shadow.
func unmix(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089
	x ^= x>>30 ^ x>>60
	return x
}

// checkUnmix confirms that unmix inverts the keys workload.ZipfStream draws.
func checkUnmix() error {
	z := workload.NewZipfStream(1, zipfS, keyRange)
	for range 1000 {
		k := z.Next()
		if r := unmix(k); r == 0 || r > keyRange || hashutil.Mix64(r) != k {
			return fmt.Errorf("unmix does not invert workload.ZipfStream key %#x", k)
		}
	}
	return nil
}

// dedupIngest is internal/dedup's index-merge pattern on a sharded store
// through the byte API: each window of batchKeys 20-byte fingerprints is
// looked up with GetBatch, the hits are verified, and the window's
// distinct misses are inserted with PutBatch. Fingerprints come from a
// universe about twice the value logs' record capacity, so the logs keep
// wrapping and the hit rate settles near one half.
type dedupIngest struct {
	seed             int64
	n                int
	fps              [][]byte // the fingerprint universe
	ver              []uint32 // latest acknowledged version per fingerprint; 0 = never stored
	queued           []uint32 // last window that queued the fingerprint for insertion
	window           uint32
	rng              *rand.Rand
	idx              []int32 // the window's fingerprint indexes
	keys             [][]byte
	putKeys, putVals [][]byte
	putIdx           []int32
	arena            []byte // the window's put values
	expect           []byte
}

// maxWarmWindows bounds the warm-up; the logs wrap after about 70 windows.
const maxWarmWindows = 10_000

func newDedupIngest(seed int64, n int) *dedupIngest {
	// The value logs hold as many bytes as the index (the clam default).
	universe := 2 * flashBytes / storage.RecordSize(dedup.FingerprintBytes, valueBytes)
	set := dedup.NewFingerprintSet(uint64(seed), int64(universe))
	w := &dedupIngest{
		seed:    seed,
		n:       n,
		fps:     make([][]byte, universe),
		ver:     make([]uint32, universe),
		queued:  make([]uint32, universe),
		idx:     make([]int32, batchKeys),
		keys:    make([][]byte, batchKeys),
		putKeys: make([][]byte, 0, batchKeys),
		putVals: make([][]byte, 0, batchKeys),
		putIdx:  make([]int32, 0, batchKeys),
		arena:   make([]byte, batchKeys*valueBytes),
		expect:  make([]byte, valueBytes),
	}
	for i := range w.fps {
		w.fps[i] = set.At(int64(i))
	}
	return w
}

func (w *dedupIngest) open(*tracer) (clam.Store, error) { return openSharded() }

// warm ingests windows until every shard's value log has wrapped.
func (w *dedupIngest) warm(c *client) error {
	clear(w.ver)
	clear(w.queued)
	w.window = 0
	rng := rand.New(rand.NewSource(w.seed * 2))
	for range maxWarmWindows {
		if logsWrapped(c.shards) {
			return nil
		}
		w.ingest(c, rng)
	}
	return fmt.Errorf("value logs still unwrapped after %d windows", maxWarmWindows)
}

func logsWrapped(shards []*clam.CLAM) bool {
	for _, s := range shards {
		if s.Stats().ValueLog.Wraps == 0 {
			return false
		}
	}
	return true
}

func (w *dedupIngest) begin()         { w.rng = rand.New(rand.NewSource(w.seed*2 + 1)) }
func (w *dedupIngest) step(c *client) { w.ingest(c, w.rng) }

// ingest merges one window; its lookups are the throughput operations.
func (w *dedupIngest) ingest(c *client, rng *rand.Rand) {
	w.window++
	for j := range w.keys {
		i := int32(rng.Int63n(int64(len(w.fps))))
		w.idx[j], w.keys[j] = i, w.fps[i]
	}
	vals, found, ok := c.getBatch(w.keys)
	if !ok {
		return
	}
	w.putKeys, w.putVals, w.putIdx = w.putKeys[:0], w.putVals[:0], w.putIdx[:0]
	for j, i := range w.idx {
		switch {
		case found[j]:
			if v := w.ver[i]; v == 0 || !bytes.Equal(vals[j], fillValue(w.expect, i, v)) {
				c.wrong("fingerprint %d: hit is not its latest acknowledged version %d", i, v)
			}
		case w.queued[i] != w.window:
			w.queued[i] = w.window
			v := fillValue(w.arena[len(w.putVals)*valueBytes:][:valueBytes], i, w.ver[i]+1)
			w.putKeys = append(w.putKeys, w.keys[j])
			w.putVals = append(w.putVals, v)
			w.putIdx = append(w.putIdx, i)
		}
	}
	if len(w.putKeys) > 0 && c.putBatch(w.putKeys, w.putVals, 0) {
		for _, i := range w.putIdx {
			w.ver[i]++
		}
	}
}

// fillValue writes version v of fingerprint i's value into dst and returns
// it: the index, the version, then bytes mixed from both, so a stale or
// foreign value never compares equal.
func fillValue(dst []byte, i int32, v uint32) []byte {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(i))
	binary.LittleEndian.PutUint32(dst[4:8], v)
	x := uint64(i)<<32 | uint64(v)
	for k := 8; k < len(dst); k++ {
		if k%8 == 0 {
			x = hashutil.Mix64(x)
		}
		dst[k] = byte(x >> (k % 8 * 8))
	}
	return dst
}

func (w *dedupIngest) steps() int              { return w.n }
func (w *dedupIngest) calls() (gets, puts int) { return 1, 1 }
func (w *dedupIngest) putBytes() int           { return dedup.FingerprintBytes + valueBytes }

func (w *dedupIngest) options() map[string]any {
	return map[string]any{
		"store": "clam.Sharded", "device": "IntelSSD", "flash_bytes": flashBytes, "memory_bytes": memoryBytes,
		"policy": "fifo", "shards": shards, "workers": workers, "universe": len(w.fps), "value_bytes": valueBytes,
		"step": fmt.Sprintf("GetBatch of %d fingerprints, then PutBatch of the distinct misses", batchKeys),
	}
}
