// Package wanopt implements the WAN optimizer of §8: a connection
// management (CM) front end that chunks incoming objects with Rabin-Karp
// content-defined chunking and fingerprints each chunk with SHA-1; a
// compression engine (CE) that looks fingerprints up in a large hash table
// to find duplicate content, stores new chunks in an on-disk content
// cache, and inserts their fingerprints; and a network subsystem (NS) that
// transmits the compressed bytes over a link of configurable speed.
//
// The fingerprint index is pluggable — a CLAM or a Berkeley-DB-style index
// — which is exactly the comparison of Figures 9 and 10. As in the paper,
// the CM is emulated at high speed (chunks and SHA-1 fingerprints cost no
// virtual time; §8: "We emulate a high-speed CM by pre-computing chunks
// and SHA-1 fingerprints"), and the NS transmits at link rate without
// TCP dynamics.
//
// Everything runs in virtual time on the shared clock: index operations
// and content-cache I/O advance it by their modeled latencies, and
// transmission finishes at link-rate-determined instants.
package wanopt

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/rabin"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Index is the fingerprint store interface: full SHA-1 fingerprints map
// to cache references. A byte-keyed clam.Store satisfies it directly;
// legacy 64-bit indexes (the Berkeley-DB baselines) attach through
// Truncated, which keeps only the top 8 fingerprint bytes — the compromise
// the paper's 32–64 bit fingerprints made and that this repository's old
// uint64-only API forced on everyone.
type Index interface {
	Put(fp, ref []byte) error
	Get(fp []byte) ([]byte, bool, error)
}

// U64Index is the legacy 64-bit surface of the Berkeley-DB baselines.
type U64Index interface {
	Insert(key, value uint64) error
	Lookup(key uint64) (uint64, bool, error)
}

// Truncated adapts a U64Index to Index by truncating fingerprints to
// their top 8 bytes and dropping the reference payload.
type Truncated struct{ U64 U64Index }

// truncFP folds a fingerprint to the legacy 64-bit key space.
func truncFP(fp []byte) uint64 {
	k := binary.BigEndian.Uint64(fp[:8])
	if k == 0 {
		k = 1
	}
	return k
}

// Put implements Index.
func (t Truncated) Put(fp, ref []byte) error { return t.U64.Insert(truncFP(fp), uint64(len(ref))) }

// Get implements Index.
func (t Truncated) Get(fp []byte) ([]byte, bool, error) {
	_, ok, err := t.U64.Lookup(truncFP(fp))
	return nil, ok, err
}

// FingerprintBytes is the size of a chunk fingerprint (SHA-1).
const FingerprintBytes = sha1.Size

// RefBytes is the on-wire size of a reference to a cached chunk (its
// SHA-1 fingerprint).
const RefBytes = FingerprintBytes

// Config assembles a WAN optimizer.
type Config struct {
	// Index is the fingerprint hash table (CLAM or BDB).
	Index Index
	// ContentDev is the magnetic disk holding the content cache (§8: "The
	// CE maintains a large content cache on a magnetic disk"). May be nil
	// to model an infinitely fast cache.
	ContentDev storage.Device
	// Clock is the shared virtual clock.
	Clock *vclock.Clock
	// LinkBitsPerSec is the WAN link speed.
	LinkBitsPerSec int64
	// CMDelay is the connection-manager buffering delay (§8 uses 25 ms).
	CMDelay time.Duration
	// Chunker overrides the default ~8 KB content chunker.
	Chunker *rabin.Chunker
}

// Optimizer is a WAN optimizer endpoint. Not safe for concurrent use.
type Optimizer struct {
	cfg      Config
	chunker  *rabin.Chunker
	writePos int64 // content cache append position
	linkFree time.Duration
	stats    Stats
}

// Stats aggregates optimizer behaviour.
type Stats struct {
	BytesIn         int64
	BytesOut        int64
	ChunksTotal     uint64
	CacheWriteBytes int64
}

// New builds an optimizer.
func New(cfg Config) (*Optimizer, error) {
	if cfg.Index == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("wanopt: Index and Clock are required")
	}
	if cfg.LinkBitsPerSec <= 0 {
		return nil, fmt.Errorf("wanopt: LinkBitsPerSec must be positive")
	}
	ch := cfg.Chunker
	if ch == nil {
		ch = rabin.Default()
	}
	return &Optimizer{cfg: cfg, chunker: ch}, nil
}

// Fingerprint hashes a chunk to its full SHA-1 index key.
func Fingerprint(chunk []byte) [FingerprintBytes]byte {
	return sha1.Sum(chunk)
}

// cacheRef encodes a content-cache reference — the chunk's disk address
// and length, the record the index stores per fingerprint.
func cacheRef(addr uint64, n int) []byte {
	ref := make([]byte, 12)
	binary.LittleEndian.PutUint64(ref[0:8], addr)
	binary.LittleEndian.PutUint32(ref[8:12], uint32(n))
	return ref
}

// ObjectResult reports the processing of one object.
type ObjectResult struct {
	RawBytes        int
	CompressedBytes int
	Chunks          int
	Matched         int
	// ProcessTime is the CE time: index lookups/inserts + cache writes.
	ProcessTime time.Duration
	// Completion is the virtual time when the last byte left the link.
	Completion time.Duration
}

// Process runs one object through CM → CE → NS at the current virtual time
// and returns its result. The link is modeled as a FIFO serializer: an
// object's transmission starts when the link is free and its compressed
// bytes are ready.
func (o *Optimizer) Process(data []byte) (ObjectResult, error) {
	clock := o.cfg.Clock
	res := ObjectResult{RawBytes: len(data)}
	o.stats.BytesIn += int64(len(data))

	// CM: content chunking + SHA-1 (precomputed per §8, so free in
	// virtual time aside from the buffering delay).
	clock.Advance(o.cfg.CMDelay)
	chunks := o.split(data)
	res.Chunks = len(chunks)
	o.stats.ChunksTotal += uint64(len(chunks))

	// CE: fingerprint lookups, content cache writes, index inserts.
	ceStart := clock.Now()
	compressed := 0
	for _, chunk := range chunks {
		fp := Fingerprint(chunk)
		_, found, err := o.cfg.Index.Get(fp[:])
		if err != nil {
			return res, fmt.Errorf("wanopt: index lookup: %w", err)
		}
		if found {
			res.Matched++
			compressed += RefBytes
			continue
		}
		compressed += len(chunk)
		// Store the chunk in the on-disk content cache (sequential
		// append, §8: "chunks are inserted into the content cache in a
		// serial fashion").
		addr := uint64(o.writePos)
		if o.cfg.ContentDev != nil {
			cap := o.cfg.ContentDev.Geometry().Capacity
			pos := o.writePos % cap
			if pos+int64(len(chunk)) > cap {
				pos = 0 // wrap the cache
				o.writePos = 0
			}
			if _, err := o.cfg.ContentDev.WriteAt(chunk, pos); err != nil {
				return res, fmt.Errorf("wanopt: content cache write: %w", err)
			}
		}
		o.writePos += int64(len(chunk))
		o.stats.CacheWriteBytes += int64(len(chunk))
		if err := o.cfg.Index.Put(fp[:], cacheRef(addr, len(chunk))); err != nil {
			return res, fmt.Errorf("wanopt: index insert: %w", err)
		}
	}
	res.CompressedBytes = compressed
	res.ProcessTime = clock.Now() - ceStart
	o.stats.BytesOut += int64(compressed)

	// NS: serialize onto the link.
	tx := o.transmit(compressed)
	res.Completion = tx
	return res, nil
}

// split cuts an object into its content chunks. An empty object is zero
// chunks: the chunker cuts empty input into one empty chunk, whose
// fingerprint no object needs looked up or inserted.
func (o *Optimizer) split(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	return o.chunker.Split(data)
}

// transmit schedules n bytes on the FIFO link, starting no earlier than
// the current time and the link-free instant, and returns the completion
// instant. The clock is NOT advanced: transmission overlaps the processing
// of subsequent objects, as in the paper's pipelined CM/CE/NS design.
func (o *Optimizer) transmit(n int) time.Duration {
	start := o.cfg.Clock.Now()
	if o.linkFree > start {
		start = o.linkFree
	}
	done := start + TransmitTime(n, o.cfg.LinkBitsPerSec)
	o.linkFree = done
	return done
}

// LinkFree returns the instant the link drains.
func (o *Optimizer) LinkFree() time.Duration { return o.linkFree }

// TransmitTime returns the serialization time of n bytes at the given link
// speed.
func TransmitTime(n int, bitsPerSec int64) time.Duration {
	return time.Duration(float64(n*8) / float64(bitsPerSec) * float64(time.Second))
}
