package clam

import (
	"fmt"

	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Option configures Open. Options replace the former Options and
// ShardedOptions structs with one composable surface: the same list opens
// a single CLAM or a sharded deployment depending on WithShards.
type Option func(*config) error

// config is the resolved option set.
type config struct {
	device       DeviceKind
	customDevice storage.Device

	flashBytes    int64
	memoryBytes   int64
	valueLogBytes int64 // 0 → flashBytes

	bufferKB        int
	maxIncarnations int

	policy Policy
	retain func(key, value uint64) bool

	seed  uint64
	clock *vclock.Clock

	shards     int
	workers    int
	batchChunk int
}

// WithDevice selects the storage model for the index and the value log
// (default IntelSSD).
func WithDevice(kind DeviceKind) Option {
	return func(c *config) error {
		c.device = kind
		return nil
	}
}

// WithCustomDevice overrides the index device of a one-shard store (a
// CLAM) with a caller-supplied model. The caller must construct it against
// the clock passed via WithClock (or let the device own its clock). The
// store is otherwise an ordinary one: its value log is made of the
// WithDevice kind on a private clock, as every shard's is. Rejected with
// WithShards > 1: each shard of a Sharded store owns private devices.
func WithCustomDevice(dev storage.Device) Option {
	return func(c *config) error {
		c.customDevice = dev
		return nil
	}
}

// WithFlash sets F, the slow-storage capacity dedicated to the hash table
// (total across shards). Required.
func WithFlash(bytes int64) Option {
	return func(c *config) error {
		c.flashBytes = bytes
		return nil
	}
}

// WithMemory sets M, the DRAM budget (total across shards), split per the
// §6.4 tuning rules. Optional: without a budget, buffers take B_opt, the
// Bloom filters get 16 bits per entry, the paper's configuration, and
// there is no hot-entry cache.
//
// Each shard's share of the budget pays, in turn, for its buffers, for a
// hot-entry cache of 1/16 of the share (the most entries, a power of two,
// that fit; a lookup call that follows another with no write between
// checks it before the buffers and the filters, see
// core.Config.CacheEntries), and for the paper's k·m Bloom
// bits per super table: what is left sets the filter bits per entry. At
// the benchmark layout, 12 MB over 8 shards, the cache holds 4,096
// entries per shard and leaves 29 filter bits per entry. The bit-sliced
// bank that holds those filters takes L·m + m bits, where L is k rounded
// up to 8, 16, 32 or 64 (the slice width) and m the staging filter, so
// MemoryFootprint().BloomBytes is (L+1)/k of the budgeted share: 17/16 at
// k = 16.
func WithMemory(bytes int64) Option {
	return func(c *config) error {
		if bytes < 0 {
			return fmt.Errorf("clam: WithMemory(%d): budget must not be negative", bytes)
		}
		c.memoryBytes = bytes
		return nil
	}
}

// WithValueLog sets the value-log capacity in bytes (total across shards)
// backing the byte-valued API. Default: the flash capacity again. The log
// is circular — when it wraps, the oldest records are overwritten and
// their keys read as misses, the same FIFO story as incarnation eviction.
// A kind-opened shard stripes its log over its two SSDs, as it stripes
// its index, every second erase block on each, so record reads use both;
// the capacity is the same as on one SSD. A WithCustomDevice store, or a
// shard's log of a single erase block, keeps the log on one SSD.
func WithValueLog(bytes int64) Option {
	return func(c *config) error {
		if bytes <= 0 {
			return fmt.Errorf("clam: WithValueLog(%d): capacity must be positive", bytes)
		}
		c.valueLogBytes = bytes
		return nil
	}
}

// WithBufferKB overrides B′, the per-super-table buffer size (default:
// 128 KB, the SSD erase block; 0 keeps the default).
func WithBufferKB(kb int) Option {
	return func(c *config) error {
		if kb < 0 {
			return fmt.Errorf("clam: WithBufferKB(%d): buffer size must not be negative", kb)
		}
		c.bufferKB = kb
		return nil
	}
}

// WithMaxIncarnations caps k per super table (default, or 0: 16, the
// paper's configuration; hard limit 64).
func WithMaxIncarnations(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("clam: WithMaxIncarnations(%d): cap must not be negative", k)
		}
		c.maxIncarnations = k
		return nil
	}
}

// WithPolicy selects eviction behaviour (default FIFO).
func WithPolicy(p Policy) Option {
	return func(c *config) error {
		c.policy = p
		return nil
	}
}

// WithRetain configures PriorityBased eviction: live entries (not deleted
// and not superseded) for which retain returns true survive partial
// discard. The callback sees the internal 64-bit key and value words
// (byte-keyed entries pass their fingerprint and value-log pointer).
func WithRetain(retain func(key, value uint64) bool) Option {
	return func(c *config) error {
		c.retain = retain
		return nil
	}
}

// WithSeed makes all hashing deterministic (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithClock supplies the virtual clock of a one-shard store (a CLAM); one
// is created if absent. It is the shard's clock: the CPU charges run on
// it, and so does a WithCustomDevice index device. A kind-opened store's
// two SSDs, which hold its index and its value log, run on private
// timelines that every chunk call joins into this clock before it returns,
// so between calls the clock covers all of the store's work. Rejected with WithShards > 1:
// each shard of a Sharded store owns a private clock.
func WithClock(clock *vclock.Clock) Option {
	return func(c *config) error {
		c.clock = clock
		return nil
	}
}

// WithShards partitions the key space across n independent shards (n must
// be a power of two), whose flash, memory and value-log budgets are split
// evenly. Every store is a router over its shards: n = 1 (the default)
// opens a CLAM, the one-shard store and the paper's design point, which
// keeps the configured seed; n > 1 opens a Sharded store, each of whose
// shards derives its own hash seed from it.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: WithShards(%d): shard count must be positive", n)
		}
		c.shards = n
		return nil
	}
}

// WithWorkers bounds the goroutine pool used by the batch operations
// (default, or 0: one worker per shard; more than one per shard is
// capped).
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("clam: WithWorkers(%d): worker count must not be negative", n)
		}
		c.workers = n
		return nil
	}
}

// Open builds a Store from the given options. Every store is the same
// router over 2^b shards: with one shard (the default) Open returns a
// *CLAM, with WithShards(n > 1) a *Sharded. Both satisfy Store through
// that one implementation; callers that need implementation-specific
// surface (the clock and core handle of a CLAM; per-shard views
// and the makespan of a Sharded store) type-assert to *CLAM or *Sharded.
func Open(opts ...Option) (Store, error) {
	cfg := config{seed: 1, shards: 1, batchChunk: defaultBatchChunk}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.flashBytes <= 0 {
		return nil, fmt.Errorf("clam: WithFlash is required")
	}
	r, err := openRouter(cfg)
	if err != nil {
		return nil, err
	}
	if len(r.shards) == 1 {
		return &CLAM{r}, nil
	}
	s := &Sharded{router: r, views: make([]*CLAM, len(r.shards))}
	for i, sh := range r.shards {
		s.views[i] = &CLAM{newRouter([]*shard{sh}, 1, r.chunk, r.fpSeed)}
	}
	return s, nil
}

// defaultBatchChunk is the batch router's task granularity for writes: a
// write batch is consumed in chunks of at most this many keys. A chunk is
// one core batched-pipeline call, so it bounds the size of that call; it
// is also the interval at which cancellation is checked and at which the
// owning worker re-visits the shared router queue. Reads are not chunked:
// a read batch's run on a shard is one core call of up to
// core.MaxLookupBatch keys, so each distinct key is resolved once. Only
// tests set another value.
const defaultBatchChunk = 512

// kindProfile returns the SSD profile of a device kind.
func kindProfile(kind DeviceKind) (ssd.Profile, error) {
	switch kind {
	case IntelSSD:
		return ssd.IntelX18M(), nil
	case TranscendSSD:
		return ssd.TranscendTS32(), nil
	default:
		return ssd.Profile{}, fmt.Errorf("clam: unknown device kind %d", kind)
	}
}
