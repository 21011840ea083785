package clam

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/flashchip"
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
	device        DeviceKind
	customDevice  storage.Device
	customVLogDev storage.Device

	flashBytes    int64
	memoryBytes   int64
	valueLogBytes int64 // 0 → flashBytes

	bufferKB           int
	filterBitsPerEntry int
	maxIncarnations    int

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
// the clock passed via WithClock (or let the device own its clock).
// Byte-valued operations additionally need WithValueLogDevice; without one
// they fail with ErrNoValueLog. Rejected with WithShards > 1: each shard
// of a Sharded store owns private devices.
func WithCustomDevice(dev storage.Device) Option {
	return func(c *config) error {
		c.customDevice = dev
		return nil
	}
}

// WithValueLogDevice overrides the value-log device. Only meaningful
// together with WithCustomDevice; stores opened by device kind build their
// own value-log device.
func WithValueLogDevice(dev storage.Device) Option {
	return func(c *config) error {
		c.customVLogDev = dev
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
// §6.4 tuning rules. Required unless WithBufferKB and
// WithFilterBitsPerEntry are both given.
//
// The budget counts the paper's k·m Bloom bits per super table: what is
// left after the buffers sets the filter bits per entry. The bit-sliced
// bank that holds those filters takes L·m + m bits, where L ≥ k+8 is the
// slice length rounded up to 32, 64 or 128 (sliding-window slack) and m
// the staging filter, so MemoryFootprint().BloomBytes exceeds the budgeted
// share — about 2x at k = 16.
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
// 128 KB, or the device erase block on raw flash; 0 keeps the default).
func WithBufferKB(kb int) Option {
	return func(c *config) error {
		if kb < 0 {
			return fmt.Errorf("clam: WithBufferKB(%d): buffer size must not be negative", kb)
		}
		c.bufferKB = kb
		return nil
	}
}

// WithFilterBitsPerEntry overrides the Bloom budget (default, or 0: derived
// from the memory budget).
func WithFilterBitsPerEntry(bits int) Option {
	return func(c *config) error {
		if bits < 0 {
			return fmt.Errorf("clam: WithFilterBitsPerEntry(%d): bits must not be negative", bits)
		}
		c.filterBitsPerEntry = bits
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
// is created if absent. Rejected with WithShards > 1: each shard of a
// Sharded store owns a private clock.
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

// WithBatchChunk sets the batch pipeline's task granularity: batches are
// consumed in chunks of at most this many keys (default 512). A chunk is
// one core batched-pipeline call, so the setting bounds the size of that
// call and the scope of its same-page read dedupe; it is also the interval
// at which cancellation is checked and at which the owning worker
// re-visits the shared router queue.
func WithBatchChunk(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: WithBatchChunk(%d): chunk must be positive", n)
		}
		c.batchChunk = n
		return nil
	}
}

// Open builds a Store from the given options. Every store is the same
// router over 2^b shards: with one shard (the default) Open returns a
// *CLAM, with WithShards(n > 1) a *Sharded. Both satisfy Store through
// that one implementation; callers that need implementation-specific
// surface (the clock, core handle and devices of a CLAM; per-shard views
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
	if cfg.customVLogDev != nil && cfg.customDevice == nil {
		return nil, fmt.Errorf("clam: WithValueLogDevice requires WithCustomDevice (kind-opened stores build their own value-log device)")
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

// defaultBatchChunk is the batch router's default task granularity.
const defaultBatchChunk = 512

// newKindDevice builds a device model of the given kind.
func newKindDevice(kind DeviceKind, capacity int64, clock *vclock.Clock) (storage.Device, error) {
	switch kind {
	case IntelSSD:
		return ssd.New(ssd.IntelX18M(), capacity, clock), nil
	case TranscendSSD:
		return ssd.New(ssd.TranscendTS32(), capacity, clock), nil
	case FlashChip:
		// The chip requires a whole number of erase blocks; round up.
		if bs := int64(128 << 10); capacity%bs != 0 {
			capacity += bs - capacity%bs
		}
		return flashchip.New(flashchip.DefaultConfig(capacity), clock), nil
	case MagneticDisk:
		return disk.New(disk.Hitachi7K80(), capacity, clock), nil
	default:
		return nil, fmt.Errorf("clam: unknown device kind %d", kind)
	}
}
