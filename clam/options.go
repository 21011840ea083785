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

	disableBloom    bool
	disableBitslice bool

	shards     int
	workers    int
	batchChunk int
	shardPar   int
}

// WithDevice selects the storage model for the index and the value log
// (default IntelSSD).
func WithDevice(kind DeviceKind) Option {
	return func(c *config) error {
		c.device = kind
		return nil
	}
}

// WithCustomDevice overrides the index device with a caller-supplied model.
// The caller must construct it against the clock passed via WithClock (or
// let the device own its clock). Byte-valued operations additionally need
// WithValueLogDevice; without one they fail with ErrNoValueLog.
// Incompatible with WithShards > 1 — each shard owns a private device.
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
// 128 KB, or the device erase block on raw flash).
func WithBufferKB(kb int) Option {
	return func(c *config) error {
		c.bufferKB = kb
		return nil
	}
}

// WithFilterBitsPerEntry overrides the Bloom budget (default: derived from
// the memory budget).
func WithFilterBitsPerEntry(bits int) Option {
	return func(c *config) error {
		c.filterBitsPerEntry = bits
		return nil
	}
}

// WithMaxIncarnations caps k per super table (default 16, the paper's
// configuration; hard limit 64).
func WithMaxIncarnations(k int) Option {
	return func(c *config) error {
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

// WithRetain configures PriorityBased eviction: entries for which retain
// returns true survive partial discard. The callback sees the internal
// 64-bit key and value words (byte-keyed entries pass their fingerprint
// and value-log pointer).
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

// WithClock supplies the virtual clock; one is created if absent.
// Incompatible with WithShards > 1 — each shard owns a private clock.
func WithClock(clock *vclock.Clock) Option {
	return func(c *config) error {
		c.clock = clock
		return nil
	}
}

// WithoutBloom disables Bloom filters (§7.3.1 ablation).
func WithoutBloom() Option {
	return func(c *config) error {
		c.disableBloom = true
		return nil
	}
}

// WithoutBitslice replaces the bit-sliced Bloom bank with separate filters
// (§7.3.1 ablation); answers are identical, CPU cost higher.
func WithoutBitslice() Option {
	return func(c *config) error {
		c.disableBitslice = true
		return nil
	}
}

// WithShards partitions the key space across n independent shards (n must
// be a power of two). n = 1 (the default) opens a single CLAM, the paper's
// design point; n > 1 opens a Sharded deployment whose flash, memory and
// value-log budgets are split evenly across shards.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: WithShards(%d): shard count must be positive", n)
		}
		c.shards = n
		return nil
	}
}

// WithWorkers bounds the goroutine pool used by the sharded batch
// operations (default: one worker per shard).
func WithWorkers(n int) Option {
	return func(c *config) error {
		c.workers = n
		return nil
	}
}

// WithShardParallelism lets up to n workers cooperate on a single shard's
// batch (default 1: one worker per shard, the pre-cooperative model). With
// n > 1, a batch's chunk calls split their phase A — the read-mostly
// memory-resolution phase of the core pipelines — into parallel lanes: on
// a Sharded store, router workers that run out of shards to own attach to
// the deepest pending shard and serve its lanes instead of idling (capped
// at n-1 co-workers per shard, within the WithWorkers budget); on a single
// CLAM, lanes run on up to n-1 spawned goroutines. Results, per-key probe
// sequences and all core counters are exactly those of the serial pipeline
// — parallelism only changes wall-clock time, never state or virtual time
// (the differential oracles pin this).
func WithShardParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: WithShardParallelism(%d): parallelism must be positive", n)
		}
		c.shardPar = n
		return nil
	}
}

// WithBatchChunk sets the batch pipeline's task granularity: batches are
// consumed in chunks of at most this many keys (default 512). A chunk is
// one core batched-pipeline call, so the setting bounds gather scratch and
// the scope of same-page read dedupe; it is also the interval at which
// cancellation is checked and — on a Sharded store — at which the owning
// worker re-visits the shared router queue.
func WithBatchChunk(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("clam: WithBatchChunk(%d): chunk must be positive", n)
		}
		c.batchChunk = n
		return nil
	}
}

// Open builds a Store from the given options: a single CLAM by default,
// or a Sharded deployment with WithShards(n > 1). Both implementations
// satisfy Store; callers that need implementation-specific surface
// (per-shard inspection, the core handle, latency histograms) type-assert
// to *CLAM or *Sharded.
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
	if cfg.shards > 1 {
		return openSharded(cfg)
	}
	return openCLAM(cfg)
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
