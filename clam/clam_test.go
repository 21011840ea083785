package clam

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// openCLAMT opens a single CLAM through the public constructor.
func openCLAMT(t testing.TB, opts ...Option) *CLAM {
	t.Helper()
	st, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*CLAM)
}

// openShardedT opens a Sharded store through the public constructor.
func openShardedT(t testing.TB, opts ...Option) *Sharded {
	t.Helper()
	st, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*Sharded)
}

func openSmall(t testing.TB, kind DeviceKind) *CLAM {
	t.Helper()
	return openCLAMT(t, WithDevice(kind), WithFlash(16<<20), WithMemory(4<<20), WithSeed(7))
}

func TestOpenRequiresFlash(t *testing.T) {
	if _, err := Open(); err == nil {
		t.Fatal("Open accepted a zero flash capacity")
	}
}

func TestOpenAllDeviceKinds(t *testing.T) {
	// A kind-opened store builds its index and its value log as stripes
	// over a partition of each of its two SSDs, A and B: the index over A
	// then B, the log over B then A, each partition on its SSD's clock.
	for _, kind := range []DeviceKind{IntelSSD, TranscendSSD} {
		c := openCLAMT(t, WithDevice(kind), WithFlash(16<<20), WithMemory(4<<20))
		sh := c.shards[0]
		if got := fmt.Sprintf("%T %T %d %d", sh.idx.Device, sh.logs.Device, len(sh.idx.parts), len(sh.logs.parts)); got != "*storage.Stripe *storage.Stripe 2 2" {
			t.Fatalf("%v: index and log devices are %s, want two-partition stripes", kind, got)
		}
		a, b := sh.idx.clocks[0], sh.idx.clocks[1]
		if a == b || sh.logs.clocks[0] != b || sh.logs.clocks[1] != a || sh.clock == a || sh.clock == b {
			t.Fatalf("%v: the log's timelines are not the index's two SSDs in turn", kind)
		}
		if err := c.PutU64(1, 2); err != nil {
			t.Fatalf("%v insert: %v", kind, err)
		}
		v, ok, err := c.GetU64(1)
		if err != nil || !ok || v != 2 {
			t.Fatalf("%v lookup: %d %v %v", kind, v, ok, err)
		}
		// The byte API works on every device kind too.
		if err := c.Put([]byte("name"), []byte("value")); err != nil {
			t.Fatalf("%v put: %v", kind, err)
		}
		if bv, ok, err := c.Get([]byte("name")); err != nil || !ok || !bytes.Equal(bv, []byte("value")) {
			t.Fatalf("%v get: %q %v %v", kind, bv, ok, err)
		}
	}
}

func TestTuningMatchesPaperShape(t *testing.T) {
	// With the paper's ratios (M = F/8), §6.4 tuning should yield 128 KB
	// buffers, k = 16 incarnations, and ~16 bloom bits per entry.
	c := openCLAMT(t, WithDevice(IntelSSD), WithFlash(128<<20), WithMemory(16<<20))
	cfg := c.Core().Config()
	if cfg.BufferBytes != 128<<10 {
		t.Errorf("BufferBytes = %d, want 128KB", cfg.BufferBytes)
	}
	if cfg.NumIncarnations != 16 {
		t.Errorf("NumIncarnations = %d, want 16", cfg.NumIncarnations)
	}
	if cfg.FilterBitsPerEntry < 8 || cfg.FilterBitsPerEntry > 32 {
		t.Errorf("FilterBitsPerEntry = %d, want ≈16", cfg.FilterBitsPerEntry)
	}
	// The derived configuration must cover the flash exactly or less.
	used := int64(cfg.NumSuperTables()) * int64(cfg.NumIncarnations) * int64(cfg.BufferBytes)
	if used > 128<<20 {
		t.Errorf("configuration overcommits flash: %d > %d", used, 128<<20)
	}
}

func TestLatencyHistogramsPopulated(t *testing.T) {
	c := openSmall(t, IntelSSD)
	// Exceed the total buffer capacity so flushes reach the device.
	for i := uint64(0); i < 50000; i++ {
		if err := c.PutU64(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5000; i++ {
		c.GetU64(i * 3)
	}
	c.DeleteU64(1)
	st := c.Stats()
	if st.InsertLatency.Count != 50000 || st.LookupLatency.Count != 5000 || st.DeleteLatency.Count != 1 {
		t.Fatalf("histogram counts: %+v %+v %+v", st.InsertLatency, st.LookupLatency, st.DeleteLatency)
	}
	if st.InsertLatency.Mean <= 0 || st.LookupLatency.Mean <= 0 {
		t.Fatal("zero mean latencies")
	}
	// Headline shape: inserts are microseconds, well under lookups with
	// flash I/O in them.
	if metrics.Ms(st.InsertLatency.Mean) > 0.05 {
		t.Errorf("insert mean %.4f ms too high", metrics.Ms(st.InsertLatency.Mean))
	}
	if st.Device.Writes == 0 {
		t.Error("no device writes recorded")
	}
	if m := st.Memory; m.BufferBytes+m.BloomBytes+m.DeleteListBytes+m.MetadataBytes == 0 {
		t.Error("no memory footprint")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	c := openSmall(t, IntelSSD)
	c.PutU64(10, 1)
	c.PutU64(10, 2)
	if v, ok, _ := c.GetU64(10); !ok || v != 2 {
		t.Fatalf("update: %d %v", v, ok)
	}
	c.DeleteU64(10)
	if _, ok, _ := c.GetU64(10); ok {
		t.Fatal("deleted key found")
	}
}

func TestFlushQuiesces(t *testing.T) {
	c := openSmall(t, IntelSSD)
	c.PutU64(5, 50)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.GetU64(5); !ok || v != 50 {
		t.Fatalf("post-flush lookup: %d %v", v, ok)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := openSmall(t, IntelSSD)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 32
			for i := uint64(0); i < 2000; i++ {
				if err := c.PutU64(base+i, i); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.GetU64(base + i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All goroutines' keys visible.
	for g := 0; g < 8; g++ {
		base := uint64(g) << 32
		if _, ok, _ := c.GetU64(base + 1999); !ok {
			t.Fatalf("goroutine %d keys lost", g)
		}
	}
}

// TestResetMetrics pins what a reset clears: the latency histograms and
// core counters, but not the device counters, which stay cumulative since
// Open.
func TestResetMetrics(t *testing.T) {
	c := openSmall(t, IntelSSD)
	c.PutU64(1, 1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev := c.Stats().Device
	if dev.Writes == 0 {
		t.Fatal("the flush wrote nothing to the device")
	}
	c.ResetMetrics()
	st := c.Stats()
	if st.InsertLatency.Count != 0 || st.Core.Inserts != 0 {
		t.Fatal("metrics not reset")
	}
	if st.Device != dev {
		t.Fatalf("ResetMetrics moved the device counters: %+v -> %+v", dev, st.Device)
	}
}

func TestPriorityPolicyThroughFacade(t *testing.T) {
	c := openCLAMT(t,
		WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20),
		WithPolicy(PriorityBased), WithRetain(func(k, v uint64) bool { return v > 100 }))
	if err := c.PutU64(1, 200); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBudgetTooSmall(t *testing.T) {
	// A memory budget smaller than one buffer cannot work.
	_, err := Open(WithDevice(IntelSSD), WithFlash(1<<30), WithMemory(64<<10))
	if err == nil {
		t.Fatal("accepted impossible memory budget")
	}
}

// TestBloomFootprint pins the Bloom banks' share of Stats().Memory. The
// benchmark's layout (Intel, 64 MB of flash, a 12 MB budget) builds 32
// super tables of k = 16 incarnations, on 1 shard or 8; the hot-entry
// cache takes 1/16 of the budget, 768 KB, which leaves 29 filter bits per
// entry, m = 29·2^12-bit filters. Each bank holds m 2-byte slices and an
// m-bit staging filter, 17·m bits. Every example's layout spends at most
// its budget on buffers, the k·m Bloom bits per super table it budgets
// and the cache, and keeps its banks within (L+1)/k of those Bloom bits,
// L the slice width: the smallest of 8, 16, 32 and 64 bits holding k.
func TestBloomFootprint(t *testing.T) {
	for _, shards := range []int{1, 8} {
		st, err := Open(WithDevice(IntelSSD), WithFlash(64<<20), WithMemory(12<<20), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		m := st.Stats().Memory
		if got, want := m.BloomBytes, int64(29*17<<12*32/8); got != want {
			t.Errorf("%d shards: BloomBytes = %d, want %d", shards, got, want)
		}
		if got, want := m.CacheBytes, int64(768<<10); got != want {
			t.Errorf("%d shards: CacheBytes = %d, want %d", shards, got, want)
		}
	}
	layouts := []struct {
		name          string
		dev           DeviceKind
		flash, memory int64
		shards        int
	}{
		{"benchmark-8", IntelSSD, 64 << 20, 12 << 20, 8},
		{"quickstart", IntelSSD, 64 << 20, 8 << 20, 1},
		{"dirsvc", IntelSSD, 64 << 20, 8 << 20, 1},
		{"wanopt", TranscendSSD, 64 << 20, 8 << 20, 1},
		{"dedup", IntelSSD, 64 << 20, 12 << 20, 1},
		{"tuning", IntelSSD, 128 << 20, 16 << 20, 1},
		{"tuning-smoke", IntelSSD, 16 << 20, 2 << 20, 1},
		{"sharded-1", IntelSSD, 256 << 20, 64 << 20, 1},
		{"sharded-8", IntelSSD, 256 << 20, 64 << 20, 8},
	}
	for _, l := range layouts {
		st, err := Open(WithDevice(l.dev), WithFlash(l.flash), WithMemory(l.memory), WithShards(l.shards))
		if err != nil {
			t.Fatal(err)
		}
		var r *router
		switch s := st.(type) {
		case *CLAM:
			r = s.router
		case *Sharded:
			r = s.router
		}
		var budget, bound uint64 // k·m bits per super table, and (L+1)/k of them
		for _, sh := range r.shards {
			cfg := sh.bh.Config()
			k := cfg.NumIncarnations
			L := 8
			for L < k {
				L *= 2
			}
			km := uint64(cfg.NumSuperTables()) * uint64(k) * cfg.FilterBits()
			budget += km
			bound += km * uint64(L+1) / uint64(k)
		}
		m := st.Stats().Memory
		if got := uint64(m.BloomBytes) * 8; got > bound {
			t.Errorf("%s: Bloom banks take %d bits, above %d, (L+1)/k of the %d budgeted", l.name, got, bound, budget)
		}
		if m.CacheBytes == 0 {
			t.Errorf("%s: no hot-entry cache", l.name)
		}
		if spent := m.BufferBytes + int64(budget/8) + m.CacheBytes; spent > l.memory {
			t.Errorf("%s: %d B of buffers, %d B of budgeted Bloom bits and %d B of cache exceed the %d B budget",
				l.name, m.BufferBytes, budget/8, m.CacheBytes, l.memory)
		}
	}
}
