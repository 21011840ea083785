package clam

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/ssd"
	"repro/internal/vclock"
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
	for _, kind := range []DeviceKind{IntelSSD, TranscendSSD, FlashChip, MagneticDisk} {
		c := openCLAMT(t, WithDevice(kind), WithFlash(16<<20), WithMemory(4<<20))
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

func TestDeviceKindString(t *testing.T) {
	names := map[DeviceKind]string{
		IntelSSD: "ssd-intel", TranscendSSD: "ssd-transcend",
		FlashChip: "flash-chip", MagneticDisk: "disk",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q", k, k.String())
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

func TestChipDefaultsToBlockBuffer(t *testing.T) {
	c := openCLAMT(t, WithDevice(FlashChip), WithFlash(16<<20), WithMemory(4<<20))
	if got := c.Core().Config().BufferBytes; got != 128<<10 {
		t.Fatalf("chip buffer = %d, want erase block 128KB", got)
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
	if st.Memory.Total() == 0 {
		t.Error("no memory footprint")
	}
}

// TestWriteLatencyCountsEveryWrite pins Stats.WriteLatency: on a
// kind-opened store every device write — incarnation flushes and value-log
// pages, serial and batched — lands in the histogram exactly once, so its
// count equals the two devices' write counters. A WithCustomDevice store
// is never instrumented.
func TestWriteLatencyCountsEveryWrite(t *testing.T) {
	ctx := context.Background()
	// drive runs serial U64 puts, then a U64 batch, then a byte batch,
	// checking that each phase reaches the device.
	drive := func(t *testing.T, st Store) Stats {
		t.Helper()
		const n = 40000
		for i := uint64(0); i < n; i++ {
			if err := st.PutU64(i, i); err != nil {
				t.Fatal(err)
			}
		}
		serial := st.Stats().Device.Writes
		if serial == 0 {
			t.Fatal("serial puts never flushed")
		}
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = uint64(n+i), uint64(i)
		}
		if err := st.PutBatchU64(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
		if st.Stats().Device.Writes == serial {
			t.Fatal("batched puts never flushed")
		}
		bkeys, bvals := make([][]byte, 1000), make([][]byte, 1000)
		for i := range bkeys {
			bkeys[i] = []byte(fmt.Sprintf("key-%04d", i))
			bvals[i] = bytes.Repeat([]byte{byte(i)}, 1000)
		}
		if err := st.PutBatch(ctx, bkeys, bvals); err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if s.ValueDevice.Writes == 0 {
			t.Fatal("byte puts never reached the value log device")
		}
		return s
	}
	for _, kind := range []DeviceKind{IntelSSD, TranscendSSD, FlashChip, MagneticDisk} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", kind, shards), func(t *testing.T) {
				st, err := Open(WithDevice(kind), WithFlash(16<<20), WithMemory(4<<20),
					WithSeed(3), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				s := drive(t, st)
				if want := s.Device.Writes + s.ValueDevice.Writes; s.WriteLatency.Count != want {
					t.Fatalf("WriteLatency.Count = %d, want %d index + %d value-log writes",
						s.WriteLatency.Count, s.Device.Writes, s.ValueDevice.Writes)
				}
			})
		}
	}
	t.Run("custom", func(t *testing.T) {
		clock := vclock.New()
		st, err := Open(WithCustomDevice(ssd.New(ssd.IntelX18M(), 16<<20, clock)),
			WithValueLogDevice(ssd.New(ssd.IntelX18M(), 16<<20, clock)),
			WithClock(clock), WithFlash(16<<20), WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		if s := drive(t, st); s.WriteLatency.Count != 0 {
			t.Fatalf("custom device: WriteLatency.Count = %d, want 0", s.WriteLatency.Count)
		}
	})
}

func TestUpdateAndDelete(t *testing.T) {
	c := openSmall(t, IntelSSD)
	c.PutU64(10, 1)
	c.UpdateU64(10, 2)
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

func TestResetMetrics(t *testing.T) {
	c := openSmall(t, IntelSSD)
	c.PutU64(1, 1)
	c.ResetMetrics()
	st := c.Stats()
	if st.InsertLatency.Count != 0 || st.Core.Inserts != 0 {
		t.Fatal("metrics not reset")
	}
}

func TestElapseAdvancesClock(t *testing.T) {
	c := openSmall(t, IntelSSD)
	before := c.Clock().Now()
	c.Elapse(time.Second)
	if c.Clock().Now()-before != time.Second {
		t.Fatal("Elapse did not advance the clock")
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
