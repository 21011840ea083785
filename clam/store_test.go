package clam

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// countingCtx is a context whose Err starts returning Canceled after the
// Nth check — a deterministic way to cancel "mid-batch" exactly at a
// router chunk boundary.
type countingCtx struct {
	context.Context
	checks atomic.Int64
	after  int64
}

func (c *countingCtx) Err() error {
	if c.checks.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBatchCancellation proves a canceled batch returns early: with an
// already-canceled context nothing is applied, and with a context canceled
// after a few chunk-boundary checks only a prefix of the batch lands.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	const n = 8192
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	bkeys := make([][]byte, n)
	bvals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		vals[i] = uint64(i)
		bkeys[i] = []byte{byte(i), byte(i >> 8), byte(i >> 16), 'k'}
		bvals[i] = []byte{byte(i)}
	}

	c, s := strictStores(t, FIFO)
	for _, st := range []struct {
		name string
		s    Store
	}{{"clam", c}, {"sharded", s}} {
		if err := st.s.PutBatchU64(ctx, keys, vals); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled PutBatchU64 returned %v", st.name, err)
		}
		if err := st.s.PutBatch(ctx, bkeys, bvals); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled PutBatch returned %v", st.name, err)
		}
		if _, _, err := st.s.GetBatchU64(ctx, keys); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled GetBatchU64 returned %v", st.name, err)
		}
		if _, _, err := st.s.GetBatch(ctx, bkeys); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled GetBatch returned %v", st.name, err)
		}
		if err := st.s.DeleteBatchU64(ctx, keys); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled DeleteBatchU64 returned %v", st.name, err)
		}
		if err := st.s.DeleteBatch(ctx, bkeys); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled DeleteBatch returned %v", st.name, err)
		}
		if got := st.s.Stats().Core.Inserts; got != 0 {
			t.Fatalf("%s: pre-canceled batches applied %d inserts", st.name, got)
		}
	}

	// Mid-batch cancellation at a chunk boundary: with chunk size 64 the
	// batch must stop after exactly `after` chunks, whatever the worker
	// count — the router checks ctx under its queue lock before every
	// chunk, so each passed check runs exactly one chunk.
	for _, workers := range []int{1, 4} {
		s2 := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
			WithShards(4), WithWorkers(workers), withBatchChunk(64))
		cctx := &countingCtx{Context: context.Background(), after: 3}
		err := s2.PutBatchU64(cctx, keys, vals)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-batch cancellation returned %v", workers, err)
		}
		applied := s2.Stats().Core.Inserts
		if applied != 3*64 {
			t.Fatalf("workers=%d: canceled batch applied %d inserts, want exactly %d (3 chunks of 64)", workers, applied, 3*64)
		}
	}
}

// hotShardKeys returns 1024 distinct keys, three in four of them on
// shard 0 of a 4-shard store, and their values.
func hotShardKeys() (keys, vals []uint64) {
	keys, vals = make([]uint64, 1024), make([]uint64, 1024)
	for i := range keys {
		keys[i], vals[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i)
		if i%4 != 0 {
			keys[i] &= 1<<62 - 1
		}
	}
	return keys, vals
}

// TestLentDedupeCancellation cancels a GetBatchU64 whose hot run, on
// shard 0 of 4, lends its dedupe to the three other shards, at each of its
// four checks in turn, on 1 and 4 workers: the three helpers' chunks are
// checked when claimed, and the owner's call when its last helper has
// made its own. Every call must return, canceled unless all four checks
// passed, and a canceled call must not start the owner's call: canceled
// after 3 checks, between the last helper's own call and the owner's, the
// helpers lent their dedupe and shard 0 looked up nothing. A batch that
// passed them all must lend and answer as an uncanceled one does.
func TestLentDedupeCancellation(t *testing.T) {
	keys, vals := hotShardKeys()
	for _, workers := range []int{1, 4} {
		for after := int64(0); after <= 4; after++ {
			s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
				WithShards(4), WithWorkers(workers))
			if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
				t.Fatal(err)
			}
			got, found, err := s.GetBatchU64(&countingCtx{Context: context.Background(), after: after}, keys)
			if after < 4 {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d, canceled after %d checks: %v", workers, after, err)
				}
				if owner := s.Shard(0).Stats(); owner.Core.Lookups != 0 || owner.LookupLatency.Count != 0 {
					t.Fatalf("workers=%d, canceled after %d checks: the owner looked up %d keys at %d positions",
						workers, after, owner.Core.Lookups, owner.LookupLatency.Count)
				}
				if after == 3 && s.Stats().LentDedupes == 0 {
					t.Fatalf("workers=%d: canceled after the helpers' checks, but no helper lent its dedupe", workers)
				}
				continue
			}
			if err != nil || s.Stats().LentDedupes == 0 {
				t.Fatalf("workers=%d: uncanceled batch returned %v after lending %d positions", workers, err, s.Stats().LentDedupes)
			}
			for i, v := range got {
				if !found[i] || v != vals[i] {
					t.Fatalf("workers=%d: position %d answered (%d, %t), want (%d, true)", workers, i, v, found[i], vals[i])
				}
			}
		}
	}
}

// TestLentDedupeHelperFault fails one helper's index reads in a
// GetBatchU64 whose hot run, on shard 0 of 4, lends its dedupe to the
// three other shards, each of which reads its own run from flash. The
// call must return the fault, the owner's one call must still run, once:
// shard 0's Lookups rise by its run's distinct keys and its
// LookupLatency.Count by its run's positions, and no router goroutine may
// outlive the call.
func TestLentDedupeHelperFault(t *testing.T) {
	keys, vals := hotShardKeys()
	for _, workers := range []int{1, 4} {
		s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
			WithShards(4), WithWorkers(workers))
		ctx := context.Background()
		if err := s.PutBatchU64(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil { // so every run reads flash
			t.Fatal(err)
		}
		// Every key once, and key 1, on shard 0, 1024 times more.
		probes := append(slices.Clone(keys), slices.Repeat(keys[1:2], 1024)...)
		distinct, positions := 0, 0
		for i, k := range probes {
			if s.shardIndex(k) == 0 {
				positions++
				if i < len(keys) {
					distinct++
				}
			}
		}
		helper := s.shards[3].idx.parts // with one worker, the last helper to run
		var fired atomic.Bool
		for _, p := range helper {
			p.SetFault(func(op storage.Op, _ int64, _ int) error {
				if op == storage.OpRead {
					fired.Store(true)
					return errFault
				}
				return nil
			})
		}
		goroutines := runtime.NumGoroutine()
		owner := s.Shard(0).Stats()
		_, _, err := s.GetBatchU64(ctx, probes)
		for _, p := range helper {
			p.SetFault(nil)
		}
		if !errors.Is(err, errFault) || !fired.Load() {
			t.Fatalf("workers=%d: GetBatchU64 returned %v, the fault fired: %t; want the helper's fault", workers, err, fired.Load())
		}
		if s.Stats().LentDedupes == 0 {
			t.Fatalf("workers=%d: no run lent its dedupe", workers)
		}
		after := s.Shard(0).Stats()
		if d := after.Core.Lookups - owner.Core.Lookups; d != uint64(distinct) {
			t.Fatalf("workers=%d: the owner looked up %d keys, want its run's %d distinct keys once", workers, d, distinct)
		}
		if d := after.LookupLatency.Count - owner.LookupLatency.Count; d != uint64(positions) {
			t.Fatalf("workers=%d: the owner recorded %d lookup positions, want its run's %d", workers, d, positions)
		}
		for wait := 0; runtime.NumGoroutine() > goroutines; wait++ {
			if wait == 100 {
				t.Fatalf("workers=%d: %d goroutines after the call, %d before", workers, runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestLentDedupeConcurrentBatches runs skewed GetBatchU64 calls from four
// goroutines at once on one store, so batches whose runs lend their
// dedupe share shards, and the helpers of one batch queue on shard locks
// that another batch's owners hold: every call must return, and every
// position must answer its key's value.
func TestLentDedupeConcurrentBatches(t *testing.T) {
	keys, vals := hotShardKeys()
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithShards(4), WithWorkers(2))
	if err := s.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			batch, want := make([]int, 2048), make([]uint64, 2048)
			probes := make([]uint64, len(batch))
			for range 20 {
				for j := range batch {
					batch[j] = rng.Intn(len(keys)) * rng.Intn(2) // half the positions repeat key 0
					probes[j], want[j] = keys[batch[j]], vals[batch[j]]
				}
				got, found, err := s.GetBatchU64(context.Background(), probes)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if !found[j] || got[j] != want[j] {
						t.Errorf("goroutine %d: position %d answered (%d, %t), want (%d, true)", g, j, got[j], found[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Stats().LentDedupes == 0 {
		t.Fatal("no run lent its dedupe")
	}
}

// TestShardHandleByteOpsConsistent pins the Shard(i) contract for the
// byte family: the live shard handle fingerprints keys with the
// deployment seed, so keys stored through the parent resolve through the
// owning shard's handle and vice versa.
func TestShardHandleByteOpsConsistent(t *testing.T) {
	s := openShardedT(t, WithDevice(IntelSSD), WithFlash(32<<20), WithMemory(8<<20),
		WithSeed(7), WithShards(4))
	for i := 0; i < 64; i++ {
		key := []byte{byte(i), 's', 'h'}
		val := []byte{byte(i), byte(i + 1)}
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		sh := s.shardIndex(fingerprint(key, s.fpSeed))
		v, ok, err := s.Shard(sh).Get(key)
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("Shard(%d).Get(%q) = (%q, %v, %v) after parent Put", sh, key, v, ok, err)
		}
		// And the reverse: a Put through the owning shard's handle is
		// visible through the parent.
		val2 := append(val, 0xFF)
		if err := s.Shard(sh).Put(key, val2); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := s.Get(key); !ok || !bytes.Equal(v, val2) {
			t.Fatalf("parent Get(%q) = (%q, %v) after shard-handle Put", key, v, ok)
		}
	}
}

// TestU64AndByteFamiliesCoexist stores through both key families and
// checks neither corrupts the other: byte reads are key-verified, so even
// a U64 entry colliding with a byte fingerprint reads as a miss.
func TestU64AndByteFamiliesCoexist(t *testing.T) {
	c, s := strictStores(t, FIFO)
	for _, st := range []struct {
		name string
		s    Store
	}{{"clam", c}, {"sharded", s}} {
		for i := uint64(0); i < 2000; i++ {
			if err := st.s.PutU64(i*0x9e3779b97f4a7c15+1, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			k := []byte{byte(i), byte(i >> 8), 'b'}
			if err := st.s.Put(k, bytes.Repeat([]byte{byte(i)}, i%50)); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 2000; i++ {
			if v, ok, _ := st.s.GetU64(i*0x9e3779b97f4a7c15 + 1); !ok || v != i {
				t.Fatalf("%s: u64 key %d: (%d, %v)", st.name, i, v, ok)
			}
		}
		for i := 0; i < 2000; i++ {
			k := []byte{byte(i), byte(i >> 8), 'b'}
			v, ok, _ := st.s.Get(k)
			if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, i%50)) {
				t.Fatalf("%s: byte key %d: (%d bytes, %v)", st.name, i, len(v), ok)
			}
		}
	}
}

// contains probes one key through ContainsBatch.
func contains(t *testing.T, st Store, key []byte) bool {
	t.Helper()
	found, err := st.ContainsBatch(context.Background(), [][]byte{key})
	if err != nil {
		t.Fatalf("ContainsBatch(%q): %v", key, err)
	}
	return found[0]
}

// TestContainsSemantics pins the existence-probe contract on both
// implementations: agreement with Get for present, absent and deleted
// keys, per key and over a whole batch, and no value-log record reads.
func TestContainsSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() Store
	}{
		{"clam", func() Store {
			return openCLAMT(t, WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20), WithSeed(91))
		}},
		{"sharded", func() Store {
			return openShardedT(t, WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20),
				WithSeed(91), WithShards(4))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.open()
			keys := make([][]byte, 500)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("object-%04d", i))
				if err := st.Put(keys[i], []byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// A U64 entry shares the table but is no byte-keyed record.
			if err := st.PutU64(777, 42); err != nil {
				t.Fatal(err)
			}
			// Probes agree with Get on present keys and skip the record
			// read: the value-log device must not be touched by them.
			vr0 := st.Stats().ValueDevice.Reads
			for _, k := range keys[:100] {
				if !contains(t, st, k) {
					t.Fatalf("ContainsBatch missed present key %q alone", k)
				}
			}
			found, err := st.ContainsBatch(context.Background(), keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range found {
				if !ok {
					t.Fatalf("ContainsBatch missed present key %d", i)
				}
			}
			if vr := st.Stats().ValueDevice.Reads; vr != vr0 {
				t.Fatalf("existence probes read the value log: %d -> %d device reads", vr0, vr)
			}
			// Absent and deleted keys read false.
			if contains(t, st, []byte("never-inserted")) {
				t.Fatal("ContainsBatch(absent) = true")
			}
			if err := st.Delete(keys[0]); err != nil {
				t.Fatal(err)
			}
			if contains(t, st, keys[0]) {
				t.Fatal("ContainsBatch(deleted) = true")
			}
			if contains(t, st, []byte{}) {
				t.Fatal("ContainsBatch(empty never-inserted key) = true")
			}
		})
	}
}

// TestContainsStalePointerTradeoff shows the accepted false positive:
// after the value log laps a record, Get reads a miss (key verification)
// but ContainsBatch still reports true from the index hit alone.
func TestContainsStalePointerTradeoff(t *testing.T) {
	st := openCLAMT(t, WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20),
		WithValueLog(64<<10), WithSeed(92))
	first := []byte("first-key")
	if err := st.Put(first, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	// Lap the tiny log so first's record is overwritten.
	for i := 0; st.Stats().ValueLog.Wraps < 2; i++ {
		k := []byte(fmt.Sprintf("filler-%06d", i))
		if err := st.Put(k, bytes.Repeat([]byte{2}, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := st.Get(first); err != nil || ok {
		t.Fatalf("Get(lapped) = (found=%v, %v), want miss", ok, err)
	}
	if !contains(t, st, first) {
		t.Fatal("ContainsBatch(lapped) = false; the documented index-only tradeoff should report true")
	}
}

// TestFailedPutKeepsRecordLive pins the space accounting of a Put that
// fails before any I/O (a record larger than the log): the key still reads
// its previous value, so that record must stay on the live side, on the
// serial and the batched path alike.
func TestFailedPutKeepsRecordLive(t *testing.T) {
	key, big := []byte("k"), make([]byte, 2<<20)
	for _, tc := range []struct {
		name string
		put  func(Store) error
	}{
		{"serial", func(st Store) error { return st.Put(key, big) }},
		{"batched", func(st Store) error {
			return st.PutBatch(context.Background(), [][]byte{key}, [][]byte{big})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openCLAMT(t, WithFlash(4<<20), WithMemory(1<<20), WithValueLog(1<<20))
			if err := st.Put(key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			before, dev := st.Stats().ValueLog, st.Stats().ValueDevice
			// The record is over the 2 MiB - 1 pointer limit too; the
			// capacity check comes first, before any I/O.
			if err := tc.put(st); err == nil || !strings.Contains(err.Error(), "exceeds log capacity") {
				t.Fatalf("Put of a record larger than the log: %v, want the capacity error", err)
			}
			if d := st.Stats().ValueDevice; d != dev {
				t.Fatalf("failed Put reached the value device: %+v -> %+v", dev, d)
			}
			if v, ok, err := st.Get(key); err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get after failed Put = %q, %v, %v; want v1", v, ok, err)
			}
			after := st.Stats().ValueLog
			if after.LiveBytes != before.LiveBytes || after.DeadBytes != before.DeadBytes {
				t.Fatalf("failed Put moved space: live %d -> %d, dead %d -> %d",
					before.LiveBytes, after.LiveBytes, before.DeadBytes, after.DeadBytes)
			}
		})
	}
}

// TestLappedBufferedPointerDebitsNothing pins the dead-record accounting
// of a key overwritten while its pointer is still in the DRAM buffer but
// its record was already lapped by the value log: the lap counted that
// record, so the overwrite debits nothing, and above all not the record
// the head has since written in its place.
func TestLappedBufferedPointerDebitsNothing(t *testing.T) {
	st := openCLAMT(t, WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20),
		WithValueLog(64<<10), WithSeed(94))
	key := []byte("lapped-key")
	if err := st.Put(key, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	// Lap the log past the key's record at offset 0: wrap once, then
	// write two more records over its region.
	for i, extra := 0, 2; extra > 0; i++ {
		if err := st.Put([]byte(fmt.Sprintf("filler-%06d", i)), bytes.Repeat([]byte{2}, 2000)); err != nil {
			t.Fatal(err)
		}
		if st.Stats().ValueLog.Wraps > 0 {
			extra--
		}
	}
	before := st.Stats()
	if before.ValueLog.Wraps != 1 || before.Core.Flushes != 0 {
		t.Fatalf("want one wrap and the key's pointer still buffered: %d wraps, %d flushes",
			before.ValueLog.Wraps, before.Core.Flushes)
	}
	val := []byte("v2")
	if err := st.Put(key, val); err != nil {
		t.Fatal(err)
	}
	after := st.Stats().ValueLog
	lappedLive := int64(after.LappedLiveBytes - before.ValueLog.LappedLiveBytes)
	lappedDead := int64(after.LappedBytes-before.ValueLog.LappedBytes) - lappedLive
	newN := int64(storage.RecordSize(len(key), len(val)))
	if want := before.ValueLog.LiveBytes + newN - lappedLive; after.LiveBytes != want {
		t.Fatalf("LiveBytes %d -> %d, want %d: the overwrite debited the lapped record's successor",
			before.ValueLog.LiveBytes, after.LiveBytes, want)
	}
	if want := before.ValueLog.DeadBytes - lappedDead; after.DeadBytes != want {
		t.Fatalf("DeadBytes %d -> %d, want %d", before.ValueLog.DeadBytes, after.DeadBytes, want)
	}
	if v, ok, err := st.Get(key); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("Get after overwrite = %q, %v, %v", v, ok, err)
	}
}

// TestValueLogOccupancyStats exercises the live/dead accounting through the
// Store surface: overwrites and deletes of buffered keys move bytes to the
// dead side, and occupancy stays within [0, 1].
func TestValueLogOccupancyStats(t *testing.T) {
	st := openCLAMT(t, WithDevice(IntelSSD), WithFlash(8<<20), WithMemory(2<<20),
		WithValueLog(1<<20), WithSeed(93))
	val := bytes.Repeat([]byte{7}, 500)
	for i := 0; i < 200; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s1 := st.Stats().ValueLog
	if s1.LiveBytes == 0 || s1.DeadBytes != 0 {
		t.Fatalf("after fresh puts: %+v", s1)
	}
	if s1.Capacity != 1<<20 {
		t.Fatalf("capacity = %d, want %d", s1.Capacity, 1<<20)
	}
	if used := s1.LiveBytes + s1.DeadBytes; used <= 0 || used > s1.Capacity {
		t.Fatalf("%d record bytes in a %d-byte log", used, s1.Capacity)
	}
	// Overwrite half while their pointers are still buffered: their old
	// records die.
	for i := 0; i < 100; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	s2 := st.Stats().ValueLog
	if s2.DeadBytes == 0 {
		t.Fatalf("overwrites marked nothing dead: %+v", s2)
	}
	// Delete the other half: more dead bytes, fewer live.
	for i := 100; i < 200; i++ {
		if err := st.Delete([]byte(fmt.Sprintf("k-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s3 := st.Stats().ValueLog
	if s3.DeadBytes <= s2.DeadBytes || s3.LiveBytes >= s2.LiveBytes {
		t.Fatalf("deletes did not move bytes to the dead side: %+v -> %+v", s2, s3)
	}
	if s3.LiveBytes < 0 || s3.DeadBytes < 0 {
		t.Fatalf("negative space counters: %+v", s3)
	}
}
