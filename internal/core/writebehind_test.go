package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ssd"
	"repro/internal/vclock"
)

// behindConfig is testConfig with its SSD on a timeline of its own, on
// which the instance holds the images its flushes stage until a call
// writes them behind (see WriteBehind). It returns the SSD and its clock.
func behindConfig(t testing.TB) (Config, *vclock.Clock, *ssd.SSD, *vclock.Clock) {
	t.Helper()
	cfg, clock := testConfig(t)
	devClock := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), 1<<20, devClock)
	cfg.Device, cfg.DeviceClock = dev, []*vclock.Clock{devClock}
	return cfg, clock, dev, devClock
}

// insertUntilFlushes inserts key *next, with the key as its value, and
// the keys after it until the instance has flushed n times; *next is then
// the first key not inserted.
func insertUntilFlushes(t *testing.T, b *BufferHash, next *uint64, n uint64) {
	t.Helper()
	for b.Stats().Flushes < n {
		if err := b.Insert(*next, *next); err != nil {
			t.Fatal(err)
		}
		*next++
	}
}

// flashKey returns the first key below next, inserted with itself as its
// value, whose lookup reads one incarnation page and hits.
func flashKey(t *testing.T, b *BufferHash, next uint64) uint64 {
	t.Helper()
	for k := uint64(1); k < next; k++ {
		res, err := b.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && res.FlashReads == 1 {
			return k
		}
	}
	t.Fatal("no key below next reads flash")
	return 0
}

// TestWriteBehind pins the held image's life on a device with a timeline
// of its own. A flushing insert writes nothing and lands no flush or
// insert work: its image is held in DRAM, which MemoryFootprint counts in
// PendingBytes with 16 B for the one key whose insert work is pending, and
// the work owed before the image's write, the flushing key's insert and
// then the serialization, becomes work the instance's device waits do. A
// probe of a held image's page reads it in DRAM (PendingProbes), counted
// as a flash probe. Wait does the owed work in the gap it waits through,
// as much as fits and in order, and WriteBehind issues the write only once
// none is left, without waiting for it: the clock stays, the device's
// runs on, the footprint falls back, and the write epoch does not move,
// since no answer changes (a read run and its hot-entry cache survive). A
// second flush lands the held set's remaining work as a plain advance and
// writes it first, and Flush writes everything and waits for it.
func TestWriteBehind(t *testing.T) {
	cfg, clock, dev, devClock := behindConfig(t)
	b := mustNew(t, cfg)
	ins, ser := b.cfg.CPU.BufferInsert, b.cfg.CPU.FlushSerialize
	m0 := b.MemoryFootprint()
	next := uint64(1)
	insertUntilFlushes(t, b, &next, 1)
	held := m0
	held.PendingBytes += int64(cfg.BufferBytes) + 16
	if m := b.MemoryFootprint(); m != held {
		t.Fatalf("footprint with one image held %+v; want %+v", m, held)
	}
	if st, c := b.Stats(), dev.Counters(); c.Writes != 0 || st.FlushCPULanded != 0 || st.FlushCPUHidden != 0 || st.InsertCPUHidden != 0 {
		t.Fatalf("a flushing insert wrote %d images, landed %v and hid %v of flush work and hid %v of insert work; want none",
			c.Writes, st.FlushCPULanded, st.FlushCPUHidden, st.InsertCPUHidden)
	}
	// Each one-key Insert landed the insert work its predecessor left.
	if st := b.Stats(); st.InsertCPULanded != ins*time.Duration(st.Inserts-1) || b.work != (pendingWork{owedInserts: ins, serialize: ser}) {
		t.Fatalf("after %d one-key inserts: %v of insert work landed, %+v pending; want %v landed, the last insert and the serialization owed",
			st.Inserts, st.InsertCPULanded, b.work, ins*time.Duration(st.Inserts-1))
	}

	key := flashKey(t, b, next)
	probes, reads := b.Stats().PendingProbes, dev.Counters().Reads
	res, err := b.Lookup(key)
	if err != nil || !res.Found || res.Value != key || res.FlashReads != 1 {
		t.Fatalf("Lookup(%d) = %+v, %v; want a hit on its held image", key, res, err)
	}
	if p, r := b.Stats().PendingProbes-probes, dev.Counters().Reads-reads; p != 1 || r != 0 {
		t.Fatalf("a held image's probe counted %d held probes and read %d device pages; want 1 and 0", p, r)
	}

	owed := ins + ser
	b.Wait(clock.Now() + owed/2)
	if err := b.WriteBehind(); err != nil {
		t.Fatal(err)
	}
	if st, w := b.Stats(), dev.Counters().Writes; st.InsertCPUHidden != ins || st.FlushCPUHidden != owed/2-ins || w != 0 {
		t.Fatalf("after a wait of half the owed work: %v of insert and %v of flush work hidden, %d writes; want %v, %v and none",
			st.InsertCPUHidden, st.FlushCPUHidden, w, ins, owed/2-ins)
	}
	b.Wait(clock.Now() + owed)
	if h := b.Stats().FlushCPUHidden; h != ser {
		t.Fatalf("after a wait longer than the work left: %v hidden, want %v", h, ser)
	}
	now, epoch := clock.Now(), b.epoch
	if err := b.WriteBehind(); err != nil {
		t.Fatal(err)
	}
	if b.epoch != epoch {
		t.Fatalf("WriteBehind moved the write epoch %d → %d", epoch, b.epoch)
	}
	if w := dev.Counters().Writes; w != 1 || clock.Now() != now || devClock.Now() <= now {
		t.Fatalf("WriteBehind: %d writes, clock %v → %v, device clock %v; want one write running behind an unmoved clock",
			w, now, clock.Now(), devClock.Now())
	}
	if m := b.MemoryFootprint(); m != m0 {
		t.Fatalf("footprint after the write %+v; want %+v", m, m0)
	}
	probes, reads = b.Stats().PendingProbes, dev.Counters().Reads
	if res, err := b.Lookup(key); err != nil || !res.Found || res.Value != key || res.FlashReads != 1 {
		t.Fatalf("Lookup(%d) after the write = %+v, %v", key, res, err)
	}
	if p, r := b.Stats().PendingProbes-probes, dev.Counters().Reads-reads; p != 0 || r != 1 {
		t.Fatalf("a written image's probe counted %d held probes and read %d device pages; want 0 and 1", p, r)
	}

	insertUntilFlushes(t, b, &next, 2)
	insertUntilFlushes(t, b, &next, 3)
	if st, w := b.Stats(), dev.Counters().Writes; st.FlushCPULanded != ser || w != 2 {
		t.Fatalf("a second flush landed %v of flush work and wrote %d images in all; want %v and 2", st.FlushCPULanded, w, ser)
	}
	if m := b.MemoryFootprint(); m.PendingBytes != int64(cfg.BufferBytes)+16 {
		t.Fatalf("%d bytes held after the second flush; want one image's %d and one pending key's 16", m.PendingBytes, cfg.BufferBytes)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if m := b.MemoryFootprint(); m.PendingBytes != 0 || devClock.Now() > clock.Now() {
		t.Fatalf("after Flush: %d bytes held, device clock %v ahead of the clock %v", m.PendingBytes, devClock.Now(), clock.Now())
	}
	if landed := ser * time.Duration(st.Flushes-1); st.FlushCPULanded != landed || st.FlushCPUHidden != ser {
		t.Fatalf("after Flush: %v landed and %v hidden of %d flushes' work; want %v and %v", st.FlushCPULanded, st.FlushCPUHidden, st.Flushes, landed, ser)
	}
	if all := ins * time.Duration(st.Inserts); st.InsertCPUHidden+st.InsertCPULanded != all || st.InsertCPUHidden != ins {
		t.Fatalf("after Flush: %v hidden and %v landed of %d inserts' work; want %v hidden of %v", st.InsertCPUHidden, st.InsertCPULanded, st.Inserts, ins, all)
	}
}

// TestDeferredInserts pins where a put's insert work lands on a device
// with a timeline of its own. An InsertBatch acknowledges once its keys
// are in their staging filters: the call advances the clock by their
// CPU.BloomAdd alone, and their CPU.BufferInsert is pending work, 16 B a
// key in PendingBytes, while every answer is already the inserted one. A
// lookup that probes its buffer meanwhile also pays CPU.BatchCoalesce to
// check the pending set. Wait does the work in its gaps, and the next
// InsertBatch, DeleteBatch or Flush first lands what is left as a plain
// advance. In a call that flushes, the inserts before the flush are owed
// before the held image's write, and those after it do not delay the
// write.
func TestDeferredInserts(t *testing.T) {
	cfg, clock, dev, _ := behindConfig(t)
	b := mustNew(t, cfg)
	cpu := b.cfg.CPU
	keys := func(from, n uint64) []uint64 {
		k := make([]uint64, n)
		for i := range k {
			k[i] = from + uint64(i)
		}
		return k
	}
	put := func(ks []uint64) time.Duration {
		t.Helper()
		t0 := clock.Now()
		if err := b.InsertBatch(ks, ks, nil); err != nil {
			t.Fatal(err)
		}
		return clock.Now() - t0
	}
	lookup := func(k uint64) time.Duration {
		t.Helper()
		t0 := clock.Now()
		if res, err := b.Lookup(k); err != nil || !res.Found || res.Value != k {
			t.Fatalf("Lookup(%d) = %+v, %v; want a hit", k, res, err)
		}
		return clock.Now() - t0
	}
	m0 := b.MemoryFootprint()

	const n = 40
	if adv := put(keys(1, n)); adv != n*cpu.BloomAdd {
		t.Fatalf("a flush-free put of %d keys advanced the clock %v; want their Bloom adds' %v", n, adv, n*cpu.BloomAdd)
	}
	if st, m := b.Stats(), b.MemoryFootprint(); st.InsertCPULanded != 0 || b.work.inserts != n*cpu.BufferInsert || m.PendingBytes != m0.PendingBytes+16*n {
		t.Fatalf("after the put: %v landed, %+v pending, %d bytes pending; want none landed, %v of inserts pending, %d bytes",
			st.InsertCPULanded, b.work, m.PendingBytes, n*cpu.BufferInsert, 16*n)
	}
	// No table has an incarnation yet, so a lookup queries no filter.
	if adv := lookup(1); adv != cpu.BufferLookup+cpu.BatchCoalesce {
		t.Fatalf("a buffered key's lookup with inserts pending advanced the clock %v; want %v", adv, cpu.BufferLookup+cpu.BatchCoalesce)
	}
	b.Wait(clock.Now() + 10*cpu.BufferInsert)
	if h := b.Stats().InsertCPUHidden; h != 10*cpu.BufferInsert {
		t.Fatalf("a wait of ten inserts' work hid %v of it", h)
	}
	if m := b.MemoryFootprint(); m.PendingBytes != m0.PendingBytes+16*(n-10) {
		t.Fatalf("%d bytes pending after ten inserts' work; want %d", m.PendingBytes, 16*(n-10))
	}
	if adv := put(keys(n+1, 1)); adv != (n-10)*cpu.BufferInsert+cpu.BloomAdd {
		t.Fatalf("the next put advanced the clock %v; want the %d inserts left and its Bloom add, %v",
			adv, n-10, (n-10)*cpu.BufferInsert+cpu.BloomAdd)
	}
	t0 := clock.Now()
	if err := b.Delete(2); err != nil {
		t.Fatal(err)
	}
	if adv := clock.Now() - t0; adv != cpu.BufferInsert+cpu.BufferInsert {
		t.Fatalf("a delete after a one-key put advanced the clock %v; want the put's insert and its own, %v", adv, 2*cpu.BufferInsert)
	}
	if adv := lookup(3); adv != cpu.BufferLookup {
		t.Fatalf("a buffered key's lookup with nothing pending advanced the clock %v; want %v", adv, cpu.BufferLookup)
	}

	// A put that flushes: its inserts up to the flush are owed before the
	// held image's write, the rest only pending.
	next := uint64(n + 2)
	for b.Stats().Flushes == 0 {
		put([]uint64{next, next + 1, next + 2})
		next += 3
	}
	w := b.work
	if w.owedInserts == 0 || w.serialize != cpu.FlushSerialize || w.owedInserts+w.inserts != 3*cpu.BufferInsert {
		t.Fatalf("after a flushing three-key put: %+v pending; want the serialization and the put's inserts, those up to the flush owed", w)
	}
	b.Wait(clock.Now() + w.owed())
	if err := b.WriteBehind(); err != nil {
		t.Fatal(err)
	}
	if c := dev.Counters(); c.Writes != 1 || b.work.inserts != w.inserts {
		t.Fatalf("after a wait of the owed work: %d writes, %+v pending; want the held write issued with %v of inserts still pending",
			c.Writes, b.work, w.inserts)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if m := b.MemoryFootprint(); b.work != (pendingWork{}) || m.PendingBytes != 0 {
		t.Fatalf("after Flush: %+v pending, %d bytes", b.work, m.PendingBytes)
	}
	if all := cpu.BufferInsert * time.Duration(st.Inserts); st.InsertCPUHidden+st.InsertCPULanded != all {
		t.Fatalf("%v hidden and %v landed of %d inserts' work %v", st.InsertCPUHidden, st.InsertCPULanded, st.Inserts, all)
	}
}

// TestWriteBehindFailure fails the write of a held image whose key has an
// older version on the device, after the insert that put the newer one
// returned. WriteBehind returns the fault, the image is dropped (see
// superTable.dropFailedImage): the key misses, never answering with the
// older version, until it is inserted again.
func TestWriteBehindFailure(t *testing.T) {
	cfg, clock, dev, _ := behindConfig(t)
	b := mustNew(t, cfg)
	next := uint64(1)
	insertUntilFlushes(t, b, &next, 1)
	key := flashKey(t, b, next)
	if err := b.Flush(); err != nil { // the key's first version is on the device
		t.Fatal(err)
	}
	if err := b.Insert(key, key+1); err != nil {
		t.Fatal(err)
	}
	for { // until the newer version is in a held image
		n := b.Stats().Flushes
		insertUntilFlushes(t, b, &next, n+1)
		if res, err := b.Lookup(key); err != nil || res.Value != key+1 {
			t.Fatalf("Lookup(%d) = %+v, %v; want its newer version", key, res, err)
		} else if res.FlashReads == 1 {
			break
		}
	}
	heal := failWrites(dev)
	b.Wait(clock.Now() + b.work.owed())
	if err := b.WriteBehind(); !errors.Is(err, errInjected) {
		t.Fatalf("WriteBehind: err = %v, want the injected fault", err)
	}
	heal()
	if res, err := b.Lookup(key); err != nil || res.Found {
		t.Fatalf("Lookup(%d) after its held image was lost = %+v, %v; want a miss", key, res, err)
	}
	if m := b.MemoryFootprint(); m.PendingBytes != 0 {
		t.Fatalf("%d bytes still held after the failed write", m.PendingBytes)
	}
	if err := b.Insert(key, key+2); err != nil {
		t.Fatal(err)
	}
	if res, err := b.Lookup(key); err != nil || !res.Found || res.Value != key+2 {
		t.Fatalf("Lookup(%d) after a new insert = %+v, %v; want %d", key, res, err, key+2)
	}
}
