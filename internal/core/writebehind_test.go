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
// of its own. A flushing insert writes nothing and charges no CPU: its
// image is held in DRAM, which MemoryFootprint counts in PendingBytes, and
// its serialization becomes work the instance's device waits do. A probe
// of a held image's page reads it in DRAM (PendingProbes), counted as a
// flash probe. Wait does the work in the gap it waits through, as much as
// fits, and WriteBehind issues the write only once no work is left,
// without waiting for it: the clock stays, the device's runs on, the
// footprint falls back, and the write epoch does not move, since no answer
// changes (a read run and its hot-entry cache survive). A second flush lands the held set's remaining
// work as a plain advance and writes it first, and Flush writes
// everything and waits for it.
func TestWriteBehind(t *testing.T) {
	cfg, clock, dev, devClock := behindConfig(t)
	b := mustNew(t, cfg)
	work := b.cfg.CPU.FlushSerialize
	m0 := b.MemoryFootprint()
	next := uint64(1)
	insertUntilFlushes(t, b, &next, 1)
	held := m0
	held.PendingBytes += int64(cfg.BufferBytes)
	if m := b.MemoryFootprint(); m != held {
		t.Fatalf("footprint with one image held %+v; want %+v", m, held)
	}
	if st, c := b.Stats(), dev.Counters(); c.Writes != 0 || st.FlushCPULanded != 0 || st.FlushCPUHidden != 0 {
		t.Fatalf("a flushing insert wrote %d images, landed %v and hid %v of flush work; want none", c.Writes, st.FlushCPULanded, st.FlushCPUHidden)
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

	b.Wait(clock.Now() + work/2)
	if err := b.WriteBehind(); err != nil {
		t.Fatal(err)
	}
	if h, w := b.Stats().FlushCPUHidden, dev.Counters().Writes; h != work/2 || w != 0 {
		t.Fatalf("after a wait of half the work: %v hidden, %d writes; want %v and none", h, w, work/2)
	}
	b.Wait(clock.Now() + work)
	if h := b.Stats().FlushCPUHidden; h != work {
		t.Fatalf("after a wait longer than the work left: %v hidden, want %v", h, work)
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
	if st, w := b.Stats(), dev.Counters().Writes; st.FlushCPULanded != work || w != 2 {
		t.Fatalf("a second flush landed %v of flush work and wrote %d images in all; want %v and 2", st.FlushCPULanded, w, work)
	}
	if m := b.MemoryFootprint(); m.PendingBytes != int64(cfg.BufferBytes) {
		t.Fatalf("%d bytes held after the second flush; want one image's %d", m.PendingBytes, cfg.BufferBytes)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if m := b.MemoryFootprint(); m.PendingBytes != 0 || devClock.Now() > clock.Now() {
		t.Fatalf("after Flush: %d bytes held, device clock %v ahead of the clock %v", m.PendingBytes, devClock.Now(), clock.Now())
	}
	if landed := work * time.Duration(st.Flushes-1); st.FlushCPULanded != landed || st.FlushCPUHidden != work {
		t.Fatalf("after Flush: %v landed and %v hidden of %d flushes' work; want %v and %v", st.FlushCPULanded, st.FlushCPUHidden, st.Flushes, landed, work)
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
	b.Wait(clock.Now() + b.cfg.CPU.FlushSerialize)
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
