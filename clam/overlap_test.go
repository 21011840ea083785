package clam

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// A shard's value-log device runs on its own timeline (see shard.issueLog
// and shard.join): an append overlaps the index work of its put chunk,
// and a probing round's record reads overlap the next round's probes. Its
// index device runs on another (core.Config.DeviceClock): a lookup
// batch's first probes overlap the rest of its in-memory phase. These
// tests pin the rules of both overlaps.

// shardTimes is a shard's clock reading and its two devices' busy time.
type shardTimes struct{ clock, index, log time.Duration }

func (s *shard) times() shardTimes {
	return shardTimes{s.clock.Now(), s.dev.Counters().BusyTime, s.vlog.Device().Counters().BusyTime}
}

func (a shardTimes) sub(b shardTimes) shardTimes {
	return shardTimes{a.clock - b.clock, a.index - b.index, a.log - b.log}
}

func (a shardTimes) add(b shardTimes) shardTimes {
	return shardTimes{a.clock + b.clock, a.index + b.index, a.log + b.log}
}

func snapshotTimes(shards []*shard) []shardTimes {
	ts := make([]shardTimes, len(shards))
	for i, sh := range shards {
		ts[i] = sh.times()
	}
	return ts
}

// requireJoined fails unless every shard's index clock is at or behind
// its shard clock, as it must be between chunk calls, and its log clock
// is too, or, after a put call that began at the snapshot before (nil
// after any other call), is ahead by at most the log busy time the call
// added: a put chunk acknowledges while its append still runs.
func requireJoined(t *testing.T, shards []*shard, after string, before []shardTimes) {
	t.Helper()
	for i, sh := range shards {
		c := sh.clock.Now()
		if x := sh.bh.Config().DeviceClock.Now(); x > c {
			t.Fatalf("after %s: shard %d's index clock %v is ahead of its clock %v", after, i, x, c)
		}
		var appended time.Duration
		if before != nil {
			appended = sh.times().log - before[i].log
		}
		if l := sh.logClock.Now(); l > c+appended {
			t.Fatalf("after %s: shard %d's log clock %v is ahead of its clock %v by more than the call's %v of appends",
				after, i, l, c, appended)
		}
	}
}

// TestValueLogOverlapWindows runs dedup merge windows on wrapped logs and
// checks, after every call, that each shard joined its index timeline and
// its log timeline, but for a put's append in flight, and that between
// the ends of two GetBatch calls, where every shard is joined to both,
// each shard's clock advanced by at least each of its devices' busy time:
// overlap hides a device's time behind the other device's or the CPU's,
// never outside the shard's own span. It logs shard 0's mean clock
// advance and device busy time per window.
func TestValueLogOverlapWindows(t *testing.T) {
	w := newDedupWindow(t, flashIndexLogs)
	const windows = 100
	var get, put shardTimes
	joined := snapshotTimes(w.s.shards)
	for range windows {
		t0 := snapshotTimes(w.s.shards)
		w.lookup(t)
		requireJoined(t, w.s.shards, "GetBatch", nil)
		t1 := snapshotTimes(w.s.shards)
		w.insert(t)
		requireJoined(t, w.s.shards, "PutBatch", t1)
		t2 := snapshotTimes(w.s.shards)
		for i := range t1 {
			if d := t1[i].sub(joined[i]); d.clock < d.index || d.clock < d.log {
				t.Fatalf("window %d, shard %d: clock advanced %v, below its index busy %v or log busy %v",
					w.window, i, d.clock, d.index, d.log)
			}
		}
		joined = t1
		get = get.add(t1[0].sub(t0[0]))
		put = put.add(t2[0].sub(t1[0]))
	}
	per := func(d time.Duration) string { return fmt.Sprintf("%.3f ms", float64(d)/windows/1e6) }
	t.Logf("shard 0 per window: get advance %s (index busy %s, log busy %s); put advance %s (index busy %s, log busy %s)",
		per(get.clock), per(get.index), per(get.log), per(put.clock), per(put.index), per(put.log))
	all := get.add(put)
	t.Logf("shard 0 per window: clock %s, index busy %s, log busy %s",
		per(all.clock), per(all.index), per(all.log))
}

// overlapStore is the one-shard store the chunk-level overlap tests use.
func overlapStore(t *testing.T) *CLAM {
	return openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(512<<10), WithBufferKB(16),
		WithValueLog(4<<20), WithSeed(21))
}

func overlapKey(i int) []byte { return []byte(fmt.Sprintf("overlap-key-%05d", i)) }

// putUntilFlush issues 32-key PutBatch calls of fresh keys, checking
// the timelines after each, until one both flushes an index buffer and
// writes value-log pages, and returns that call's number and shard times.
func putUntilFlush(t *testing.T, c *CLAM) (int, shardTimes) {
	t.Helper()
	sh := c.shards[0]
	val := make([]byte, 100)
	keys, vals := make([][]byte, 32), make([][]byte, 32)
	for call := 0; call < 1000; call++ {
		for j := range keys {
			keys[j], vals[j] = overlapKey(call*len(keys)+j), val
		}
		flushes, before := c.Stats().Core.Flushes, sh.times()
		if err := c.PutBatch(context.Background(), keys, vals); err != nil {
			t.Fatal(err)
		}
		requireJoined(t, c.shards, "PutBatch", []shardTimes{before})
		d := sh.times().sub(before)
		if c.Stats().Core.Flushes > flushes && d.index > 0 && d.log > 0 {
			return call, d
		}
	}
	t.Fatal("no PutBatch flushed the index and wrote the log")
	return 0, shardTimes{}
}

// TestPutChunkOverlap pins a byte PutBatch chunk whose flush writes the
// index device while its append writes a whole erase block to the
// value-log device. The chunk waits for its flush write, not for its
// append: it advances the clock by at least its index busy time, by less
// than its log busy time, and so by less than the serial sum it advanced
// by before the log had its own timeline, captured below, and it leaves
// the log clock ahead.
func TestPutChunkOverlap(t *testing.T) {
	c := overlapStore(t)
	call, d := putUntilFlush(t, c)
	sh := c.shards[0]
	lead := sh.logClock.Now() - sh.clock.Now()
	// Captured with the value-log device on the shard clock: call 262
	// advanced it by 3,398,240 ns, its 1,314,112 ns of log writes in series
	// with the chunk's CPU and its 478,528 ns flush write.
	const serialCall, serialAdvance = 262, 3398240 * time.Nanosecond
	t.Logf("call %d: clock advanced %v; index busy %v, log busy %v, the log running on %v past the acknowledgement (serial: %v)",
		call, d.clock, d.index, d.log, lead, serialAdvance)
	if call != serialCall {
		t.Fatalf("call %d flushed first; the serial capture is of call %d", call, serialCall)
	}
	if d.clock < d.index || d.clock >= d.log || d.clock >= serialAdvance || lead <= 0 {
		t.Errorf("clock advanced %v: want at least the index busy %v, below the log busy %v and the serial %v, with the log still running (%v)",
			d.clock, d.index, d.log, serialAdvance, lead)
	}
}

// TestOneKeyGetTimeline pins one-key Gets: with one hit there is nothing
// to overlap, so each advances the clock by the serial sum of its reads,
// the constants captured before the log had its own timeline, plus
// whatever remains of an earlier put's append, which its record read
// queues behind. Right after the put that flushed, a Get of a flushed key
// waits for that put's value-log write; a key still in the DRAM buffer
// then pays its Bloom query, which every lookup in a super table with
// live incarnations runs before its buffer probe, and reads its record
// alone, and after idle time the flushed key costs its serial sum again. Each Get follows a write, the put or a delete of
// a key never put, so it starts no read run: the hot-entry cache neither
// answers nor fills, and its reads are the ones timed.
func TestOneKeyGetTimeline(t *testing.T) {
	c := overlapStore(t)
	call, _ := putUntilFlush(t, c)
	for i, g := range []struct {
		key  int
		idle time.Duration
		want time.Duration
	}{
		{0, 0, 496864 * time.Nanosecond},                     // flushed: one index probe, then the record read behind the write
		{call*32 - 1, 0, 154768 * time.Nanosecond},           // buffered: the Bloom query, then the record read
		{0, 10 * time.Millisecond, 307536 * time.Nanosecond}, // flushed, the log idle: the serial sum
	} {
		if i > 0 {
			if err := c.DeleteU64(1); err != nil {
				t.Fatal(err)
			}
		}
		c.Clock().Advance(g.idle)
		before := c.Clock().Now()
		if _, ok, err := c.Get(overlapKey(g.key)); err != nil || !ok {
			t.Fatalf("Get(%d): found %t, err %v", g.key, ok, err)
		}
		requireJoined(t, c.shards, "Get", nil)
		if d := c.Clock().Now() - before; d != g.want {
			t.Errorf("Get(%d) after %v idle advanced the clock %v; want %v", g.key, g.idle, d, g.want)
		}
	}
}

// openSharedIndexTwin opens the Sharded store opts describe, except that
// each shard's index device runs on its shard clock, as a WithCustomDevice
// index does: the timeline on which a shard's index reads and CPU work add
// up.
func openSharedIndexTwin(t testing.TB, opts ...Option) *Sharded {
	t.Helper()
	cfg := config{seed: 1, shards: 1, batchChunk: defaultBatchChunk}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	n := cfg.shards
	shards := make([]*shard, n)
	for i := range shards {
		po := cfg
		po.flashBytes, po.memoryBytes, po.valueLogBytes = cfg.flashBytes/int64(n), cfg.memoryBytes/int64(n), cfg.valueLogBytes/int64(n)
		po.seed = hashutil.Hash64Seed(uint64(i), cfg.seed)
		po.clock = vclock.New()
		dev, err := newKindDevice(po.device, po.flashBytes, po.clock)
		if err != nil {
			t.Fatal(err)
		}
		po.customDevice = dev
		if shards[i], err = openShard(po); err != nil {
			t.Fatal(err)
		}
	}
	return &Sharded{router: newRouter(shards, n, cfg.batchChunk, cfg.seed)}
}

// TestIndexOverlapWindows runs GetBatchU64 windows of the get-batch-zipf
// benchmark workload's shape (8 shards, 64 MB of Intel flash, 12 MB of
// DRAM, 4096 Zipf(1.1) keys per batch, warmed with 1.25 times the flash's
// entries) on the store and on a twin whose index devices share their
// shard clocks, and checks that the index timeline only moves time: the
// answers and every shard's core counters match the twin's. After every
// call each shard must be joined, and over every window each shard's
// clock must advance by at least its index busy time. The twin's advance
// less its busy time is the window's CPU time, and on at least one shard
// per window the store's advance must fall below that CPU time plus the
// store's busy time: the index reads overlapped phase A.
func TestIndexOverlapWindows(t *testing.T) {
	const (
		flash   = 64 << 20
		entries = flash / 32 // 16-byte entries at 50% cuckoo load
		batch   = 4096
		windows = 20
		zipfS   = 1.1
	)
	opts := []Option{WithDevice(IntelSSD), WithFlash(flash), WithMemory(12 << 20), WithShards(8)}
	s, twin := openShardedT(t, opts...), openSharedIndexTwin(t, opts...)
	keyRange := workload.RangeForLSR(entries, 0.4)
	warm := workload.NewZipfStream(2, zipfS, keyRange)
	keys, vals := make([]uint64, 8192), make([]uint64, 8192)
	for n := 0; n < entries*5/4; n += len(keys) {
		for i := range keys {
			keys[i], vals[i] = warm.Next(), uint64(n+i+1)
		}
		for _, st := range []Store{s, twin} {
			if err := st.PutBatchU64(context.Background(), keys, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireJoined(t, s.shards, "warm-up", nil)
	probe := workload.NewZipfStream(3, zipfS, keyRange)
	probes := make([]uint64, batch)
	times := func(st *Sharded) []shardTimes {
		ts := make([]shardTimes, len(st.shards))
		for i, sh := range st.shards {
			ts[i] = shardTimes{clock: sh.clock.Now(), index: sh.dev.Counters().BusyTime}
		}
		return ts
	}
	var makespan, twinMakespan time.Duration
	for w := range windows {
		for i := range probes {
			probes[i] = probe.Next()
		}
		s0, t0 := times(s), times(twin)
		vals, found, err := s.GetBatchU64(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		requireJoined(t, s.shards, "GetBatchU64", nil)
		twinVals, twinFound, err := twin.GetBatchU64(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(vals, twinVals) || !slices.Equal(found, twinFound) {
			t.Fatalf("window %d: answers differ from the twin's", w)
		}
		s1, t1 := times(s), times(twin)
		overlapped := false
		var most, twinMost time.Duration
		for i := range s1 {
			if a, b := s.shards[i].bh.Stats(), twin.shards[i].bh.Stats(); a != b {
				t.Fatalf("window %d, shard %d: core counters differ from the twin's:\n%+v\n%+v", w, i, a, b)
			}
			d, td := s1[i].sub(s0[i]), t1[i].sub(t0[i])
			if d.clock < d.index {
				t.Fatalf("window %d, shard %d: clock advanced %v, below its index busy %v", w, i, d.clock, d.index)
			}
			cpu := td.clock - td.index
			overlapped = overlapped || d.clock < cpu+d.index
			most, twinMost = max(most, d.clock), max(twinMost, td.clock)
		}
		if !overlapped {
			t.Fatalf("window %d: every shard's clock advanced by at least its CPU time plus its index busy time", w)
		}
		makespan += most
		twinMakespan += twinMost
	}
	t.Logf("mean window makespan %v; with the index devices on the shard clocks %v",
		makespan/windows, twinMakespan/windows)
}

// devRead is one read request an index device served, with its device
// clock reading, which is its submission's start: the fault hook runs
// before the device serves a submission.
type devRead struct {
	off   int64
	start time.Duration
}

// firstProbeStore opens a one-shard kind-opened store holding 2000 flushed
// keys, records every read its index device serves from then on into
// *reads, and returns Lanes of the keys whose one-key GetU64s read
// distinct first probe pages.
func firstProbeStore(t *testing.T, seed uint64) (c *CLAM, flushed []uint64, reads *[]devRead) {
	t.Helper()
	c = openCLAMT(t, WithDevice(IntelSSD), WithFlash(4<<20), WithMemory(512<<10), WithBufferKB(16), WithSeed(seed))
	sh := c.shards[0]
	dev, devClock := sh.dev.(*ssd.SSD), sh.bh.Config().DeviceClock
	lanes := dev.Geometry().Lanes
	keys, vals := make([]uint64, 2000), make([]uint64, 2000)
	for i := range keys {
		keys[i], vals[i] = u64Key(i), uint64(i)+1
	}
	if err := c.PutBatchU64(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	reads = new([]devRead)
	dev.SetFault(func(op storage.Op, off int64, _ int) error {
		if op == storage.OpRead {
			*reads = append(*reads, devRead{off, devClock.Now()})
		}
		return nil
	})
	t.Cleanup(func() { dev.SetFault(nil) })
	// A one-key GetU64 of a flushed key reads its first probe page first.
	pages := map[int64]bool{}
	for _, k := range keys {
		*reads = (*reads)[:0]
		if _, ok, err := c.GetU64(k); err != nil || !ok {
			t.Fatalf("GetU64(%#x): found %t, err %v", k, ok, err)
		}
		if len(*reads) > 0 && !pages[(*reads)[0].off] {
			pages[(*reads)[0].off] = true
			flushed = append(flushed, k)
			if len(flushed) == lanes {
				return c, flushed, reads
			}
		}
	}
	t.Fatalf("found %d flushed keys with distinct first pages, want %d", len(flushed), lanes)
	return nil, nil, nil
}

// requireOneKeyAnswers fails unless every position of a GetBatchU64 of
// keys answered (got, found) equals a one-key GetU64.
func requireOneKeyAnswers(t *testing.T, c *CLAM, keys, got []uint64, found []bool) {
	t.Helper()
	for j, k := range keys {
		v, ok, err := c.GetU64(k)
		if err != nil {
			t.Fatal(err)
		}
		if got[j] != v || found[j] != ok {
			t.Fatalf("position %d: (%d, %t), one-key GetU64 (%d, %t)", j, got[j], found[j], v, ok)
		}
	}
}

// TestRepeatsDoNotDelayFirstProbes sends a one-shard kind-opened store one
// GetBatchU64 of Lanes flash-resident keys, whose first probe pages are
// distinct, followed by 401 positions of one buffered key. The repeats'
// dedupe charges land where phase A reaches them, so the index device's
// first submission, the Lanes first pages, must start once the first
// keys' phase-A charges have landed, not after 400 CPU.BatchCoalesce
// charges. Every position must equal a one-key GetU64.
func TestRepeatsDoNotDelayFirstProbes(t *testing.T) {
	c, batch, reads := firstProbeStore(t, 37)
	lanes := len(batch)
	buffered := u64Key(2000)
	for range 401 {
		batch = append(batch, buffered)
	}
	// The one-key calls that chose the keys were a read run, which cached
	// every key of the batch; a write ends it, so the batch reads the
	// index.
	if err := c.PutU64(buffered, 7); err != nil {
		t.Fatal(err)
	}

	*reads = (*reads)[:0]
	start := c.Clock().Now()
	got, found, err := c.GetBatchU64(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(*reads) == 0 {
		t.Fatal("the batch read nothing")
	}
	cpu := c.shards[0].bh.Config().CPU
	phaseA := time.Duration(lanes) * (cpu.BufferLookup + cpu.BloomQuery)
	first := (*reads)[0].start - start
	t.Logf("first submission at +%v; the first %d keys' phase A costs %v, 400 repeats %v",
		first, lanes, phaseA, 400*cpu.BatchCoalesce)
	if first > phaseA {
		t.Errorf("the index device's first submission started at +%v, after the first %d keys' phase-A charges (%v)",
			first, lanes, phaseA)
	}
	requireOneKeyAnswers(t, c, batch, got, found)
}

// TestStagingScreenSpeedsRoundOne sends a one-shard kind-opened store one
// GetBatchU64 of 400 distinct absent keys that the Bloom filters exclude
// from every incarnation, followed by Lanes flash-resident keys whose
// first probe pages are distinct; the buffers hold neither. Phase A
// queries each key's Bloom bank first, and the staging filter rules every
// key out of its buffer, so none is charged CPU.BufferLookup: the call
// counts 400+Lanes screened probes, and the index device's last round-1
// submission must start once the call's Bloom queries have landed, before
// the buffer-first order (CPU.BufferLookup, then the query, per key)
// would have gathered the first flash key's page. Every position must
// equal a one-key GetU64.
func TestStagingScreenSpeedsRoundOne(t *testing.T) {
	const absent = 400
	c, flushed, reads := firstProbeStore(t, 37)
	lanes := len(flushed)
	// An absent key whose one-key GetU64 reads no page is one the Bloom
	// filters exclude.
	var batch []uint64
	for i := 2000; len(batch) < absent; i++ {
		*reads = (*reads)[:0]
		if _, ok, err := c.GetU64(u64Key(i)); err != nil || ok {
			t.Fatalf("GetU64 of absent key %d: found %t, err %v", i, ok, err)
		}
		if len(*reads) == 0 {
			batch = append(batch, u64Key(i))
		}
	}
	batch = append(batch, flushed...)
	// A write ends the read run of the one-key calls above; a put leaves
	// no pending delete, which would make its super table probe its buffer.
	if err := c.PutU64(u64Key(1<<20), 1); err != nil {
		t.Fatal(err)
	}

	*reads = (*reads)[:0]
	screened := c.Stats().Core.ScreenedProbes
	start := c.Clock().Now()
	got, found, err := c.GetBatchU64(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(*reads) != lanes {
		t.Fatalf("the batch read %d pages, want its %d flash keys' first pages", len(*reads), lanes)
	}
	if d := c.Stats().Core.ScreenedProbes - screened; d != absent+uint64(lanes) {
		t.Errorf("the batch skipped %d buffer probes, want all %d", d, absent+lanes)
	}
	var last time.Duration
	for _, r := range *reads {
		last = max(last, r.start-start)
	}
	cpu := c.shards[0].bh.Config().CPU
	queries := time.Duration(absent+lanes) * cpu.BloomQuery
	bufferFirst := time.Duration(absent+1) * (cpu.BufferLookup + cpu.BloomQuery)
	t.Logf("last round-1 submission at +%v; the Bloom queries cost %v; buffer first, the first flash key's page would be gathered at +%v",
		last, queries, bufferFirst)
	if last > queries || last >= bufferFirst {
		t.Errorf("the index device's last round-1 submission started at +%v, after the call's Bloom queries (+%v)",
			last, queries)
	}
	requireOneKeyAnswers(t, c, batch, got, found)
}
