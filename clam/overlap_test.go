package clam

import (
	"context"
	"fmt"
	"math/rand"
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

// shardTimes is a shard's clock reading and the busy time of its devices:
// the index device, the value-log partition of the index SSD, on the
// index device's timeline (0 for a one-member log), and the log SSD.
type shardTimes struct{ clock, index, part, log time.Duration }

// logMembers returns a shard's value-log devices: the log SSD, and the
// index SSD's log partition when the log is striped over both (nil
// otherwise).
func (s *shard) logMembers() (logSSD, part storage.Device) {
	if len(s.logs) == 2 {
		part = s.logs[1].dev
	}
	return s.logs[0].dev, part
}

func (s *shard) times() shardTimes {
	logSSD, part := s.logMembers()
	t := shardTimes{clock: s.clock.Now(), index: s.dev.Counters().BusyTime, log: logSSD.Counters().BusyTime}
	if part != nil {
		t.part = part.Counters().BusyTime
	}
	return t
}

// indexSSD is the busy time of the index SSD: its index device's and its
// value-log partition's, which share one timeline.
func (a shardTimes) indexSSD() time.Duration { return a.index + a.part }

func (a shardTimes) sub(b shardTimes) shardTimes {
	return shardTimes{a.clock - b.clock, a.index - b.index, a.part - b.part, a.log - b.log}
}

func (a shardTimes) add(b shardTimes) shardTimes {
	return shardTimes{a.clock + b.clock, a.index + b.index, a.part + b.part, a.log + b.log}
}

func snapshotTimes(shards []*shard) []shardTimes {
	ts := make([]shardTimes, len(shards))
	for i, sh := range shards {
		ts[i] = sh.times()
	}
	return ts
}

// requireJoined fails unless every shard's index clock and log clock are
// at or behind its shard clock, as they must be between chunk calls, or,
// after a put call that began at the snapshot before (nil after any other
// call), each is ahead by at most the value-log busy time the call added
// on that SSD: a put chunk acknowledges while its append still runs.
func requireJoined(t *testing.T, shards []*shard, after string, before []shardTimes) {
	t.Helper()
	for i, sh := range shards {
		c := sh.clock.Now()
		var part, appended time.Duration
		if before != nil {
			d := sh.times().sub(before[i])
			part, appended = d.part, d.log
		}
		if x := sh.bh.Config().DeviceClock.Now(); x > c+part {
			t.Fatalf("after %s: shard %d's index clock %v is ahead of its clock %v by more than the call's %v of appends",
				after, i, x, c, part)
		}
		if l := sh.logs[0].clock.Now(); l > c+appended {
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
			if d := t1[i].sub(joined[i]); d.clock < d.indexSSD() || d.clock < d.log {
				t.Fatalf("window %d, shard %d: clock advanced %v, below its index SSD's busy %v or its log SSD's %v",
					w.window, i, d.clock, d.indexSSD(), d.log)
			}
		}
		joined = t1
		get = get.add(t1[0].sub(t0[0]))
		put = put.add(t2[0].sub(t1[0]))
	}
	per := func(d time.Duration) string { return fmt.Sprintf("%.3f ms", float64(d)/windows/1e6) }
	t.Logf("shard 0 per window: get advance %s (index busy %s, index SSD's log busy %s, log SSD busy %s); put advance %s (%s, %s, %s)",
		per(get.clock), per(get.index), per(get.part), per(get.log), per(put.clock), per(put.index), per(put.part), per(put.log))
	all := get.add(put)
	t.Logf("shard 0 per window: clock %s, index SSD busy %s, log SSD busy %s",
		per(all.clock), per(all.indexSSD()), per(all.log))
}

// overlapStore is the one-shard store the chunk-level overlap tests use.
func overlapStore(t *testing.T) *CLAM {
	return openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(512<<10), WithBufferKB(16),
		WithValueLog(4<<20), WithSeed(21))
}

func overlapKey(i int) []byte { return []byte(fmt.Sprintf("overlap-key-%05d", i)) }

// putUntilFlush issues 32-key PutBatch calls of fresh keys, checking
// the timelines after each, until one both flushes an index buffer and
// writes value-log pages to the SSD that log picks out of the call's
// shard times, and returns that call's number and shard times.
func putUntilFlush(t *testing.T, c *CLAM, log func(d shardTimes) time.Duration) (int, shardTimes) {
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
		if c.Stats().Core.Flushes > flushes && d.index > 0 && log(d) > 0 {
			return call, d
		}
	}
	t.Fatal("no PutBatch flushed the index and wrote the log")
	return 0, shardTimes{}
}

// onLogSSD and onPart pick a call's value-log busy time on the log SSD
// and on the index SSD's log partition.
func onLogSSD(d shardTimes) time.Duration { return d.log }
func onPart(d shardTimes) time.Duration   { return d.part }

// TestPutChunkOverlap pins byte PutBatch chunks whose flush writes the
// index device while their append writes a whole erase block of the
// value log. A chunk whose append lands on the log SSD waits for its
// flush write, not for its append: it advances the clock by at least its
// index busy time and by less than its log busy time, and it leaves the
// log clock ahead. A chunk whose append lands on the index SSD's log
// partition waits for both: the index SSD serves one submission at a
// time, so its flush write queues behind the append.
func TestPutChunkOverlap(t *testing.T) {
	c := overlapStore(t)
	sh := c.shards[0]
	call, d := putUntilFlush(t, c, onLogSSD)
	lead := sh.logs[0].clock.Now() - sh.clock.Now()
	t.Logf("call %d: clock advanced %v; index busy %v, log SSD busy %v, the log running on %v past the acknowledgement",
		call, d.clock, d.index, d.log, lead)
	if d.part != 0 || d.clock < d.index || d.clock >= d.log || lead <= 0 {
		t.Errorf("clock advanced %v: want at least the index busy %v and below the log SSD's busy %v (partition %v), with the log still running (%v)",
			d.clock, d.index, d.log, d.part, lead)
	}
	call, d = putUntilFlush(t, c, onPart)
	t.Logf("call %d: clock advanced %v; index busy %v, partition busy %v", call, d.clock, d.index, d.part)
	if d.log != 0 || d.clock < d.index+d.part {
		t.Errorf("clock advanced %v: want at least the index SSD's busy %v, its flush %v behind its append %v (log SSD %v)",
			d.clock, d.index+d.part, d.index, d.part, d.log)
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
	call, _ := putUntilFlush(t, c, onLogSSD)
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

// TestLentDedupeWindows runs GetBatchU64 windows of the get-batch-zipf
// benchmark workload's shape (8 shards, 64 MB of Intel flash, 12 MB of
// DRAM, 4096 Zipf(1.1) keys per batch, warmed with 1.25 times the flash's
// entries) on the store and on a twin that reads the same per-shard runs
// through its Shard(i) views, one-shard stores that never split a run.
// Lent dedupe moves only which shard's clock pays for a repeat, so the
// answers, every shard's core counters and its LookupLatency.Count must
// match the twin's. In every window some run must split: each owner's
// run holds at least 1.25 mean runs and its clock was at or above the
// mean, each helper's run was below the mean, and each owner's call began
// at or after the instants its helpers' dedupe ended. Over the windows
// the store's makespan must fall below the twin's.
func TestLentDedupeWindows(t *testing.T) {
	const (
		flash   = 64 << 20
		entries = flash / 32 // 16-byte entries at 50% cuckoo load
		batch   = 4096
		windows = 20
		zipfS   = 1.1
		shards  = 8
	)
	ctx := context.Background()
	opts := []Option{WithDevice(IntelSSD), WithFlash(flash), WithMemory(12 << 20), WithShards(shards)}
	s, twin := openShardedT(t, opts...), openShardedT(t, opts...)
	keyRange := workload.RangeForLSR(entries, 0.4)
	warm := workload.NewZipfStream(2, zipfS, keyRange)
	keys, vals := make([]uint64, 8192), make([]uint64, 8192)
	for n := 0; n < entries*5/4; n += len(keys) {
		for i := range keys {
			keys[i], vals[i] = warm.Next(), uint64(n+i+1)
		}
		for _, st := range []Store{s, twin} {
			if err := st.PutBatchU64(ctx, keys, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	clocks := func(st *Sharded) (ts []time.Duration, sum time.Duration) {
		for i := range shards {
			ts = append(ts, st.Shard(i).Clock().Now())
			sum += ts[i]
		}
		return ts, sum
	}
	probe := workload.NewZipfStream(3, zipfS, keyRange)
	probes := make([]uint64, batch)
	got, found := make([]uint64, batch), make([]bool, batch)
	want, wantFound := make([]uint64, batch), make([]bool, batch)
	runs, at := make([][]uint64, shards), make([][]int, shards)
	var makespan, twinMakespan time.Duration
	var lent int
	for w := range windows {
		for i := range probes {
			probes[i] = probe.Next()
		}
		s0, sum := clocks(s)
		t0, _ := clocks(twin)
		g := s.group(probes, nil)
		if err := s.getBatchU64(ctx, g, got, found); err != nil {
			t.Fatal(err)
		}
		requireJoined(t, s.shards, "GetBatchU64", nil)
		if len(g.pieces) == 0 {
			t.Fatalf("window %d: no run split", w)
		}
		run := func(sh int) int { return g.start[sh+1] - g.start[sh] }
		for _, p := range g.pieces {
			switch {
			case !p.done:
				t.Fatalf("window %d: shard %d never forwarded its piece", w, p.helper)
			case 4*shards*run(p.owner) < 5*batch || s0[p.owner]*shards < sum:
				t.Fatalf("window %d: owner %d of a %d-position run, clock %v against the mean %v", w, p.owner, run(p.owner), s0[p.owner], sum/shards)
			case shards*run(p.helper) >= batch:
				t.Fatalf("window %d: helper %d has a %d-position run, not below the mean", w, p.helper, run(p.helper))
			case p.start < p.ready:
				t.Fatalf("window %d: owner %d's call began at %v, before helper %d's dedupe ended at %v", w, p.owner, p.start, p.helper, p.ready)
			}
			lent += p.hi - p.lo
		}
		s.putGroups(g)

		for i := range runs {
			runs[i], at[i] = runs[i][:0], at[i][:0]
		}
		for j, k := range probes {
			i := twin.shardIndex(k)
			runs[i], at[i] = append(runs[i], k), append(at[i], j)
		}
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			v, f, err := twin.Shard(i).GetBatchU64(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			for x, j := range at[i] {
				want[j], wantFound[j] = v[x], f[x]
			}
		}
		if !slices.Equal(got, want) || !slices.Equal(found, wantFound) {
			t.Fatalf("window %d: answers differ from the twin's", w)
		}
		s1, _ := clocks(s)
		t1, _ := clocks(twin)
		var most, twinMost time.Duration
		for i := range shards {
			a, b := s.Shard(i).Stats(), twin.Shard(i).Stats()
			if a.Core != b.Core {
				t.Fatalf("window %d, shard %d: core counters differ from the twin's:\n%+v\n%+v", w, i, a.Core, b.Core)
			}
			if a.LookupLatency.Count != b.LookupLatency.Count {
				t.Fatalf("window %d, shard %d: %d lookup latency samples, the twin %d", w, i, a.LookupLatency.Count, b.LookupLatency.Count)
			}
			most, twinMost = max(most, s1[i]-s0[i]), max(twinMost, t1[i]-t0[i])
		}
		makespan += most
		twinMakespan += twinMost
	}
	if st := s.Stats(); st.LentDedupes != uint64(lent) || twin.Stats().LentDedupes != 0 {
		t.Fatalf("LentDedupes %d, the pieces held %d positions; the twin's %d", st.LentDedupes, lent, twin.Stats().LentDedupes)
	}
	if makespan >= twinMakespan {
		t.Fatalf("mean window makespan %v, not below the twin's %v", makespan/windows, twinMakespan/windows)
	}
	t.Logf("mean window makespan %v, the twin's %v; %d positions lent over %d windows",
		makespan/windows, twinMakespan/windows, lent, windows)
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

// indexSSDSub is one submission to the index SSD: its start on the index
// device's timeline, the device that served it (0 the index device, 1 the
// log partition), and that device's busy time before it.
type indexSSDSub struct {
	start, busy time.Duration
	dev         int
}

// TestIndexSSDServesOneSubmissionAtATime records every submission to a
// shard's index SSD during dedup merge windows, whose GetBatch record
// reads and PutBatch appends on the index SSD's log partition run beside
// the index probes and flushes: each submission must start at or after
// the previous one, from either device, has ended. A submission's end is its start plus its
// device's busy time until that device's next submission.
func TestIndexSSDServesOneSubmissionAtATime(t *testing.T) {
	w := newDedupWindow(t, flashIndexLogs)
	sh := w.s.shards[0]
	_, part := sh.logMembers()
	devClock := sh.bh.Config().DeviceClock
	devs := []*ssd.SSD{sh.dev.(*ssd.SSD), part.(*ssd.SSD)}
	var subs []indexSSDSub
	for i, d := range devs {
		d.SetFault(func(storage.Op, int64, int) error {
			s := indexSSDSub{devClock.Now(), d.Counters().BusyTime, i}
			if n := len(subs); n == 0 || subs[n-1] != s {
				subs = append(subs, s) // a submission's first request
			}
			return nil
		})
	}
	for range 20 {
		w.lookup(t)
		w.insert(t)
	}
	// end returns submission k's end: its device's busy time grows by the
	// submission's service time before that device's next submission.
	end := func(k int) time.Duration {
		s := subs[k]
		next := devs[s.dev].Counters().BusyTime
		for _, o := range subs[k+1:] {
			if o.dev == s.dev {
				next = o.busy
				break
			}
		}
		return s.start + next - s.busy
	}
	var switches int
	for k := 1; k < len(subs); k++ {
		if prev := end(k - 1); subs[k].start < prev {
			t.Fatalf("submission %d (device %d) starts at %v, before submission %d (device %d) ends at %v",
				k, subs[k].dev, subs[k].start, k-1, subs[k-1].dev, prev)
		}
		if subs[k].dev != subs[k-1].dev {
			switches++
		}
	}
	t.Logf("%d submissions to the index SSD, %d switches between its index device and its log partition", len(subs), switches)
	if switches < 20 {
		t.Fatalf("only %d switches between the index SSD's two devices; retune the test", switches)
	}
}

// TestU64StreamLeavesLogAlone runs a stream of every U64 call on a
// kind-opened store, whose value log is striped over its two SSDs, and on
// a twin whose log is too small to stripe: neither log device may see a
// request, the log SSD's clock must not move, and the two stores' clocks,
// core counters and index device counters must agree, so no U64 store's
// timing depends on its log.
func TestU64StreamLeavesLogAlone(t *testing.T) {
	open := func(vlog int64) *CLAM {
		return openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(512<<10), WithBufferKB(16),
			WithValueLog(vlog), WithSeed(23))
	}
	striped, single := open(4<<20), open(128<<10)
	if _, part := striped.shards[0].logMembers(); part == nil {
		t.Fatal("the 4 MB log is not striped")
	}
	ctx := context.Background()
	for _, c := range []*CLAM{striped, single} {
		rng := rand.New(rand.NewSource(24))
		keys := make([]uint64, 256)
		for i := 0; i < 3000; i++ {
			for j := range keys {
				keys[j] = rng.Uint64() % 20000
			}
			var err error
			switch i % 6 {
			case 0:
				err = c.PutBatchU64(ctx, keys, keys)
			case 1:
				_, _, err = c.GetBatchU64(ctx, keys)
			case 2:
				err = c.PutU64(keys[0], keys[1])
			case 3:
				_, _, err = c.GetU64(keys[0])
			case 4:
				err = c.DeleteU64(keys[0])
			default:
				if i%60 == 5 {
					err = c.Flush()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sh := c.shards[0]
		if v := sh.vlog.Device().Counters(); v != (storage.Counters{}) || sh.logs[0].clock.Now() != 0 {
			t.Fatalf("a U64 stream used the value log: %+v, log clock %v", v, sh.logs[0].clock.Now())
		}
	}
	a, b := striped.Stats(), single.Stats()
	if striped.Clock().Now() != single.Clock().Now() || a.Core != b.Core || a.Device != b.Device {
		t.Fatalf("the striped store's clock %v and counters differ from the one-member log's %v",
			striped.Clock().Now(), single.Clock().Now())
	}
}

// TestOneMemberLogs pins which stores keep their value log on one SSD: a
// WithCustomDevice store, whose index device runs on the shard clock, and
// a store whose log is one erase block, too small to give the index SSD's
// partition a unit. A log of two erase blocks is striped, one on each
// SSD, with the capacity it would have on one.
func TestOneMemberLogs(t *testing.T) {
	clock := vclock.New()
	custom := openCLAMT(t, WithCustomDevice(ssd.New(ssd.IntelX18M(), 2<<20, clock)), WithClock(clock),
		WithFlash(2<<20), WithValueLog(4<<20))
	small := openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithValueLog(128<<10))
	two := openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithValueLog(256<<10))
	for _, row := range []struct {
		name    string
		c       *CLAM
		striped bool
		cap     int64
	}{{"custom device", custom, false, 4 << 20}, {"one erase block", small, false, 128 << 10}, {"two erase blocks", two, true, 256 << 10}} {
		sh := row.c.shards[0]
		logSSD, part := sh.logMembers()
		if (part != nil) != row.striped || len(sh.logs) != map[bool]int{false: 1, true: 2}[row.striped] {
			t.Fatalf("%s: log SSD %T, partition %T, %d log members; striped %t", row.name, logSSD, part, len(sh.logs), row.striped)
		}
		if c := sh.vlog.Stats().Capacity; c != row.cap {
			t.Fatalf("%s: log capacity %d, want %d", row.name, c, row.cap)
		}
		if row.striped && (logSSD.Geometry().Capacity != 128<<10 || part.Geometry().Capacity != 128<<10) {
			t.Fatalf("%s: members of %d and %d bytes, want one erase block each", row.name,
				logSSD.Geometry().Capacity, part.Geometry().Capacity)
		}
	}
}
