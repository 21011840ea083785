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

// A kind-opened shard's two SSDs, A and B, each run on a timeline of their
// own, and each holds half the index and half the value log (see
// openShard): a put chunk's append overlaps its index work, a probing
// round's record reads overlap the next round's probes, a lookup batch's
// first probes overlap the rest of its in-memory phase, and an SSD serves
// one submission at a time, whichever structure it is for. These tests
// pin the rules of those overlaps against the timelines: the shard clock
// and each SSD's busy time.

// shardTimes is a shard's clock reading and the busy time of its
// partitions: idx the index's on SSDs A and B, log the value log's on B
// and A, in member order (each 0 where the device has no such member).
type shardTimes struct {
	clock    time.Duration
	idx, log [2]time.Duration
}

func (s *shard) times() shardTimes {
	t := shardTimes{clock: s.clock.Now()}
	for i, p := range s.idx.parts {
		t.idx[i] = p.Counters().BusyTime
	}
	for i, p := range s.logs.parts {
		t.log[i] = p.Counters().BusyTime
	}
	return t
}

// onSSD returns SSD x's (0 for A, 1 for B) index and value-log busy time.
func (a shardTimes) onSSD(x int) (index, log time.Duration) { return a.idx[x], a.log[1-x] }

// busy returns SSD x's busy time: its two partitions', which share its
// timeline.
func (a shardTimes) busy(x int) time.Duration {
	index, log := a.onSSD(x)
	return index + log
}

func (a shardTimes) sub(b shardTimes) shardTimes {
	d := shardTimes{clock: a.clock - b.clock}
	for x := range 2 {
		d.idx[x], d.log[x] = a.idx[x]-b.idx[x], a.log[x]-b.log[x]
	}
	return d
}

func (a shardTimes) add(b shardTimes) shardTimes {
	d := shardTimes{clock: a.clock + b.clock}
	for x := range 2 {
		d.idx[x], d.log[x] = a.idx[x]+b.idx[x], a.log[x]+b.log[x]
	}
	return d
}

func snapshotTimes(shards []*shard) []shardTimes {
	ts := make([]shardTimes, len(shards))
	for i, sh := range shards {
		ts[i] = sh.times()
	}
	return ts
}

// requireJoined fails unless each of every shard's SSD clocks is at or
// behind its shard clock, as they must be between chunk calls, or, after
// a put call that began at the snapshot before (nil after any other
// call), ahead by at most the value-log busy time the call added on that
// SSD: a put chunk acknowledges while its append still runs.
func requireJoined(t *testing.T, shards []*shard, after string, before []shardTimes) {
	t.Helper()
	for i, sh := range shards {
		c := sh.clock.Now()
		var d shardTimes
		if before != nil {
			d = sh.times().sub(before[i])
		}
		for x, ssdClock := range sh.idx.clocks {
			if _, appended := d.onSSD(x); ssdClock.Now() > c+appended {
				t.Fatalf("after %s: shard %d's SSD %c clock %v is ahead of its clock %v by more than the call's %v of appends",
					after, i, 'A'+x, ssdClock.Now(), c, appended)
			}
		}
	}
}

// TestValueLogOverlapWindows runs dedup merge windows on wrapped logs and
// checks, after every call, that each shard joined both SSDs' timelines,
// but for a put's append in flight, and that between the ends of two
// GetBatch calls, where every shard is joined to both, each shard's clock
// advanced by at least each SSD's busy time: overlap hides an SSD's time
// behind the other SSD's or the CPU's, never outside the shard's own span.
// It logs shard 0's mean clock advance and each SSD's busy time per
// window.
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
			if d := t1[i].sub(joined[i]); d.clock < d.busy(0) || d.clock < d.busy(1) {
				t.Fatalf("window %d, shard %d: clock advanced %v, below SSD A's busy %v or SSD B's %v",
					w.window, i, d.clock, d.busy(0), d.busy(1))
			}
		}
		joined = t1
		get = get.add(t1[0].sub(t0[0]))
		put = put.add(t2[0].sub(t1[0]))
	}
	per := func(d time.Duration) string { return fmt.Sprintf("%.3f ms", float64(d)/windows/1e6) }
	for _, c := range []struct {
		call string
		d    shardTimes
	}{{"get", get}, {"put", put}, {"window", get.add(put)}} {
		t.Logf("shard 0 per %s: clock %s; SSD A busy %s (index %s), SSD B busy %s (index %s)", c.call,
			per(c.d.clock), per(c.d.busy(0)), per(c.d.idx[0]), per(c.d.busy(1)), per(c.d.idx[1]))
	}
}

// overlapStore is the one-shard store the chunk-level overlap tests use.
func overlapStore(t *testing.T) *CLAM {
	return openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(512<<10), WithBufferKB(16),
		WithValueLog(4<<20), WithSeed(21))
}

func overlapKey(i int) []byte { return []byte(fmt.Sprintf("overlap-key-%05d", i)) }

// side returns the SSD (0 for A, 1 for B) that alone was busy for a time
// a on A and b on B, or -1 when neither or both were.
func side(a, b time.Duration) int {
	switch {
	case a > 0 && b == 0:
		return 0
	case b > 0 && a == 0:
		return 1
	}
	return -1
}

// sides returns the SSD that alone served a call's index I/O and the one
// that alone served its value-log I/O (see side).
func (a shardTimes) sides() (index, log int) {
	return side(a.idx[0], a.idx[1]), side(a.log[1], a.log[0])
}

// putUntil issues 32-key PutBatch calls of fresh keys, from key *next on,
// checking the timelines after each, until one satisfies want, given
// whether it flushed an index buffer and its shard times, and returns
// that call's shard times; *next is then the first key not put.
func putUntil(t *testing.T, c *CLAM, next *int, what string, want func(flushed bool, d shardTimes) bool) shardTimes {
	t.Helper()
	sh := c.shards[0]
	val := make([]byte, 100)
	keys, vals := make([][]byte, 32), make([][]byte, 32)
	for range 1000 {
		for j := range keys {
			keys[j], vals[j] = overlapKey(*next), val
			*next++
		}
		flushes, before := c.Stats().Core.Flushes, sh.times()
		if err := c.PutBatch(context.Background(), keys, vals); err != nil {
			t.Fatal(err)
		}
		requireJoined(t, c.shards, "PutBatch", []shardTimes{before})
		if d := sh.times().sub(before); want(c.Stats().Core.Flushes > flushes, d) {
			return d
		}
	}
	t.Fatalf("no PutBatch %s", what)
	return shardTimes{}
}

// appendOnly picks a put call that wrote the value log on one SSD and
// flushed no index buffer.
func appendOnly(flushed bool, d shardTimes) bool {
	_, log := d.sides()
	return !flushed && log >= 0
}

// TestPutChunkOverlap pins byte PutBatch chunks whose append writes a
// whole erase block of the value log, on one SSD. A chunk that flushes no
// index buffer does not wait for its append: it advances the clock by
// less than its append SSD's busy time and leaves that SSD's clock ahead.
// A chunk that flushes joins both SSDs after its flush write, as every
// index write does, so it returns joined and advances the clock by at
// least each SSD's busy time, whether its flush ran beside the append on
// the other SSD or queued behind it on the same one, which serves one
// submission at a time.
func TestPutChunkOverlap(t *testing.T) {
	c := overlapStore(t)
	sh := c.shards[0]
	next := 0
	d := putUntil(t, c, &next, "wrote the log on one SSD without flushing", appendOnly)
	_, y := d.sides()
	lead := sh.idx.clocks[y].Now() - sh.clock.Now()
	t.Logf("no flush: clock advanced %v; SSD %c (the append) busy %v, running on %v past the acknowledgement",
		d.clock, 'A'+y, d.busy(y), lead)
	if d.clock >= d.busy(y) || lead <= 0 {
		t.Errorf("clock advanced %v: want below the append SSD's busy %v, with the append still running (%v)", d.clock, d.busy(y), lead)
	}
	for _, together := range []bool{false, true} {
		d = putUntil(t, c, &next, fmt.Sprintf("flushed and wrote the log on one SSD each (together: %t)", together),
			func(flushed bool, d shardTimes) bool {
				index, log := d.sides()
				return flushed && index >= 0 && log >= 0 && (index == log) == together
			})
		requireJoined(t, c.shards, "a flushing PutBatch", nil)
		x, _ := d.sides()
		t.Logf("flush on SSD %c, together %t: clock advanced %v; SSD A busy %v (index %v), SSD B busy %v (index %v)",
			'A'+x, together, d.clock, d.busy(0), d.idx[0], d.busy(1), d.idx[1])
		if d.clock < d.busy(0) || d.clock < d.busy(1) {
			t.Errorf("clock advanced %v: want at least each SSD's busy %v and %v", d.clock, d.busy(0), d.busy(1))
		}
	}
}

// TestOneKeyGetTimeline pins one-key Gets: with one hit there is nothing
// to overlap, so each advances the clock by at least the serial sum of
// its reads, its index probe and then its record read, the busy time it
// adds to SSDs A and B together, and a read on an SSD that an earlier
// put's append still occupies queues behind the append. Right after a put
// chunk that flushed nothing and left its append running on SSD A, a Get
// of a flushed key waits for that write; a key put after the last flush,
// still in the DRAM buffer, then pays its Bloom query, which every lookup
// in a super table with live incarnations runs before its buffer probe,
// and reads its record alone; and after idle time the flushed key costs
// its serial sum again. Each Get follows a write, the put or a delete of
// a key never put, so it starts no read run: the hot-entry cache neither
// answers nor fills, and its reads are the ones timed.
func TestOneKeyGetTimeline(t *testing.T) {
	c := overlapStore(t)
	sh := c.shards[0]
	next := 0
	putUntil(t, c, &next, "flushed", func(flushed bool, _ shardTimes) bool { return flushed })
	buffered := next
	if _, y := putUntil(t, c, &next, "wrote the log on one SSD without flushing", appendOnly).sides(); y != 0 {
		t.Fatalf("the append ran on SSD %c; the pins assume A", 'A'+y)
	}
	for i, g := range []struct {
		key  int
		idle time.Duration
		want time.Duration
	}{
		{0, 0, 2628160 * time.Nanosecond},                    // flushed: its probe on SSD A behind the write, then its record read on B
		{buffered, 0, 154268 * time.Nanosecond},              // buffered: the Bloom query, then the record read on A
		{0, 10 * time.Millisecond, 307536 * time.Nanosecond}, // flushed, both SSDs idle: the serial sum
	} {
		if i > 0 {
			if err := c.DeleteU64(1); err != nil {
				t.Fatal(err)
			}
		}
		c.Clock().Advance(g.idle)
		var lead [2]time.Duration // how far each SSD's clock is ahead: the append still running
		for x, ssdClock := range sh.idx.clocks {
			lead[x] = max(ssdClock.Now()-sh.clock.Now(), 0)
		}
		before := sh.times()
		if _, ok, err := c.Get(overlapKey(g.key)); err != nil || !ok {
			t.Fatalf("Get(%d): found %t, err %v", g.key, ok, err)
		}
		requireJoined(t, c.shards, "Get", nil)
		d := sh.times().sub(before)
		t.Logf("Get(%d) after %v idle: clock %v; SSD A busy %v (index %v, ahead by %v), SSD B busy %v (index %v, ahead by %v)",
			g.key, g.idle, d.clock, d.busy(0), d.idx[0], lead[0], d.busy(1), d.idx[1], lead[1])
		if serial := d.busy(0) + d.busy(1); d.clock < serial {
			t.Errorf("Get(%d) advanced the clock %v, below the serial sum of its reads %v", g.key, d.clock, serial)
		}
		for x := range 2 {
			if d.busy(x) > 0 && d.clock < lead[x]+d.busy(x) {
				t.Errorf("Get(%d) advanced the clock %v, below the %v its read on SSD %c waited plus its %v", g.key, d.clock, lead[x], 'A'+x, d.busy(x))
			}
		}
		if d.clock != g.want {
			t.Errorf("Get(%d) after %v idle advanced the clock %v; want %v", g.key, g.idle, d.clock, g.want)
		}
	}
}

// openSharedIndexTwin opens the Sharded store opts describe, except that
// each shard's index is one SSD on its shard clock, as a WithCustomDevice
// index is: the timeline on which a shard's index reads and CPU work add
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
		prof, err := kindProfile(po.device)
		if err != nil {
			t.Fatal(err)
		}
		po.customDevice = ssd.New(prof, po.flashBytes, po.clock)
		if shards[i], err = openShard(po); err != nil {
			t.Fatal(err)
		}
	}
	return &Sharded{router: newRouter(shards, n, cfg.batchChunk, cfg.seed)}
}

// TestIndexOverlapWindows runs GetBatchU64 windows of the get-batch-zipf
// benchmark workload's shape (8 shards, 64 MB of Intel flash, 12 MB of
// DRAM, 4096 Zipf(1.1) keys per batch, warmed with 1.25 times the flash's
// entries) on the store and on a twin whose indexes are one SSD each on
// their shard clocks, and checks that the index timelines only move time:
// the answers and every shard's core counters match the twin's. After
// every call each shard must be joined, and over every window each
// shard's clock must advance by at least each SSD's index busy time. The
// twin's advance less its index busy time is the window's CPU time, and
// on at least one shard per window the store's advance must fall below
// that CPU time plus the busier SSD's index time: the index reads
// overlapped phase A, not only each other.
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
	// The twin's index busy time is its one SSD's, in idx[0].
	times := func(st *Sharded) []shardTimes {
		ts := snapshotTimes(st.shards)
		for i, sh := range st.shards {
			if sh.idx.parts == nil {
				ts[i].idx[0] = sh.idx.Counters().BusyTime
			}
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
			busier := max(d.idx[0], d.idx[1])
			if d.clock < busier {
				t.Fatalf("window %d, shard %d: clock advanced %v, below an SSD's index busy %v", w, i, d.clock, busier)
			}
			cpu := td.clock - td.idx[0]
			overlapped = overlapped || d.clock < cpu+busier
			most, twinMost = max(most, d.clock), max(twinMost, td.clock)
		}
		if !overlapped {
			t.Fatalf("window %d: every shard's clock advanced by at least its CPU time plus its busier SSD's index time", w)
		}
		makespan += most
		twinMakespan += twinMost
	}
	t.Logf("mean window makespan %v; with each index one SSD on its shard clock %v",
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
			case p.fwd == 0:
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

// devRead is one read request an index partition served, with its SSD's
// clock reading, which is its submission's start on that SSD: the fault
// hook runs before the partition serves its share of a submission.
type devRead struct {
	part  int // 0 on SSD A, 1 on SSD B
	off   int64
	start time.Duration
}

// firstProbeStore opens a one-shard kind-opened store holding 2000 flushed
// keys, records every read its index partitions serve from then on into
// *reads, and returns one SSD's Lanes of the keys whose one-key GetU64s
// read distinct first probe pages: phase A's group of pages.
func firstProbeStore(t *testing.T, seed uint64) (c *CLAM, flushed []uint64, reads *[]devRead) {
	t.Helper()
	c = openCLAMT(t, WithDevice(IntelSSD), WithFlash(4<<20), WithMemory(512<<10), WithBufferKB(16), WithSeed(seed))
	sh := c.shards[0]
	lanes := sh.idx.parts[0].Geometry().Lanes
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
	for i, p := range sh.idx.parts {
		p.SetFault(func(op storage.Op, off int64, _ int) error {
			if op == storage.OpRead {
				*reads = append(*reads, devRead{i, off, sh.idx.clocks[i].Now()})
			}
			return nil
		})
		t.Cleanup(func() { p.SetFault(nil) })
	}
	// A one-key GetU64 of a flushed key reads its first probe page first.
	type page struct {
		part int
		off  int64
	}
	pages := map[page]bool{}
	for _, k := range keys {
		*reads = (*reads)[:0]
		if _, ok, err := c.GetU64(k); err != nil || !ok {
			t.Fatalf("GetU64(%#x): found %t, err %v", k, ok, err)
		}
		if len(*reads) == 0 {
			continue
		}
		if r := (*reads)[0]; !pages[page{r.part, r.off}] {
			pages[page{r.part, r.off}] = true
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
// GetBatchU64 of one SSD's Lanes flash-resident keys, whose first probe
// pages are distinct, followed by 401 positions of one buffered key. The
// repeats' dedupe charges land where phase A reaches them, so the index's
// first submission, the Lanes first pages, must start on its SSDs once the
// first keys' phase-A charges have landed, not after 400
// CPU.BatchCoalesce charges. Every position must equal a one-key GetU64.
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
		t.Errorf("the index's first submission started at +%v, after the first %d keys' phase-A charges (%v)",
			first, lanes, phaseA)
	}
	requireOneKeyAnswers(t, c, batch, got, found)
}

// TestStagingScreenSpeedsRoundOne sends a one-shard kind-opened store one
// GetBatchU64 of 400 distinct absent keys that the Bloom filters exclude
// from every incarnation, followed by one SSD's Lanes flash-resident keys
// whose first probe pages are distinct; the buffers hold neither. Phase A
// queries each key's Bloom bank first, and the staging filter rules every
// key out of its buffer, so none is charged CPU.BufferLookup: the call
// counts 400+Lanes screened probes, and the index's last round-1
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
		t.Errorf("the index's last round-1 submission started at +%v, after the call's Bloom queries (+%v)",
			last, queries)
	}
	requireOneKeyAnswers(t, c, batch, got, found)
}

// ssdSub is one submission to an SSD: its start on the SSD's timeline,
// the partition that served it (0 its index partition, 1 its log
// partition), and that partition's busy time before it.
type ssdSub struct {
	start, busy time.Duration
	part        int
}

// TestIndexSSDServesOneSubmissionAtATime records every submission to each
// of a shard's two SSDs during dedup merge windows, whose index probes and
// flushes and GetBatch record reads and PutBatch appends run on both: on
// each SSD, each submission must start at or after the previous one, to
// either of its partitions, has ended. A submission's end is its start
// plus its partition's busy time until that partition's next submission.
func TestIndexSSDServesOneSubmissionAtATime(t *testing.T) {
	w := newDedupWindow(t, flashIndexLogs)
	sh := w.s.shards[0]
	var parts [2][2]*ssd.SSD // per SSD: its index partition and its log partition
	var subs [2][]ssdSub
	for x := range 2 {
		parts[x] = [2]*ssd.SSD{sh.idx.parts[x], sh.logs.parts[1-x]}
		for i, p := range parts[x] {
			p.SetFault(func(storage.Op, int64, int) error {
				s := ssdSub{sh.idx.clocks[x].Now(), p.Counters().BusyTime, i}
				if n := len(subs[x]); n == 0 || subs[x][n-1] != s {
					subs[x] = append(subs[x], s) // a submission's first request
				}
				return nil
			})
		}
	}
	for range 20 {
		w.lookup(t)
		w.insert(t)
	}
	for x := range 2 {
		subs := subs[x]
		// end returns submission k's end: its partition's busy time grows by
		// the submission's service time before that partition's next
		// submission.
		end := func(k int) time.Duration {
			s := subs[k]
			next := parts[x][s.part].Counters().BusyTime
			for _, o := range subs[k+1:] {
				if o.part == s.part {
					next = o.busy
					break
				}
			}
			return s.start + next - s.busy
		}
		var switches int
		for k := 1; k < len(subs); k++ {
			if prev := end(k - 1); subs[k].start < prev {
				t.Fatalf("SSD %c: submission %d (partition %d) starts at %v, before submission %d (partition %d) ends at %v",
					'A'+x, k, subs[k].part, subs[k].start, k-1, subs[k-1].part, prev)
			}
			if subs[k].part != subs[k-1].part {
				switches++
			}
		}
		t.Logf("SSD %c: %d submissions, %d switches between its index and log partitions", 'A'+x, len(subs), switches)
		if switches < 20 {
			t.Fatalf("SSD %c: only %d switches between its two partitions; retune the test", 'A'+x, switches)
		}
	}
}

// TestU64StreamLeavesLogAlone runs a stream of every U64 call on a
// kind-opened store, whose value log is striped over its two SSDs, and on
// a twin whose log is too small to stripe: neither log partition may see
// a request, and the two stores' clocks, core counters and index
// counters must agree, so no U64 store's timing depends on its log.
func TestU64StreamLeavesLogAlone(t *testing.T) {
	open := func(vlog int64) *CLAM {
		return openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithMemory(512<<10), WithBufferKB(16),
			WithValueLog(vlog), WithSeed(23))
	}
	striped, single := open(4<<20), open(128<<10)
	if n := len(striped.shards[0].logs.parts); n != 2 {
		t.Fatalf("the 4 MB log has %d partitions, want 2", n)
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
		if v := c.shards[0].logs.Counters(); v != (storage.Counters{}) {
			t.Fatalf("a U64 stream used the value log: %+v", v)
		}
	}
	a, b := striped.Stats(), single.Stats()
	if striped.Clock().Now() != single.Clock().Now() || a.Core != b.Core || a.Device != b.Device {
		t.Fatalf("the striped store's clock %v and counters differ from the one-member log's %v",
			striped.Clock().Now(), single.Clock().Now())
	}
}

// TestOneMemberLogs pins which devices keep to one partition: a
// WithCustomDevice store's value log, one SSD on a private clock, while its
// index device runs on the shard clock; a log of one erase block, too
// small to give each SSD a unit, on SSD B alone; and an index of one erase
// block on SSD A alone. A log of two erase blocks is striped, one on each
// SSD, B first, with the capacity it would have on one.
func TestOneMemberLogs(t *testing.T) {
	clock := vclock.New()
	custom := openCLAMT(t, WithCustomDevice(ssd.New(ssd.IntelX18M(), 2<<20, clock)), WithClock(clock),
		WithFlash(2<<20), WithValueLog(4<<20))
	small := openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithValueLog(128<<10))
	two := openCLAMT(t, WithDevice(IntelSSD), WithFlash(2<<20), WithValueLog(256<<10))
	smallIndex := openCLAMT(t, WithDevice(IntelSSD), WithFlash(128<<10), WithBufferKB(4), WithValueLog(256<<10))
	for _, row := range []struct {
		name          string
		c             *CLAM
		index, logs   int // partitions
		logCap        int64
		logOnIndexSSD []int // each log partition's SSD among the index's clocks, -1 for a clock of its own
	}{
		{"custom device", custom, 0, 1, 4 << 20, []int{-1}},
		{"one-block log", small, 2, 1, 128 << 10, []int{1}},
		{"two-block log", two, 2, 2, 256 << 10, []int{1, 0}},
		{"one-block index", smallIndex, 1, 2, 256 << 10, []int{-1, 0}},
	} {
		sh := row.c.shards[0]
		if len(sh.idx.parts) != row.index || len(sh.idx.clocks) != row.index || len(sh.logs.parts) != row.logs {
			t.Fatalf("%s: %d index and %d log partitions, want %d and %d", row.name, len(sh.idx.parts), len(sh.logs.parts), row.index, row.logs)
		}
		for i, c := range sh.logs.clocks {
			at := slices.Index(sh.idx.clocks, c)
			if at != row.logOnIndexSSD[i] || c == sh.clock {
				t.Fatalf("%s: log partition %d runs on index clock %d, want %d", row.name, i, at, row.logOnIndexSSD[i])
			}
		}
		if c := sh.vlog.Stats().Capacity; c != row.logCap {
			t.Fatalf("%s: log capacity %d, want %d", row.name, c, row.logCap)
		}
		for _, p := range sh.logs.parts {
			if row.logs == 2 && p.Geometry().Capacity != row.logCap/2 {
				t.Fatalf("%s: a log partition of %d bytes, want %d", row.name, p.Geometry().Capacity, row.logCap/2)
			}
		}
	}
}
