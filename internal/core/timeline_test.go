package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// recordingDevice records the offsets of every ReadBatch submission it
// forwards.
type recordingDevice struct {
	storage.Device
	reads [][]int64
}

func (d *recordingDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	offs := make([]int64, len(reqs))
	for i, r := range reqs {
		offs[i] = r.Off
	}
	d.reads = append(d.reads, offs)
	return d.Device.ReadBatch(reqs)
}

// firstPage returns the page number of key's first probe, its newest
// candidate incarnation's, or ok false when phase A resolves the key. It
// charges and counts nothing.
func firstPage(b *BufferHash, key uint64) (page uint64, ok bool) {
	st, kh := b.route(key)
	if _, deleted := st.deleteList[kh]; deleted {
		return 0, false
	}
	if _, buffered := st.buf.Get(kh); buffered {
		return 0, false
	}
	pages := probePages(b, key, 1)
	if len(pages) == 0 {
		return 0, false
	}
	return pages[0], true
}

// probePages returns the page numbers of key's first n flash probes, or
// of as many as it has candidate incarnations: the candidates' pages,
// newest first, as a lookup that reaches flash reads them. It charges and
// counts nothing.
func probePages(b *BufferHash, key uint64, n int) []uint64 {
	st, kh := b.route(key)
	if st.live == 0 {
		return nil
	}
	mask := st.validMask()
	if st.bank != nil && !b.cfg.DisableBloom {
		m, _ := st.bank.Query(kh)
		mask &= m
	}
	var pages []uint64
	for ; n > 0 && mask != 0; n-- {
		j := bits.Len64(mask) - 1
		mask &^= 1 << j
		pages = append(pages, st.incs[j].page+uint64(st.buf.Placement().Page(kh)))
	}
	return pages
}

// TestLookupTimelinesAgree runs the same lookups on an instance whose
// device keeps a timeline of its own (Config.DeviceClock) and on a twin
// whose device is on the CPU clock, under FIFO and LRU. Both run one
// lookup path: phase A hands its first probes to the idle device. Where
// the device's clock sits may only move time: results, every counter and
// the pages the device reads for their own sake (Reads − ReadThrough, and
// their bytes) must match the twin's; the pages a submission reads through
// depend on how round 1 was cut into submissions. A one-key lookup has
// nothing to overlap and advances both clocks equally, and a batch may not
// advance the own-timeline clock further than the twin's, on which every
// read delays phase A. The batch puts two keys whose first probes share a
// page into different submissions of round 1; the page must be read once,
// as the twin reads it. Every call must return with the device clock
// joined.
func TestLookupTimelinesAgree(t *testing.T) {
	for _, policy := range []EvictionPolicy{FIFO, LRU} {
		t.Run(policy.String(), func(t *testing.T) { testTimelines(t, policy) })
	}
}

func testTimelines(t *testing.T, policy EvictionPolicy) {
	shCfg, _ := testConfig(t)
	ownCfg, ownClock := testConfig(t)
	devClock := vclock.New()
	ownDev := ssd.New(ssd.IntelX18M(), 1<<20, devClock)
	rec := &recordingDevice{Device: ownDev}
	ownCfg.Device, ownCfg.DeviceClock = rec, []*vclock.Clock{devClock}
	shCfg.Policy, ownCfg.Policy = policy, policy
	shCfg.FilterBitsPerEntry, ownCfg.FilterBitsPerEntry = 2, 2
	shared, own := mustNew(t, shCfg), mustNew(t, ownCfg)
	universe := populateTwin(t, shared, own, 321, 12000, 4000)
	if own.lanes != 8 {
		t.Fatalf("own device reports %d lanes, want the Intel profile's 8", own.lanes)
	}
	requireJoined := func(after string) {
		t.Helper()
		if d, c := devClock.Now(), ownClock.Now(); d > c {
			t.Fatalf("after %s: device clock %v is ahead of the clock %v", after, d, c)
		}
	}
	requireJoined("populating")

	// A batch: x, seven keys whose first pages are distinct and not x's,
	// which fill the device's lanes, then y, whose first page is x's, then
	// the universe's first 96 keys, less those probing first a page that
	// borders another of the batch's first pages. Splitting a round into
	// submissions can cost it the sequential-run discounts that one sorted
	// submission earns for adjacent pages, so only a round whose pages are
	// not adjacent is sure to finish no later than on a shared clock.
	var x, y uint64
	var batch []uint64
	chosen := map[uint64]bool{}
	apart := func(p uint64) bool { return !chosen[p-1] && !chosen[p+1] }
	for _, k := range universe {
		p, ok := firstPage(own, k)
		if !ok || chosen[p] || !apart(p) {
			continue
		}
		if len(batch) == 0 {
			x = k
		}
		chosen[p] = true
		batch = append(batch, k)
		if len(batch) == own.lanes {
			break
		}
	}
	px, _ := firstPage(own, x)
	for _, k := range universe {
		if p, ok := firstPage(own, k); ok && p == px && k != x {
			y = k
			break
		}
	}
	if len(batch) < own.lanes || y == 0 {
		t.Fatalf("found %d keys on pages apart and y %#x; retune the population", len(batch), y)
	}
	batch = append(batch, y)
	for _, k := range universe[:96] {
		if slices.Contains(batch, k) {
			continue
		}
		if p, ok := firstPage(own, k); ok && !chosen[p] {
			if !apart(p) {
				continue
			}
			chosen[p] = true
		}
		batch = append(batch, k)
	}

	lookup := func(b *BufferHash, clock *vclock.Clock, keys []uint64) ([]LookupResult, time.Duration) {
		t.Helper()
		res := make([]LookupResult, len(keys))
		t0 := clock.Now()
		if err := b.LookupBatch(keys, res); err != nil {
			t.Fatal(err)
		}
		return res, clock.Now() - t0
	}
	compare := func(what string, ownRes, shRes []LookupResult) {
		t.Helper()
		if !slices.Equal(ownRes, shRes) {
			t.Fatalf("%s: results differ:\nown    %+v\nshared %+v", what, ownRes, shRes)
		}
		if os, ss := own.Stats(), shared.Stats(); os != ss {
			t.Fatalf("%s: stats differ:\nown    %+v\nshared %+v", what, os, ss)
		}
		// Each device reads the same pages for their own sake; the pages
		// they read through depend on how the submissions were cut.
		oc, sc := ownDev.Counters(), shared.cfg.Device.Counters()
		ownReads, ownBytes := oc.Reads-oc.ReadThrough, oc.BytesRead-oc.ReadThrough*uint64(own.probeN)
		shReads, shBytes := sc.Reads-sc.ReadThrough, sc.BytesRead-sc.ReadThrough*uint64(shared.probeN)
		if ownReads != shReads || ownBytes != shBytes {
			t.Fatalf("%s: own device read %d requests, %d bytes, not read through; shared %d, %d",
				what, ownReads, ownBytes, shReads, shBytes)
		}
	}

	one := []uint64{x}
	ownRes, ownAdv := lookup(own, ownClock, one)
	shRes, shAdv := lookup(shared, shared.cfg.Clock, one)
	requireJoined("a one-key lookup")
	compare("one-key lookup", ownRes, shRes)
	if ownRes[0].FlashReads == 0 {
		t.Fatal("the one-key lookup read no page")
	}
	if ownAdv != shAdv {
		t.Fatalf("one-key lookup advanced the own-timeline clock %v, the shared one %v", ownAdv, shAdv)
	}

	rec.reads = nil
	ownRes, ownAdv = lookup(own, ownClock, batch)
	shRes, shAdv = lookup(shared, shared.cfg.Clock, batch)
	requireJoined("the batch")
	compare("batch", ownRes, shRes)
	t.Logf("%d keys, %d submissions: own-timeline clock advanced %v, shared %v", len(batch), len(rec.reads), ownAdv, shAdv)
	if first := rec.reads[0]; len(first) != own.lanes || !slices.Contains(first, int64(px)*int64(own.probeN)) {
		t.Fatalf("first submission %v: want the %d lanes' pages phase A gathered first, x's among them", first, own.lanes)
	}
	if len(rec.reads) < 2 || ownRes[own.lanes].FlashReads == 0 {
		t.Fatalf("y was not gathered after the first submission: %d submissions, y read %d pages",
			len(rec.reads), ownRes[own.lanes].FlashReads)
	}
	if ownAdv > shAdv {
		t.Fatalf("batch advanced the own-timeline clock %v, beyond the shared clock's %v", ownAdv, shAdv)
	}
}

// TestLendLandsAtFirstDeviceWait pins where lent dedupe (Lend) lands on
// an instance whose device keeps a timeline of its own, against a twin
// that lends nothing: a batch that probes flash lands it at its first
// probing round's device wait, after the round's submission, so one
// position's charge hides under the wait (the clocks end equal) and its
// ready instant lies inside the call; a batch that resolves in memory
// lands it when it ends; and LentReady lands work no call took as a plain
// advance. Lend dedupes its positions in place and charges each one.
// Results and counters never move.
func TestLendLandsAtFirstDeviceWait(t *testing.T) {
	open := func() (*BufferHash, *vclock.Clock) {
		cfg, clock := testConfig(t)
		devClock := vclock.New()
		cfg.Device, cfg.DeviceClock = ssd.New(ssd.IntelX18M(), 1<<20, devClock), []*vclock.Clock{devClock}
		return mustNew(t, cfg), clock
	}
	twin, twinClock := open()
	lender, clock := open()
	var flash []uint64
	for _, k := range populateTwin(t, twin, lender, 7, 12000, 4000) {
		if _, ok := firstPage(lender, k); ok {
			flash = append(flash, k)
		}
	}
	if len(flash) < 64 {
		t.Fatalf("%d flash-resident keys; want 64", len(flash))
	}
	buffered := flash[64:72] // put again below, so phase A resolves them
	for _, b := range []*BufferHash{twin, lender} {
		for _, k := range buffered {
			if err := b.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	coalesce := lender.cfg.CPU.BatchCoalesce
	lookup := func(keys []uint64) {
		t.Helper()
		want, got := make([]LookupResult, len(keys)), make([]LookupResult, len(keys))
		if err := twin.LookupBatch(keys, want); err != nil {
			t.Fatal(err)
		}
		if err := lender.LookupBatch(keys, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || lender.Stats() != twin.Stats() {
			t.Fatal("lending moved a result or a counter")
		}
	}

	start := clock.Now()
	if start != twinClock.Now() {
		t.Fatalf("clocks %v and %v differ before any lending", start, twinClock.Now())
	}
	lend := func(keys ...uint64) (distinct int, via []int32) {
		via = make([]int32, len(keys))
		return lender.Lend(keys, via), via
	}
	lend(7)
	lookup(flash[:64])
	if ready := lender.LentReady(); clock.Now() != twinClock.Now() || ready < start+coalesce || ready >= clock.Now() {
		t.Fatalf("flash batch: lent work ready at %v, call from %v to %v, the twin's to %v",
			ready, start, clock.Now(), twinClock.Now())
	}

	lent := []uint64{5, 9, 5}
	if d, via := lend(lent...); d != 2 || !slices.Equal(lent[:d], []uint64{5, 9}) || !slices.Equal(via, []int32{0, 1, 0}) {
		t.Fatalf("Lend(5, 9, 5) left %d distinct keys %v, via %v; want 2, [5 9], [0 1 0]", d, lent[:d], via)
	}
	lookup(buffered[:8])
	if ready := lender.LentReady(); clock.Now() != twinClock.Now()+3*coalesce || ready != clock.Now() {
		t.Fatalf("buffered batch: clock %v, the twin's %v, lent work ready at %v; want the twin's plus %v, ready at the end",
			clock.Now(), twinClock.Now(), ready, 3*coalesce)
	}

	before := clock.Now()
	lend(7, 7)
	if ready := lender.LentReady(); ready != before+2*coalesce || clock.Now() != ready {
		t.Fatalf("no call: lent work ready at %v, clock %v; want both at %v", ready, clock.Now(), before+2*coalesce)
	}
}

// busyWatch is a striped index device that counts, per LookupBatch call,
// its read submissions and those that reached an SSD still busy with an
// earlier submission: a submission moves every timeline up to the CPU
// clock before it reaches the device, so a timeline still ahead of it is
// busy. It also logs each submission's pages, the SSDs it reached and
// those busy at its start.
type busyWatch struct {
	*storage.Stripe
	clock     *vclock.Clock
	timelines []*vclock.Clock
	subs      int // read submissions in the call
	busy      int // of which reached a busy SSD
	log       []watchedSub
}

// watchedSub is one read submission a busyWatch served: its pages, and
// masks of the SSDs it reached and of those busy when it started.
type watchedSub struct {
	pages         int
	reached, busy uint64
}

func (d *busyWatch) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	w := watchedSub{pages: len(reqs)}
	for _, r := range reqs {
		w.reached |= 1 << d.Member(r.Off)
	}
	for m, c := range d.timelines {
		if c.Now() > d.clock.Now() {
			w.busy |= 1 << m
		}
	}
	d.subs++
	if w.busy&w.reached != 0 {
		d.busy++
	}
	d.log = append(d.log, w)
	return d.Stripe.ReadBatch(reqs)
}

// newPairIndex returns cfg over a two-member stripe of Intel SSDs of 512 KB
// each, one erase block per unit, on clocks of their own, behind a
// busyWatch on cfg's clock.
func newPairIndex(t *testing.T, cfg *Config) *busyWatch {
	t.Helper()
	a, b := vclock.New(), vclock.New()
	prof := ssd.IntelX18M()
	stripe, err := storage.NewStripe(prof.BlockSize(), ssd.New(prof, 512<<10, a), ssd.New(prof, 512<<10, b))
	if err != nil {
		t.Fatal(err)
	}
	watch := &busyWatch{Stripe: stripe, clock: cfg.Clock, timelines: []*vclock.Clock{a, b}}
	cfg.Device, cfg.DeviceClock = watch, watch.timelines
	return watch
}

// TestStripedIndexMovesOnlyTime runs one stream of InsertBatch and
// LookupBatch calls, with read runs for the hot-entry cache, on an
// instance whose index is a two-member stripe of Intel SSDs (one erase
// block per unit), each member on a clock of its own, and on a twin over
// one Intel SSD of the same capacity on a clock of its own, under FIFO
// and LRU. Where the index's pages lie and how many timelines serve them
// may only move time: every result and every counter (Lookups, Hits,
// FlashProbes, SpuriousProbes, PendingProbes, LookupIOHist, Flushes,
// Evictions, ScreenedProbes and CacheHits among them) must match the
// twin's, but for how much flush work the device waits hid. Phase A
// hands an SSD pages only while that SSD is idle, so in each LookupBatch
// call at most one read submission, phase B's of round 1, may reach an
// SSD still busy, and only with phase A's reads: some calls must show it,
// or phase A never submitted. TestPhaseAHandsEachSSDItsGroup pins the
// hand-over to one SSD while the other is busy.
func TestStripedIndexMovesOnlyTime(t *testing.T) {
	for _, policy := range []EvictionPolicy{FIFO, LRU} {
		t.Run(policy.String(), func(t *testing.T) {
			oneCfg, _ := testConfig(t)
			oneClock := vclock.New()
			oneCfg.Device, oneCfg.DeviceClock = ssd.New(ssd.IntelX18M(), 1<<20, oneClock), []*vclock.Clock{oneClock}
			pairCfg, clock := testConfig(t)
			watch := newPairIndex(t, &pairCfg)
			for _, cfg := range []*Config{&oneCfg, &pairCfg} {
				cfg.Policy, cfg.FilterBitsPerEntry, cfg.CacheEntries = policy, 4, 256
			}
			one, pair := mustNew(t, oneCfg), mustNew(t, pairCfg)
			if pair.lanes != one.lanes {
				t.Fatalf("the stripe's phase-A group is %d pages, one SSD's %d", pair.lanes, one.lanes)
			}
			rng := rand.New(rand.NewSource(77))
			universe := make([]uint64, 60000)
			for i := range universe {
				universe[i] = rng.Uint64()
			}
			var calls, overlapped int
			var keys []uint64
			for step := range 800 {
				// Every fourth call inserts, and the three lookups between
				// repeat their keys: the second and third are a read run,
				// which the second fills the cache for and the third hits.
				if step%4 < 2 {
					n := 1 + rng.Intn(300)
					if step%4 == 0 {
						n *= 4
					}
					keys = make([]uint64, n)
					for i := range keys {
						keys[i] = universe[rng.Intn(len(universe))]
					}
				}
				if step%4 == 0 {
					vals := make([]uint64, len(keys))
					for i := range vals {
						vals[i] = rng.Uint64()
					}
					for _, bh := range []*BufferHash{one, pair} {
						if err := bh.InsertBatch(keys, vals, nil); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				want, got := make([]LookupResult, len(keys)), make([]LookupResult, len(keys))
				if err := one.LookupBatch(keys, want); err != nil {
					t.Fatal(err)
				}
				watch.subs, watch.busy, watch.log = 0, 0, watch.log[:0]
				if err := pair.LookupBatch(keys, got); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) || untimed(pair.Stats()) != untimed(one.Stats()) {
					t.Fatalf("step %d: results or counters differ from the one-SSD twin's:\n%+v\n%+v", step, pair.Stats(), one.Stats())
				}
				if watch.busy > 1 {
					t.Fatalf("step %d: %d of the call's %d read submissions reached a busy SSD", step, watch.busy, watch.subs)
				}
				if l := vclock.Latest(watch.timelines); l > clock.Now() {
					t.Fatalf("step %d: a timeline at %v is ahead of the clock %v after the call", step, l, clock.Now())
				}
				calls++
				if watch.busy == 1 {
					overlapped++
				}
			}
			st := pair.Stats()
			t.Logf("%d lookup calls, %d with phase A's reads still running at phase B; clock %v, the twin's %v; %d flash probes, %d cache hits",
				calls, overlapped, clock.Now(), oneCfg.Clock.Now(), st.FlashProbes, st.CacheHits)
			if overlapped == 0 || st.CacheHits == 0 || st.Evictions == 0 {
				t.Fatalf("%d calls overlapped phase A's reads, %d cache hits, %d evictions; retune the stream", overlapped, st.CacheHits, st.Evictions)
			}
		})
	}
}

// TestPhaseAHandsEachSSDItsGroup pins phase A's hand-over on an index
// striped over two SSDs, A and B, each on a clock of its own: a LookupBatch
// of three keys whose first probes lie on B, then one SSD's lanes of keys
// whose first probes lie on A, all on distinct pages. While B is busy with
// a write of another partition on its clock (a value-log block), phase A
// hands A its lane group as soon as A's pages fill it, without waiting for
// B: the call's first submission reaches A alone, with its 8 pages, while
// B is still busy, and B's pages wait for phase B. With both SSDs idle,
// the same trigger on A carries B's pending pages: the first submission
// reaches both, with all 11 pages. Every key's answer is the one-key
// Lookup's.
func TestPhaseAHandsEachSSDItsGroup(t *testing.T) {
	cfg, clock := testConfig(t)
	watch := newPairIndex(t, &cfg)
	bh := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 12000)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := bh.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Write the held images, so that every first probe reads the device.
	if err := bh.Flush(); err != nil {
		t.Fatal(err)
	}
	var onA, onB []uint64
	pages := map[uint64]bool{}
	for _, k := range keys {
		p, ok := firstPage(bh, k)
		if !ok || pages[p] {
			continue
		}
		switch watch.Member(int64(p) * int64(bh.probeN)) {
		case 0:
			if len(onA) < bh.lanes {
				onA = append(onA, k)
				pages[p] = true
			}
		case 1:
			if len(onB) < 3 {
				onB = append(onB, k)
				pages[p] = true
			}
		}
	}
	if len(onA) < bh.lanes || len(onB) < 3 {
		t.Fatalf("found %d keys probing A first and %d probing B first; retune the population", len(onA), len(onB))
	}
	batch := append(append([]uint64(nil), onB...), onA...)
	b := watch.timelines[1]
	logPart := ssd.New(ssd.IntelX18M(), 512<<10, b)

	lookup := func(what string) watchedSub {
		t.Helper()
		watch.log = watch.log[:0]
		res := make([]LookupResult, len(batch))
		if err := bh.LookupBatch(batch, res); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: submissions %+v", what, watch.log)
		if len(watch.log) == 0 {
			t.Fatalf("%s: the batch read nothing", what)
		}
		first := watch.log[0]
		for i, k := range batch {
			want, err := bh.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if res[i] != want {
				t.Fatalf("%s: key %d answered %+v, one-key Lookup %+v", what, i, res[i], want)
			}
		}
		return first
	}

	b.AdvanceTo(clock.Now())
	if _, err := logPart.WriteAt(make([]byte, ssd.IntelX18M().BlockSize()), 0); err != nil {
		t.Fatal(err)
	}
	if first := lookup("B busy"); first.reached != 1 || first.busy != 2 || first.pages != bh.lanes {
		t.Errorf("B busy: first submission of %d pages reached SSDs %b with %b busy; want A's %d alone while B is busy",
			first.pages, first.reached, first.busy, bh.lanes)
	}

	if first := lookup("both idle"); first.reached != 3 || first.busy != 0 || first.pages != bh.lanes+len(onB) {
		t.Errorf("both idle: first submission of %d pages reached SSDs %b with %b busy; want all %d pages on both, neither busy",
			first.pages, first.reached, first.busy, bh.lanes+len(onB))
	}
}

// untimed returns s without the counters that depend on where the device
// timelines stood: how much flush and insert work the device waits hid,
// and so how much landed as a plain advance.
func untimed(s Stats) Stats {
	s.FlushCPUHidden, s.FlushCPULanded = 0, 0
	s.InsertCPUHidden, s.InsertCPULanded = 0, 0
	return s
}
