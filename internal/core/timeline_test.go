package core

import (
	"math/bits"
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
	if _, buffered := st.buf.Get(kh); buffered || st.live == 0 {
		return 0, false
	}
	mask := st.bank.Query(kh) & st.validMask()
	if mask == 0 {
		return 0, false
	}
	j := bits.Len64(mask) - 1
	return uint64(b.probeAddr(st, st.incs[j], kh)) / uint64(b.probeN), true
}

// TestOwnTimelineMatchesSharedClock runs the same lookups on an instance
// whose device keeps a timeline of its own (Config.DeviceClock) and on a
// twin whose device shares its clock. Handing phase A's first probes to
// the idle device may only move time: results, every counter and the
// device's physical reads must match the twin's. A one-key lookup has
// nothing to overlap and advances both clocks equally, and a batch may not
// advance the own-timeline clock further than the twin's. The batch puts
// two keys whose first probes share a page into different submissions of
// round 1; the page must be read once, as the twin reads it. Every call
// must return with the device clock joined.
func TestOwnTimelineMatchesSharedClock(t *testing.T) {
	shCfg, _ := testConfig(t)
	ownCfg, ownClock := testConfig(t)
	devClock := vclock.New()
	ownDev := ssd.New(ssd.IntelX18M(), 1<<20, devClock)
	rec := &recordingDevice{Device: ownDev}
	ownCfg.Device, ownCfg.DeviceClock = rec, devClock
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
		if err := b.LookupBatch(keys, res, nil); err != nil {
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
		oc, sc := ownDev.Counters(), shared.cfg.Device.Counters()
		if oc.Reads != sc.Reads || oc.BytesRead != sc.BytesRead {
			t.Fatalf("%s: own device read %d requests, %d bytes; shared %d, %d",
				what, oc.Reads, oc.BytesRead, sc.Reads, sc.BytesRead)
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
