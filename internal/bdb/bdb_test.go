package bdb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/ssd"
	"repro/internal/vclock"
)

func newHash(t testing.TB, capacity int64) (*HashIndex, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), 64<<20, clock)
	h, err := NewHashIndex(Options{Device: dev, CapacityEntries: capacity, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return h, clock
}

func TestHashInsertLookup(t *testing.T) {
	h, _ := newHash(t, 100000)
	if err := h.Insert(42, 420); err != nil {
		t.Fatal(err)
	}
	v, ok, err := h.Lookup(42)
	if err != nil || !ok || v != 420 {
		t.Fatalf("Lookup = %d %v %v", v, ok, err)
	}
	if _, ok, _ := h.Lookup(43); ok {
		t.Fatal("phantom key")
	}
}

func TestHashOverwrite(t *testing.T) {
	h, _ := newHash(t, 100000)
	h.Insert(1, 10)
	h.Insert(1, 20)
	if v, _, _ := h.Lookup(1); v != 20 {
		t.Fatalf("overwrite failed: %d", v)
	}
}

func TestHashZeroKey(t *testing.T) {
	h, _ := newHash(t, 1000)
	if err := h.Insert(0, 1); !errors.Is(err, ErrZeroKey) {
		t.Fatal("zero key accepted")
	}
	if _, _, err := h.Lookup(0); !errors.Is(err, ErrZeroKey) {
		t.Fatal("zero key lookup accepted")
	}
}

func TestHashManyKeysWithOverflow(t *testing.T) {
	h, _ := newHash(t, 50000)
	rng := rand.New(rand.NewSource(1))
	ref := map[uint64]uint64{}
	for i := 0; i < 60000; i++ { // 20% past sizing: overflow chains form
		k := rng.Uint64() | 1
		v := rng.Uint64()
		if err := h.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if h.stats.OverflowPages == 0 {
		t.Log("note: no overflow pages allocated")
	}
	n := 0
	for k, v := range ref {
		got, ok, err := h.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Fatalf("key %#x: got (%d,%v), want %d", k, got, ok, v)
		}
		if n++; n > 5000 {
			break
		}
	}
}

func TestHashDelete(t *testing.T) {
	h, _ := newHash(t, 10000)
	h.Insert(7, 70)
	h.Insert(8, 80)
	ok, err := h.Delete(7)
	if err != nil || !ok {
		t.Fatalf("Delete = %v %v", ok, err)
	}
	if _, found, _ := h.Lookup(7); found {
		t.Fatal("deleted key found")
	}
	if v, found, _ := h.Lookup(8); !found || v != 80 {
		t.Fatal("sibling key damaged by delete")
	}
	if ok, _ := h.Delete(7); ok {
		t.Fatal("double delete")
	}
}

func TestHashModelBasedQuick(t *testing.T) {
	h, _ := newHash(t, 20000)
	ref := map[uint64]uint64{}
	f := func(ops []struct {
		Kind uint8
		Key  uint16
		Val  uint64
	}) bool {
		for _, o := range ops {
			k := uint64(o.Key) + 1
			switch o.Kind % 3 {
			case 0:
				if err := h.Insert(k, o.Val); err != nil {
					return false
				}
				ref[k] = o.Val
			case 1:
				got, ok, err := h.Lookup(k)
				if err != nil {
					return false
				}
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
			case 2:
				ok, err := h.Delete(k)
				if err != nil {
					return false
				}
				_, wantOK := ref[k]
				if ok != wantOK {
					return false
				}
				delete(ref, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashEveryOpTouchesDevice(t *testing.T) {
	// The defining property of the baseline: inserts are in-place page
	// writes (one per insert), with no batching.
	h, _ := newHash(t, 1000000)
	dev := ssd.New(ssd.IntelX18M(), 64<<20, vclock.New())
	h2, err := NewHashIndex(Options{Device: dev, CapacityEntries: 1000000, Seed: 1, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	rng := rand.New(rand.NewSource(2))
	const n = 2000
	for i := 0; i < n; i++ {
		if err := h2.Insert(rng.Uint64()|1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if w := dev.Counters().Writes; w < n {
		t.Fatalf("only %d device writes for %d inserts: baseline is batching", w, n)
	}
}

func TestHashLatencyOnDiskMatchesPaper(t *testing.T) {
	// §7.2.2: DB+Disk averages 6.8 ms lookups / 7 ms inserts.
	clock := vclock.New()
	dev := disk.New(disk.Hitachi7K80(), 256<<20, clock)
	h, err := NewHashIndex(Options{Device: dev, CapacityEntries: 4000000, Seed: 5, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var insTotal, lookTotal time.Duration
	const ops = 1500
	for i := 0; i < ops; i++ {
		k := rng.Uint64() | 1
		w := clock.StartWatch()
		if err := h.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
		insTotal += w.Elapsed()
		w = clock.StartWatch()
		h.Lookup(rng.Uint64() | 1)
		lookTotal += w.Elapsed()
	}
	insMs := float64(insTotal/ops) / float64(time.Millisecond)
	lookMs := float64(lookTotal/ops) / float64(time.Millisecond)
	t.Logf("DB+Disk: insert %.2f ms (paper 7), lookup %.2f ms (paper 6.8)", insMs, lookMs)
	if insMs < 4 || insMs > 14 {
		t.Errorf("insert latency %.2f ms out of band", insMs)
	}
	if lookMs < 3 || lookMs > 12 {
		t.Errorf("lookup latency %.2f ms out of band", lookMs)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewHashIndex(Options{}); err == nil {
		t.Fatal("nil device accepted")
	}
	clock := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), 1<<20, clock)
	if _, err := NewHashIndex(Options{Device: dev, CapacityEntries: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewHashIndex(Options{Device: dev, CapacityEntries: 100000000}); err == nil {
		t.Fatal("oversized index accepted")
	}
}

func TestPageCacheLRU(t *testing.T) {
	c := newPageCache(2)
	c.put(1, []byte{1})
	c.put(2, []byte{2})
	c.get(1)            // 1 is now most recent
	c.put(3, []byte{3}) // evicts 2
	if c.get(2) != nil {
		t.Fatal("LRU did not evict the oldest page")
	}
	if c.get(1) == nil || c.get(3) == nil {
		t.Fatal("cache lost live pages")
	}
}
