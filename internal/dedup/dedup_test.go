package dedup

import (
	"bytes"
	"testing"

	"repro/clam"
	"repro/internal/bdb"
	"repro/internal/hashutil"
	"repro/internal/ssd"
	"repro/internal/vclock"
)

func openIndex(t *testing.T, flash, mem int64, clock *vclock.Clock) clam.Store {
	t.Helper()
	st, err := clam.Open(
		clam.WithDevice(clam.IntelSSD),
		clam.WithFlash(flash), clam.WithMemory(mem), clam.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFingerprintSetDeterministicNonZero(t *testing.T) {
	s := NewFingerprintSet(1, 1000)
	seen := map[string]bool{}
	for i := int64(0); i < s.Len(); i++ {
		fp := s.At(i)
		if len(fp) != FingerprintBytes {
			t.Fatalf("fingerprint %d has %d bytes", i, len(fp))
		}
		if seen[string(fp)] {
			t.Fatalf("duplicate fingerprint at %d", i)
		}
		seen[string(fp)] = true
	}
	if !bytes.Equal(s.At(7), NewFingerprintSet(1, 1000).At(7)) {
		t.Fatal("non-deterministic")
	}
}

func TestMergeCountsNewAndDuplicate(t *testing.T) {
	clock := vclock.New()
	c := openIndex(t, 16<<20, 4<<20, clock)
	base := NewFingerprintSet(1, 20000)
	if err := Populate(c, base); err != nil {
		t.Fatal(err)
	}
	incoming := NewOverlappingSet(base, 2, 10000, 0.4)
	res, err := MergeOverlapping(c, incoming, clock)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 10000 {
		t.Fatalf("scanned %d", res.Scanned)
	}
	// 40% of incoming overlap the base.
	if res.Duplicates < 3800 || res.Duplicates > 4200 {
		t.Fatalf("duplicates = %d, want ≈4000", res.Duplicates)
	}
	if res.New+res.Duplicates != res.Scanned {
		t.Fatal("counts inconsistent")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Rate() <= 0 {
		t.Fatal("rate not computed")
	}
	// Merged fingerprints must resolve to their chunk locator.
	loc, ok, err := c.Get(incoming.At(9999))
	if err != nil || !ok {
		t.Fatalf("merged fingerprint missing: %v %v", ok, err)
	}
	if !bytes.Equal(loc, incoming.LocatorAt(9999)) {
		t.Fatalf("merged locator = %q, want %q", loc, incoming.LocatorAt(9999))
	}
}

func TestCLAMMergeMuchFasterThanBDB(t *testing.T) {
	// §3: BDB merge ~2 hours vs CLAM ~2 minutes (≈60x). At our scale the
	// exact factor varies, but the order-of-magnitude gap must hold.
	const (
		baseN     = 30000
		incomingN = 15000
	)
	base := NewFingerprintSet(10, baseN)

	clockC := vclock.New()
	c := openIndex(t, 32<<20, 8<<20, clockC)
	if err := Populate(c, base); err != nil {
		t.Fatal(err)
	}
	clamRes, err := MergeOverlapping(c, NewOverlappingSet(base, 11, incomingN, 0.3), clockC)
	if err != nil {
		t.Fatal(err)
	}

	clockB := vclock.New()
	dev := ssd.New(ssd.IntelX18M(), 32<<20, clockB)
	h, err := bdb.NewHashIndex(bdb.Options{Device: dev, CapacityEntries: baseN + incomingN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bdbIdx := bdbAdapter{h}
	if err := Populate(bdbIdx, base); err != nil {
		t.Fatal(err)
	}
	bdbRes, err := MergeOverlapping(bdbIdx, NewOverlappingSet(base, 11, incomingN, 0.3), clockB)
	if err != nil {
		t.Fatal(err)
	}

	speedup := float64(bdbRes.Elapsed) / float64(clamRes.Elapsed)
	t.Logf("merge of %d fps: CLAM %v, BDB %v (%.0fx speedup; paper ≈60x)",
		incomingN, clamRes.Elapsed, bdbRes.Elapsed, speedup)
	if speedup < 10 {
		t.Fatalf("CLAM merge speedup %.1fx, want ≥10x", speedup)
	}
}

// bdbAdapter narrows *bdb.HashIndex to the dedup.Index interface the way
// the paper-era API forced everyone to: full fingerprints truncated to 64
// bits, locators to a word.
type bdbAdapter struct{ h *bdb.HashIndex }

func (a bdbAdapter) Put(fp, locator []byte) error {
	return a.h.Insert(hashutil.HashBytes(fp, 42)|1, uint64(len(locator)))
}
func (a bdbAdapter) Get(fp []byte) ([]byte, bool, error) {
	_, ok, err := a.h.Lookup(hashutil.HashBytes(fp, 42) | 1)
	return nil, ok, err
}

func TestPlainMerge(t *testing.T) {
	clock := vclock.New()
	c := openIndex(t, 8<<20, 2<<20, clock)
	res, err := merge(c, NewFingerprintSet(3, 5000), clock)
	if err != nil {
		t.Fatal(err)
	}
	if res.New != 5000 || res.Duplicates != 0 {
		t.Fatalf("fresh merge: %+v", res)
	}
	// Merging the same set again: all duplicates.
	res, err = merge(c, NewFingerprintSet(3, 5000), clock)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 5000 || res.New != 0 {
		t.Fatalf("repeat merge: %+v", res)
	}
}
