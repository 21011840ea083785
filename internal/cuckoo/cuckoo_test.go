package cuckoo

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
)

// params128KB is the paper's buffer shape: 8192 slots × 16 B = 128 KB,
// 2 KB pages = 128 slots per page, 4096-entry capacity at 50% load.
func params128KB() Params {
	return Params{NSlots: 8192, PageSlots: 128, Seed: 0xC0FFEE}
}

func TestParamsValidate(t *testing.T) {
	if err := params128KB().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{NSlots: 0, PageSlots: 128},
		{NSlots: 100, PageSlots: 64},
		{NSlots: 128, PageSlots: 1},
		{NSlots: 128, PageSlots: 4}, // one bucket per page: no alternate
		{NSlots: -128, PageSlots: 128},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v validated", p)
		}
	}
}

func TestPaperBufferShape(t *testing.T) {
	p := params128KB()
	if p.MaxItems() != 4096 {
		t.Fatalf("MaxItems = %d, want 4096 (§7.1.1)", p.MaxItems())
	}
	if p.ImageSize() != 128<<10 {
		t.Fatalf("ImageSize = %d, want 128KB", p.ImageSize())
	}
	if p.NPages() != 64 {
		t.Fatalf("NPages = %d, want 64", p.NPages())
	}
}

func TestInsertGet(t *testing.T) {
	tb := New(params128KB())
	if _, err := tb.Insert(42, 1000); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Get(42)
	if !ok || v != 1000 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
	if _, ok := tb.Get(43); ok {
		t.Fatal("absent key found")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestInsertOverwrites(t *testing.T) {
	tb := New(params128KB())
	if old, err := tb.Insert(42, 1); old != 0 || err != nil {
		t.Fatalf("first insert returned (%d, %v)", old, err)
	}
	if old, err := tb.Insert(42, 2); old != 1 || err != nil {
		t.Fatalf("overwrite returned (%d, %v), want the old value 1", old, err)
	}
	if v, _ := tb.Get(42); v != 2 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", tb.Len())
	}
}

func TestZeroKeyRejected(t *testing.T) {
	tb := New(params128KB())
	if _, err := tb.Insert(0, 1); !errors.Is(err, ErrZeroKey) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := tb.Get(0); ok {
		t.Fatal("zero key found")
	}
	if _, ok := tb.Delete(0); ok {
		t.Fatal("zero key deleted")
	}
}

func TestFillToCapacity(t *testing.T) {
	tb := New(params128KB())
	rng := rand.New(rand.NewSource(1))
	inserted := 0
	for inserted < tb.Cap() {
		k := rng.Uint64()
		if k == 0 {
			continue
		}
		_, err := tb.Insert(k, uint64(inserted))
		if err != nil {
			// Page-local displacement can fail slightly before the global
			// cap; it must be rare at 50% load.
			if inserted < tb.Cap()*95/100 {
				t.Fatalf("ErrFull at %d/%d entries (%.1f%%)", inserted, tb.Cap(),
					100*float64(inserted)/float64(tb.Cap()))
			}
			break
		}
		inserted++
	}
	t.Logf("filled %d/%d entries", inserted, tb.Cap())
	if !tb.Full() && inserted == tb.Cap() {
		t.Fatal("Full() false at capacity")
	}
	// One more insert of a fresh key must fail once at cap.
	if inserted == tb.Cap() {
		if _, err := tb.Insert(0xdeadbeefcafe, 1); !errors.Is(err, ErrFull) {
			t.Fatalf("insert past cap: %v", err)
		}
	}
}

func TestAllEntriesRetrievableAtHighLoad(t *testing.T) {
	tb := New(params128KB())
	rng := rand.New(rand.NewSource(2))
	entries := map[uint64]uint64{}
	for len(entries) < tb.Cap() {
		k := rng.Uint64()
		if k == 0 || entries[k] != 0 {
			continue
		}
		v := rng.Uint64()
		if _, err := tb.Insert(k, v); err != nil {
			break
		}
		entries[k] = v
	}
	for k, v := range entries {
		got, ok := tb.Get(k)
		if !ok || got != v {
			t.Fatalf("lost entry %#x: (%d, %v)", k, got, ok)
		}
	}
}

func TestErrFullLeavesTableIntact(t *testing.T) {
	// Force page-local failure: many keys directed into one page.
	p := Params{NSlots: 256, PageSlots: 8, Seed: 7}
	tb := New(p)
	pl := p.Placement()
	// Find keys all hashing to page 0.
	var samePage []uint64
	for k := uint64(1); len(samePage) < 9; k++ {
		if pl.Page(k) == 0 {
			samePage = append(samePage, k)
		}
	}
	stored := map[uint64]uint64{}
	for i, k := range samePage {
		_, err := tb.Insert(k, uint64(i))
		if err == nil {
			stored[k] = uint64(i)
		}
	}
	// Whatever happened, every successfully stored entry must be intact.
	for k, v := range stored {
		got, ok := tb.Get(k)
		if !ok || got != v {
			t.Fatalf("entry %#x lost after ErrFull (got %d, %v)", k, got, ok)
		}
	}
	if tb.Len() != len(stored) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(stored))
	}
}

func TestDelete(t *testing.T) {
	tb := New(params128KB())
	tb.Insert(7, 70)
	if v, ok := tb.Delete(7); !ok || v != 70 {
		t.Fatalf("Delete returned (%d, %v), want (70, true)", v, ok)
	}
	if _, ok := tb.Get(7); ok {
		t.Fatal("deleted key found")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if _, ok := tb.Delete(7); ok {
		t.Fatal("double delete returned true")
	}
}

func TestReset(t *testing.T) {
	tb := New(params128KB())
	tb.Insert(1, 1)
	tb.Insert(2, 2)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Len after Reset")
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("entry survived Reset")
	}
}

func TestModelBasedQuick(t *testing.T) {
	// Property: the table behaves like a map under random insert/delete/get
	// as long as it does not overflow.
	type op struct {
		Kind  uint8
		Key   uint16 // small key space to force collisions
		Value uint64
	}
	tb := New(Params{NSlots: 1024, PageSlots: 64, Seed: 3})
	ref := map[uint64]uint64{}
	f := func(ops []op) bool {
		tb.Reset()
		for k := range ref {
			delete(ref, k)
		}
		for _, o := range ops {
			key := uint64(o.Key) + 1 // non-zero
			switch o.Kind % 3 {
			case 0:
				if old, err := tb.Insert(key, o.Value); err == nil {
					if old != ref[key] {
						return false // the overwritten value, 0 for a new key
					}
					ref[key] = o.Value
				} else if _, exists := ref[key]; exists {
					return false // overwrite must not fail
				}
			case 1:
				want, wantOK := ref[key]
				if v, ok := tb.Delete(key); ok != wantOK || v != want {
					return false
				}
				delete(ref, key)
			case 2:
				v, ok := tb.Get(key)
				want, wantOK := ref[key]
				if ok != wantOK || (ok && v != want) {
					return false
				}
			}
		}
		if tb.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tb.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeLookupInPage(t *testing.T) {
	// The flash lookup path: serialize the table, extract only the key's
	// page, and find the value there.
	p := params128KB()
	tb := New(p)
	rng := rand.New(rand.NewSource(4))
	entries := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		k := rng.Uint64() | 1
		v := rng.Uint64()
		if _, err := tb.Insert(k, v); err == nil {
			entries[k] = v
		}
	}
	image := make([]byte, p.ImageSize())
	tb.Serialize(image)
	pl := p.Placement()
	for k, v := range entries {
		page := pl.Page(k)
		off, n := p.PageByteRange(page)
		got, ok := pl.LookupInPage(image[off:off+n], k)
		if !ok || got != v {
			t.Fatalf("LookupInPage(%#x) = (%d, %v), want %d", k, got, ok, v)
		}
	}
	// Absent keys are not found.
	misses := 0
	for i := 0; i < 1000; i++ {
		k := rng.Uint64() | 1
		if _, exists := entries[k]; exists {
			continue
		}
		page := pl.Page(k)
		off, n := p.PageByteRange(page)
		if _, ok := pl.LookupInPage(image[off:off+n], k); ok {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d phantom hits in serialized image", misses)
	}
}

func TestDecodeImage(t *testing.T) {
	p := Params{NSlots: 64, PageSlots: 8, Seed: 1}
	tb := New(p)
	want := map[uint64]uint64{10: 100, 20: 200, 30: 300}
	for k, v := range want {
		if _, err := tb.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	image := make([]byte, p.ImageSize())
	tb.Serialize(image)
	got := map[uint64]uint64{}
	p.DecodeImage(image, func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("DecodeImage found %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("DecodeImage: %d = %d, want %d", k, got[k], v)
		}
	}
}

func TestSerializeBufferTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(params128KB()).Serialize(make([]byte, 10))
}

func TestPageLocality(t *testing.T) {
	// Invariant behind the 1-flash-read lookup: after arbitrary inserts
	// with displacement, every entry lives in the page Placement assigns
	// to its key.
	p := Params{NSlots: 1024, PageSlots: 32, Seed: 9}
	tb := New(p)
	rng := rand.New(rand.NewSource(5))
	var inserted []uint64
	for i := 0; i < p.MaxItems(); i++ {
		k := rng.Uint64() | 1
		if _, err := tb.Insert(k, uint64(i)); err == nil {
			inserted = append(inserted, k)
		}
	}
	for _, k := range inserted {
		// Find the slot holding k and check its page.
		found := false
		for s := 0; s < p.NSlots; s++ {
			if tb.keys[s] == k {
				if pl := p.Placement(); s/p.PageSlots != pl.Page(k) {
					t.Errorf("key %#x stored in page %d, hashed page %d", k, s/p.PageSlots, pl.Page(k))
				}
				found = true
			}
		}
		if !found {
			t.Errorf("key %#x not found in slot scan", k)
		}
	}
}

func TestEntrySizeMatchesPaper(t *testing.T) {
	if hashutil.EntrySize != 16 {
		t.Fatalf("entry size = %d, want 16 bytes (§7.1.1)", hashutil.EntrySize)
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New(params128KB())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.Full() {
			tb.Reset()
		}
		tb.Insert(rng.Uint64()|1, uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tb := New(params128KB())
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, tb.Cap())
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		tb.Insert(keys[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(keys[i%len(keys)])
	}
}

// FuzzPlacement checks the precomputed placement against its definition:
// Hash64Seed under Seed, Seed+1 and Seed+2, reduced with %, for page and
// bucket counts that are and are not powers of two.
func FuzzPlacement(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint16(64), uint8(32))
	f.Add(uint64(0xdeadbeef), uint64(0xC0FFEE), uint16(63), uint8(32))
	f.Add(uint64(7), uint64(1<<63), uint16(1), uint8(3))
	f.Add(^uint64(0), ^uint64(0), uint16(1000), uint8(254))
	f.Fuzz(func(t *testing.T, key, seed uint64, pagesIn uint16, bucketsIn uint8) {
		pages := 1 + int(pagesIn)%4096
		buckets := 2 + int(bucketsIn)%255
		p := Params{NSlots: pages * buckets * BucketSlots, PageSlots: buckets * BucketSlots, Seed: seed}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		wantPage := int(hashutil.Hash64Seed(key, seed) % uint64(pages))
		b1 := int(hashutil.Hash64Seed(key, seed+1) % uint64(buckets))
		b2 := int(hashutil.Hash64Seed(key, seed+2) % uint64(buckets))
		if b1 == b2 {
			b2 = (b2 + 1) % buckets
		}
		pl := p.Placement()
		if got := pl.Page(key); got != wantPage {
			t.Fatalf("Page(%#x) = %d, want %d (%d pages, seed %#x)", key, got, wantPage, pages, seed)
		}
		s1, s2 := pl.bucketSlots(key)
		if s1 != b1*BucketSlots || s2 != b2*BucketSlots {
			t.Fatalf("bucketSlots(%#x) = %d, %d, want %d, %d (%d buckets, seed %#x)",
				key, s1, s2, b1*BucketSlots, b2*BucketSlots, buckets, seed)
		}
	})
}
