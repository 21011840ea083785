// Package cuckoo implements the hash table used for BufferHash buffers and
// their on-flash incarnation images: cuckoo hashing with two hash functions
// (§7.1: "The hash table in a buffer is implemented using Cuckoo hashing
// with two hash functions"), fixed 16-byte entries, and utilization capped
// at 50% (§7.1.1).
//
// Buckets hold four slots, following the bucketized variant of the paper's
// own citation [25] (Erlingsson, Manasse, McSherry, "A cool and practical
// alternative to traditional hash tables"); with two choices of 4-slot
// buckets the load threshold is ≈97%, so the 50% utilization cap leaves
// enormous headroom and inserts essentially never fail before the cap.
//
// The table is page-local: a key's page is chosen by one hash, and both of
// its candidate buckets lie within that page. When a buffer is flushed to
// flash verbatim, a later lookup therefore reads exactly one flash page per
// incarnation probed — the paper's "only the relevant part of the
// incarnation (e.g., a flash page) can be read directly" (§5.1.1).
// Displacement chains never cross pages, so the property is preserved under
// cuckoo kicks.
//
// A slot is empty iff its key field is zero; callers must normalize keys to
// be non-zero (hashutil keys are full-avalanche hashes, and the core
// package maps 0 to 1).
//
// Value words are opaque 64 bits: the table never inspects them. The byte
// keyed clam path stores tagged value-log pointers in them (see
// storage.ValueLog.AppendBatch); the U64 fast path stores raw values. Either way
// the slot format is the same 16-byte (key, value) entry.
package cuckoo

import (
	"errors"
	"fmt"

	"repro/internal/hashutil"
)

// Table errors.
var (
	// ErrFull is returned when the table reached its utilization cap or a
	// displacement chain could not be resolved; BufferHash reacts by
	// flushing the buffer.
	ErrFull = errors.New("cuckoo: table full")
	// ErrZeroKey is returned for the reserved empty-slot key.
	ErrZeroKey = errors.New("cuckoo: zero key is reserved")
)

// MaxLoad is the utilization cap: a table with n slots accepts at most
// n·MaxLoad entries (§7.1.1 uses 50% to bound collisions and avoid cuckoo
// rebuilds).
const MaxLoad = 0.5

// BucketSlots is the number of slots per cuckoo bucket.
const BucketSlots = 4

// maxKicks bounds a displacement chain within one page.
const maxKicks = 64

// Params are the structural parameters of a table. Incarnation images can
// only be searched with the same Params used to build them, so super tables
// persist Params alongside each incarnation's Bloom filter.
type Params struct {
	NSlots    int    // total slots; multiple of PageSlots
	PageSlots int    // slots per locality page; multiple of BucketSlots
	Seed      uint64 // base seed for the hash family
}

// Validate checks structural invariants.
func (p Params) Validate() error {
	if p.NSlots <= 0 || p.PageSlots <= 0 {
		return fmt.Errorf("cuckoo: non-positive sizes %+v", p)
	}
	if p.NSlots%p.PageSlots != 0 {
		return fmt.Errorf("cuckoo: NSlots %d not a multiple of PageSlots %d", p.NSlots, p.PageSlots)
	}
	if p.PageSlots%BucketSlots != 0 || p.PageSlots/BucketSlots < 2 {
		return fmt.Errorf("cuckoo: PageSlots %d must hold at least two %d-slot buckets", p.PageSlots, BucketSlots)
	}
	return nil
}

// NPages returns the number of locality pages.
func (p Params) NPages() int { return p.NSlots / p.PageSlots }

// MaxItems returns the entry capacity under MaxLoad.
func (p Params) MaxItems() int { return int(float64(p.NSlots) * MaxLoad) }

// ImageSize returns the serialized size in bytes.
func (p Params) ImageSize() int { return p.NSlots * hashutil.EntrySize }

// Placement maps keys to slots under one Params: a key's page is
// Hash64Seed(key, Seed) mod NPages, and its two candidate buckets within
// the page are Hash64Seed(key, Seed+1) and Hash64Seed(key, Seed+2) mod the
// page's bucket count, the second moved to the next bucket if they
// coincide. The three mixed seeds are computed once, and a power-of-two
// modulus becomes a mask. Every key-to-slot mapping goes through it — a
// Table's Get, Insert and Delete, and LookupInPage on a flushed image — so
// a table and its images always agree.
type Placement struct {
	seeds   [3]uint64 // SeedMix of Seed, Seed+1 and Seed+2
	pages   modulus
	buckets modulus
}

// modulus reduces a hash modulo n, by a mask when n is a power of two.
type modulus struct {
	n    uint64
	pow2 bool
}

func (m modulus) reduce(x uint64) uint64 {
	if m.pow2 {
		return x & (m.n - 1)
	}
	return x % m.n
}

// Placement returns p's key-to-slot mapping.
func (p Params) Placement() Placement {
	mod := func(n int) modulus { return modulus{n: uint64(n), pow2: n&(n-1) == 0} }
	return Placement{
		seeds:   [3]uint64{hashutil.SeedMix(p.Seed), hashutil.SeedMix(p.Seed + 1), hashutil.SeedMix(p.Seed + 2)},
		pages:   mod(p.NPages()),
		buckets: mod(p.PageSlots / BucketSlots),
	}
}

// Page returns the locality page of a key.
func (pl *Placement) Page(key uint64) int {
	return int(pl.pages.reduce(hashutil.Mix64(key ^ pl.seeds[0])))
}

// bucketSlots returns the first in-page slot of each of key's two
// candidate buckets. The buckets are always distinct.
func (pl *Placement) bucketSlots(key uint64) (int, int) {
	b1 := pl.buckets.reduce(hashutil.Mix64(key ^ pl.seeds[1]))
	b2 := pl.buckets.reduce(hashutil.Mix64(key ^ pl.seeds[2]))
	if b1 == b2 {
		b2 = pl.buckets.reduce(b2 + 1)
	}
	return int(b1) * BucketSlots, int(b2) * BucketSlots
}

// Table is an in-memory cuckoo hash table. Not safe for concurrent use.
type Table struct {
	params Params
	place  Placement
	keys   []uint64
	values []uint64
	count  int
}

// New creates an empty table. It panics on invalid Params (configurations
// are static).
func New(params Params) *Table {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Table{
		params: params,
		place:  params.Placement(),
		keys:   make([]uint64, params.NSlots),
		values: make([]uint64, params.NSlots),
	}
}

// Placement returns the table's key-to-slot mapping, which is also that of
// every image serialized from it.
func (t *Table) Placement() *Placement { return &t.place }

// Len returns the number of entries.
func (t *Table) Len() int { return t.count }

// Cap returns the entry capacity (NSlots·MaxLoad).
func (t *Table) Cap() int { return t.params.MaxItems() }

// Full reports whether the table is at capacity.
func (t *Table) Full() bool { return t.count >= t.Cap() }

// findSlot returns the slot index holding key, or -1.
func (t *Table) findSlot(key uint64) int {
	base := t.place.Page(key) * t.params.PageSlots
	s1, s2 := t.place.bucketSlots(key)
	for _, s := range [2]int{base + s1, base + s2} {
		for i, k := range t.keys[s : s+BucketSlots] {
			if k == key {
				return s + i
			}
		}
	}
	return -1
}

// Get returns the value stored under key.
func (t *Table) Get(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	if s := t.findSlot(key); s >= 0 {
		return t.values[s], true
	}
	return 0, false
}

// emptyIn returns an empty slot in the bucket starting at slot s, or -1.
func (t *Table) emptyIn(s int) int {
	for i, k := range t.keys[s : s+BucketSlots] {
		if k == 0 {
			return s + i
		}
	}
	return -1
}

// Insert stores (key, value), overwriting any existing value for key, and
// returns the value it overwrote (0 when key was absent). It returns ErrFull if the table is at its utilization cap or the
// displacement chain within the key's page could not be resolved; in either
// case the table is unchanged.
//
// The overwrite check and the empty-slot search share one pass over the
// two candidate buckets (hashing the key once), since both need to scan
// the same eight slots; the displacement walk below is the rare path.
func (t *Table) Insert(key, value uint64) (old uint64, err error) {
	if key == 0 {
		return 0, ErrZeroKey
	}
	base := t.place.Page(key) * t.params.PageSlots
	s1, s2 := t.place.bucketSlots(key)
	empty := -1
	for _, s := range [2]int{base + s1, base + s2} {
		for i := 0; i < BucketSlots; i++ {
			switch t.keys[s+i] {
			case key:
				old, t.values[s+i] = t.values[s+i], value
				return old, nil
			case 0:
				if empty < 0 {
					empty = s + i
				}
			}
		}
	}
	if t.count >= t.Cap() {
		return 0, ErrFull
	}
	if empty >= 0 {
		t.keys[empty], t.values[empty] = key, value
		t.count++
		return 0, nil
	}
	// Displace within the page, recording the path so a failed walk can be
	// unwound exactly (the table must be unchanged on ErrFull).
	var path [maxKicks]int
	curKey, curVal := key, value
	bucket := s1 // in-page first slot of the bucket being kicked from
	for kick := 0; kick < maxKicks; kick++ {
		// Deterministic victim rotation within the bucket.
		s := base + bucket + kick%BucketSlots
		curKey, t.keys[s] = t.keys[s], curKey
		curVal, t.values[s] = t.values[s], curVal
		path[kick] = s
		// Move the displaced entry toward its alternate bucket.
		a1, a2 := t.place.bucketSlots(curKey)
		alt := a1
		if alt == bucket {
			alt = a2
		}
		if es := t.emptyIn(base + alt); es >= 0 {
			t.keys[es], t.values[es] = curKey, curVal
			t.count++
			return 0, nil
		}
		bucket = alt
	}
	// Unwind: swapping back in reverse order is the exact inverse of the
	// walk, leaving the table as it was and curKey == key.
	for i := maxKicks - 1; i >= 0; i-- {
		s := path[i]
		curKey, t.keys[s] = t.keys[s], curKey
		curVal, t.values[s] = t.values[s], curVal
	}
	if curKey != key {
		panic("cuckoo: unwind failed to restore the original key")
	}
	return 0, ErrFull
}

// Delete removes key, returning its value and whether it was present.
func (t *Table) Delete(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	if s := t.findSlot(key); s >= 0 {
		old := t.values[s]
		t.keys[s], t.values[s] = 0, 0
		t.count--
		return old, true
	}
	return 0, false
}

// Reset clears the table for reuse.
func (t *Table) Reset() {
	for i := range t.keys {
		t.keys[i] = 0
		t.values[i] = 0
	}
	t.count = 0
}

// Serialize writes the table as a flat slot image into dst, which must be
// at least Params().ImageSize() bytes. Slot i occupies bytes
// [i·16, i·16+16); empty slots are all-zero.
func (t *Table) Serialize(dst []byte) {
	if len(dst) < t.params.ImageSize() {
		panic(fmt.Sprintf("cuckoo: serialize buffer %d < image size %d", len(dst), t.params.ImageSize()))
	}
	for i := range t.keys {
		hashutil.PutEntry(dst[i*hashutil.EntrySize:], t.keys[i], t.values[i])
	}
}

// PageByteRange returns the byte range [off, off+n) that page holds within
// a serialized image.
func (p Params) PageByteRange(page int) (off, n int) {
	n = p.PageSlots * hashutil.EntrySize
	return page * n, n
}

// LookupInPage searches a serialized page image (PageSlots·16 bytes, as
// produced by Serialize for one page) for key, using the candidate buckets
// of the placement. This is the incarnation lookup path: the caller reads
// just this page from flash.
func (pl *Placement) LookupInPage(pageImage []byte, key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	s1, s2 := pl.bucketSlots(key)
	for _, s := range [2]int{s1, s2} {
		bucket := pageImage[s*hashutil.EntrySize : (s+BucketSlots)*hashutil.EntrySize]
		for e := 0; e < len(bucket); e += hashutil.EntrySize {
			if k, v := hashutil.GetEntry(bucket[e:]); k == key {
				return v, true
			}
		}
	}
	return 0, false
}

// DecodeImage parses a full serialized image, calling fn for every non-empty
// entry (used by partial-discard eviction scans, §5.1.2).
func (p Params) DecodeImage(image []byte, fn func(key, value uint64) bool) {
	n := len(image) / hashutil.EntrySize
	if n > p.NSlots {
		n = p.NSlots
	}
	for i := 0; i < n; i++ {
		k, v := hashutil.GetEntry(image[i*hashutil.EntrySize:])
		if k == 0 {
			continue
		}
		if !fn(k, v) {
			return
		}
	}
}
