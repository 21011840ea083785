package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	const trials = 256
	var totalFlips, totalBits int
	for i := uint64(0); i < trials; i++ {
		x := Mix64(i * 0x9e3779b97f4a7c15)
		for b := uint(0); b < 64; b++ {
			y := x ^ (1 << b)
			diff := Mix64(x) ^ Mix64(y)
			totalFlips += popcount(diff)
			totalBits += 64
		}
	}
	ratio := float64(totalFlips) / float64(totalBits)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("avalanche ratio = %.4f, want ~0.5", ratio)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestMix64Injective(t *testing.T) {
	// Mix64 is a bijection; sample-check for collisions.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	// Two seeds should agree on ~0 of many keys.
	same := 0
	for i := uint64(0); i < 10000; i++ {
		if Hash64Seed(i, 1) == Hash64Seed(i, 2) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d/10000 keys", same)
	}
}

func TestHashBytesMatchesLength(t *testing.T) {
	a := HashBytes([]byte("hello"), 0)
	b := HashBytes([]byte("hello!"), 0)
	if a == b {
		t.Fatal("different inputs hashed equal")
	}
	if HashBytes([]byte("hello"), 0) != a {
		t.Fatal("HashBytes not deterministic")
	}
	if HashBytes([]byte("hello"), 1) == a {
		t.Fatal("seed has no effect")
	}
	if HashBytes(nil, 7) != HashBytes([]byte{}, 7) {
		t.Fatal("nil and empty slice hash differently")
	}
}

func TestDoubleHashCoverage(t *testing.T) {
	// Reduce keeps a power-of-two m a mask, so the double-hash rows
	// h1 + i·h2 of an odd stride h2 are distinct until they wrap.
	const m = 1 << 10
	h1, h2 := uint64(12345), Mix64(12345)|1
	seen := map[uint64]bool{}
	for i := 0; i < m; i++ {
		v := Reduce(h1, m)
		if seen[v] {
			t.Fatalf("row %d repeats %d", i, v)
		}
		seen[v] = true
		h1 += h2
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(key uint64, bits8 uint8) bool {
		bits := uint(bits8 % 20)
		p, r := Split(key, bits)
		if bits > 0 && p >= 1<<bits {
			return false
		}
		// Rebuild the key from its two parts.
		if bits > 0 {
			r |= p << (64 - bits)
		}
		return r == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitZeroBits(t *testing.T) {
	p, r := Split(0xdeadbeef, 0)
	if p != 0 || r != 0xdeadbeef {
		t.Fatalf("Split(x, 0) = (%d, %#x), want (0, 0xdeadbeef)", p, r)
	}
}

func TestSplitPartitionRange(t *testing.T) {
	// All partitions reachable with 4 bits.
	seen := make(map[uint64]bool)
	for i := 0; i < 1<<16; i++ {
		p, _ := Split(Mix64(uint64(i)), 4)
		seen[p] = true
	}
	if len(seen) != 16 {
		t.Fatalf("4-bit split reached %d partitions, want 16", len(seen))
	}
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(key, value uint64) bool {
		var buf [EntrySize]byte
		PutEntry(buf[:], key, value)
		k, v := GetEntry(buf[:])
		return k == key && v == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceInRange(t *testing.T) {
	f := func(x uint64, m64 uint32) bool {
		m := uint64(m64) + 1
		return Reduce(x, m) < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMatchesMaskForPow2(t *testing.T) {
	for shift := uint(0); shift < 40; shift += 7 {
		m := uint64(1) << shift
		for i := uint64(0); i < 1000; i++ {
			x := Mix64(i)
			if Reduce(x, m) != x&(m-1) {
				t.Fatalf("Reduce(%#x, %d) != mask", x, m)
			}
		}
	}
}

func TestFastRange64Uniformity(t *testing.T) {
	// Bucket 1e5 mixed values into 97 buckets (non-power-of-two); every
	// bucket should receive close to its fair share.
	const m, n = 97, 100000
	var counts [m]int
	for i := uint64(0); i < n; i++ {
		counts[FastRange64(Mix64(i), m)]++
	}
	want := float64(n) / m
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("bucket %d has %d values, want ~%.0f", b, c, want)
		}
	}
}
