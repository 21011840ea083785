package clam

import (
	"fmt"
	"testing"
)

// TestSerialOpAllocs is the allocation guard for the per-key surface: on a
// warmed store every per-key op is a one-key call of its batch chunk path
// on stack arrays, so it must not allocate — except Get, which returns a
// copy of the value. The store mixes buffered and flushed keys, hits and
// misses, so lookups probe flash and inserts flush.
func TestSerialOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; CI runs this guard in a non-race step")
	}
	c := openCLAMT(t, WithDevice(IntelSSD), WithFlash(16<<20), WithMemory(4<<20),
		WithValueLog(8<<20), WithSeed(11))
	const n = 4096
	bkeys := make([][]byte, n)
	for i := range bkeys {
		bkeys[i] = []byte(fmt.Sprintf("key-%05d", i))
	}
	val := []byte("a sixteen-byte v")
	// Warm: fill the buffers past their first flushes on both key families
	// and let every scratch buffer reach its working size.
	for round := 0; round < 3; round++ {
		for i := 0; i < 40000; i++ {
			if err := c.PutU64(uint64(i)*0x9e3779b97f4a7c15|1, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range bkeys {
			if err := c.Put(k, val); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	next := func() int { i++; return i }
	for _, op := range []struct {
		name  string
		bound float64
		call  func() error
	}{
		{"PutU64", 0, func() error { k := next(); return c.PutU64(uint64(k)*0x9e3779b97f4a7c15|1, 1) }},
		{"GetU64", 0, func() error { _, _, err := c.GetU64(uint64(next())*0x9e3779b97f4a7c15 | 1); return err }},
		{"DeleteU64", 0, func() error { return c.DeleteU64(uint64(next())*0x9e3779b97f4a7c15 | 1) }},
		{"Put", 0, func() error { return c.Put(bkeys[next()%n], val) }},
		{"Get", 1, func() error { _, _, err := c.Get(bkeys[next()%n]); return err }},
		{"Delete", 0, func() error { return c.Delete(bkeys[next()%n]) }},
	} {
		i = 0
		allocs := testing.AllocsPerRun(2000, func() {
			if err := op.call(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		})
		t.Logf("%s: %.2f allocs per call", op.name, allocs)
		if allocs > op.bound {
			t.Errorf("%s allocates %.2f per warmed call; want at most %.0f", op.name, allocs, op.bound)
		}
	}
}
