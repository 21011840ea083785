package core

import (
	"errors"
	"testing"

	"repro/internal/ssd"
)

// TestExpireThrough checks incarnation expiry on both layouts, under
// UpdateBased, whose eviction scans a victim unless it is dead. Two super
// tables flush one incarnation each per round (every round inserts fewer
// keys than a buffer holds, then calls Flush), k = 4. Rounds 1 and 2
// write the old keys, round 3 new versions of a quarter of them, round 4
// fresh keys; then ExpireThrough expires the four incarnations of rounds
// 1 and 2.
//
// An old key whose only versions sit in expired incarnations must miss
// with no flash probe; one with a newer version still hits it. Rounds 5
// and 6 evict the expired incarnations: no partial scan and no device
// read. Round 7 evicts round 3's, which are scanned: the control. The
// failed variant runs round 5 with every write failing, so an expired
// incarnation's slot takes a write that is lost (see dropFailedImage);
// both properties must hold across it, and a later ExpireThrough must not
// count the lost incarnation.
func TestExpireThrough(t *testing.T) {
	for _, layout := range []Layout{SharedLog, PartitionedRegions} {
		for _, failed := range []bool{false, true} {
			name := map[Layout]string{SharedLog: "shared-log", PartitionedRegions: "partitioned"}[layout]
			if failed {
				name += "/failed-write"
			}
			t.Run(name, func(t *testing.T) {
				cfg, _ := testConfig(t)
				cfg.PartitionBits = 1
				cfg.Policy = UpdateBased
				cfg.Layout = layout
				b := mustNew(t, cfg)
				dev := cfg.Device.(*ssd.SSD)
				next := uint64(1)
				fresh := func(n int) []uint64 {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = next
						next++
					}
					return keys
				}
				round := func(r uint64, keys []uint64) error {
					for _, k := range keys {
						if err := b.Insert(k, r); err != nil {
							t.Fatal(err)
						}
					}
					return b.Flush()
				}
				mustRound := func(r uint64, keys []uint64) {
					t.Helper()
					if err := round(r, keys); err != nil {
						t.Fatal(err)
					}
				}
				// lookups checks every key's answer: want is the value it
				// must hit with, or 0 for a miss with no flash probe.
				lookups := func(keys []uint64, want uint64) {
					t.Helper()
					probes := b.Stats().FlashProbes
					for _, k := range keys {
						res, err := b.Lookup(k)
						if err != nil {
							t.Fatal(err)
						}
						switch {
						case want == 0 && (res.Found || res.FlashReads != 0):
							t.Fatalf("key %d in expired incarnations only: %+v, want a miss with no probe", k, res)
						case want != 0 && (!res.Found || res.Value != want):
							t.Fatalf("key %d: %+v, want value %d", k, res, want)
						}
					}
					if want == 0 && b.Stats().FlashProbes != probes {
						t.Fatalf("misses in expired incarnations probed flash %d times", b.Stats().FlashProbes-probes)
					}
				}
				// evicting runs round r and returns the partial scans and
				// device reads it caused.
				evicting := func(r uint64, fail bool) (scans, reads uint64) {
					t.Helper()
					s0, r0 := b.Stats().PartialScans, dev.Counters().Reads
					if fail {
						heal := failWrites(dev)
						if err := round(r, fresh(1000)); !errors.Is(err, errInjected) {
							t.Fatalf("faulted round: err = %v, want the injected fault", err)
						}
						heal()
						// Flush stopped at the first failed table; flush the rest.
						if err := b.Flush(); err != nil {
							t.Fatal(err)
						}
					} else {
						mustRound(r, fresh(1000))
					}
					return b.Stats().PartialScans - s0, dev.Counters().Reads - r0
				}

				old := fresh(2000)
				mustRound(1, old[:1000])
				mustRound(2, old[1000:])
				expireSeq := b.Seq()
				mustRound(3, old[:500])
				newer := fresh(1000)
				mustRound(4, newer)
				if got := b.Stats().Flushes; got != 8 {
					t.Fatalf("%d flushes over four rounds, want 8", got)
				}
				b.ExpireThrough(expireSeq)
				b.ExpireThrough(expireSeq)
				if got := b.Stats().Expirations; got != 4 {
					t.Fatalf("Expirations = %d, want 4", got)
				}
				lookups(old[500:], 0)
				lookups(old[:500], 3)
				lookups(newer, 4)

				for r := uint64(5); r <= 6; r++ {
					scans, reads := evicting(r, failed && r == 5)
					if scans != 0 || reads != 0 {
						t.Fatalf("round %d evicted expired incarnations with %d partial scans and %d device reads", r, scans, reads)
					}
					lookups(old[500:], 0)
					lookups(old[:500], 3)
				}
				if scans, reads := evicting(7, false); scans != 2 || reads == 0 {
					t.Fatalf("round 7 evicted live incarnations with %d partial scans and %d device reads, want 2 and some", scans, reads)
				}
				if got := b.Stats().Evictions; got != 6 {
					t.Fatalf("Evictions = %d, want 6", got)
				}
				// Everything still live expires once: incarnations of rounds
				// 4 to 7, less round 5's lost one.
				want := b.Stats().Expirations + 8
				if failed {
					want--
				}
				b.ExpireThrough(b.Seq())
				if got := b.Stats().Expirations; got != want {
					t.Fatalf("Expirations = %d after expiring everything, want %d", got, want)
				}
				lookups(old[500:], 0)
				lookups(newer, 0)
				// Round 7's scan retained round 3's entries in the buffer.
				lookups(old[:500], 3)
			})
		}
	}
}
