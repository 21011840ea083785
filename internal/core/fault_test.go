package core

import (
	"errors"
	"testing"

	"repro/internal/ssd"
	"repro/internal/storage"
)

var errInjected = errors.New("injected fault")

// failWrites makes every write to dev fail until the returned func runs.
func failWrites(dev *ssd.SSD) (heal func()) {
	dev.SetFault(func(op storage.Op, _ int64, _ int) error {
		if op == storage.OpWrite {
			return errInjected
		}
		return nil
	})
	return func() { dev.SetFault(nil) }
}

// TestFailedFlushNeverServesOlder pins the lookup contract across a failed
// flush write: a key answers with its latest acknowledged value, the value
// of an insert that returned an error, or a miss — never an older value.
// Two shapes are covered, each through InsertBatch and through per-key
// Insert calls:
//
//   - rounds: five clean rounds over the same keys, then a sixth whose
//     every flush write fails. The failed images' slots still hold older
//     incarnations' bytes, which must not be probed.
//   - buffered: the latest acknowledged values sit only in the buffers
//     whose flush then fails, while older versions sit on flash.
//
// Each runs on an SSD on the CPU's clock, whose flushes write at once, and
// on one with a timeline of its own, whose flushes hold their images until
// a later flush writes them first: there the fault fails a held image
// whose inserts returned.
func TestFailedFlushNeverServesOlder(t *testing.T) {
	timelines := []struct {
		name string // the subtests' prefix
		cfg  func(testing.TB) (Config, *ssd.SSD)
	}{
		{"", func(t testing.TB) (Config, *ssd.SSD) {
			cfg, _ := testConfig(t)
			return cfg, cfg.Device.(*ssd.SSD)
		}},
		{"own-timeline/", func(t testing.TB) (Config, *ssd.SSD) {
			cfg, _, dev, _ := behindConfig(t)
			return cfg, dev
		}},
	}
	paths := []struct {
		name   string
		insert func(b *BufferHash, keys, vals []uint64) error
	}{
		{"batch", func(b *BufferHash, keys, vals []uint64) error { return b.InsertBatch(keys, vals, nil) }},
		{"serial", func(b *BufferHash, keys, vals []uint64) error {
			var last error
			for i := range keys {
				if err := b.Insert(keys[i], vals[i]); err != nil {
					last = err // keep going: later keys are separate ops
				}
			}
			return last
		}},
	}
	seq := func(lo, n int, v uint64) (keys, vals []uint64) {
		for i := 0; i < n; i++ {
			keys = append(keys, uint64(lo+i))
			vals = append(vals, v)
		}
		return keys, vals
	}
	// older counts keys 1..n whose lookup returns a value below minOK.
	older := func(t *testing.T, b *BufferHash, n int, minOK uint64) (stale, misses int) {
		t.Helper()
		for k := uint64(1); k <= uint64(n); k++ {
			res, err := b.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !res.Found:
				misses++
			case res.Value < minOK:
				stale++
			}
		}
		return stale, misses
	}
	for _, tl := range timelines {
		for _, p := range paths {
			t.Run(tl.name+"rounds/"+p.name, func(t *testing.T) {
				cfg, dev := tl.cfg(t)
				b := mustNew(t, cfg)
				const n = 9000
				for round := uint64(1); round <= 5; round++ {
					keys, vals := seq(1, n, round)
					if err := p.insert(b, keys, vals); err != nil {
						t.Fatal(err)
					}
				}
				heal := failWrites(dev)
				keys, vals := seq(1, n, 6)
				if err := p.insert(b, keys, vals); !errors.Is(err, errInjected) {
					t.Fatalf("faulted round: err = %v, want the injected fault", err)
				}
				heal()
				// Round 5 is the latest acknowledged value; round 6 failed.
				stale, misses := older(t, b, n, 5)
				t.Logf("%d/%d older values, %d misses", stale, n, misses)
				if stale != 0 {
					t.Fatalf("%d/%d keys served a value older than the latest acknowledged one", stale, n)
				}
			})
			t.Run(tl.name+"buffered/"+p.name, func(t *testing.T) {
				cfg, dev := tl.cfg(t)
				b := mustNew(t, cfg)
				const n = 3000 // fits the four buffers without a flush
				keys, vals := seq(1, n, 1)
				if err := p.insert(b, keys, vals); err != nil {
					t.Fatal(err)
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				keys, vals = seq(1, n, 2)
				if err := p.insert(b, keys, vals); err != nil {
					t.Fatal(err)
				}
				heal := failWrites(dev)
				// Fillers overflow every buffer, so each buffer holding a
				// value-2 key tries to flush and fails. On a timeline of
				// its own a flush may hold its image, so Flush then writes
				// the images held since, and either call may fail.
				keys, vals = seq(1<<40, 3*cfg.NumSuperTables()*cfg.EntriesPerBuffer(), 3)
				err := p.insert(b, keys, vals)
				if tl.name != "" {
					if ferr := b.Flush(); err == nil {
						err = ferr
					}
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("filler inserts: err = %v, want the injected fault", err)
				}
				heal()
				stale, misses := older(t, b, n, 2)
				t.Logf("%d/%d older values, %d misses", stale, n, misses)
				if stale != 0 {
					t.Fatalf("%d/%d keys served a value older than the latest acknowledged one", stale, n)
				}
			})
		}
	}
}
