package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/storage"
)

// debtDevice is an index device that checks, at every call, that the
// instance issuing it has no CPU debt outstanding: a submission cannot
// start before the CPU work that issued it (see issueDevice). It counts
// its calls, its ReadBatch submissions and the calls that broke the rule.
type debtDevice struct {
	storage.Device
	b *BufferHash

	calls, readBatches, early int
	worst                     time.Duration
}

func (d *debtDevice) check() {
	d.calls++
	if debt := d.b.cpuDebt; debt != 0 {
		d.early++
		d.worst = max(d.worst, debt)
	}
}

func (d *debtDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.check()
	return d.Device.ReadAt(p, off)
}

func (d *debtDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.check()
	return d.Device.WriteAt(p, off)
}

func (d *debtDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	d.check()
	d.readBatches++
	return d.Device.ReadBatch(reqs)
}

func (d *debtDevice) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	d.check()
	return d.Device.WriteBatch(reqs)
}

// TestNoDeviceCallWithCPUDebt checks that every index device call is made
// with the operation's CPU charges landed, on a device on the CPU's own
// clock and on one with a timeline of its own, under full and partial
// discard: batched inserts whose flushes evict (and, under UpdateBased,
// scan their evicted images, whose reads are issued in the middle of
// phase A), batched lookups whose phase A hands pages over to an idle
// device, and Flush.
func TestNoDeviceCallWithCPUDebt(t *testing.T) {
	for _, row := range []struct {
		name   string
		behind bool
		policy EvictionPolicy
	}{
		{"cpu-clock/fifo", false, FIFO},
		{"cpu-clock/update", false, UpdateBased},
		{"own-timeline/fifo", true, FIFO},
		{"own-timeline/update", true, UpdateBased},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg, _ := testConfig(t)
			if row.behind {
				cfg, _, _, _ = behindConfig(t)
			}
			cfg.Policy = row.policy
			dev := &debtDevice{Device: cfg.Device}
			cfg.Device = dev
			b := mustNew(t, cfg)
			dev.b = b

			// 200,000 inserts of keys drawn uniformly from 40,000, in
			// 64-key calls: each partition sees about 10,000 keys against
			// four incarnations of 2,048 entries, so flushes evict, and
			// under partial discard their scans keep live entries, which
			// cascade into further scans within one flush.
			const keys, calls, per = 40000, 3125, 64
			rng := rand.New(rand.NewPCG(1, 2))
			ks, vs := make([]uint64, per), make([]uint64, per)
			for c := range calls {
				for i := range ks {
					ks[i] = rng.Uint64N(keys) + 1
					vs[i] = uint64(c)
				}
				if err := b.InsertBatch(ks, vs, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := b.Stats(); row.policy == UpdateBased && st.PartialScans == 0 {
				t.Fatal("no partial-discard scan: the inserts did not reach the image reads")
			}

			// Lookups of 512 keys each, many of them on flash: a call that
			// makes more ReadBatch submissions than it has probing rounds
			// (its keys' most flash reads) handed pages over in phase A.
			handOvers := 0
			lk, res := make([]uint64, 512), make([]LookupResult, 512)
			for range 8 {
				for i := range lk {
					lk[i] = rng.Uint64N(keys) + 1
				}
				before := dev.readBatches
				if err := b.LookupBatch(lk, res); err != nil {
					t.Fatal(err)
				}
				rounds := 0
				for _, r := range res {
					rounds = max(rounds, r.FlashReads)
				}
				if dev.readBatches-before > rounds {
					handOvers++
				}
			}
			if handOvers == 0 {
				t.Fatal("no lookup call handed pages over in phase A")
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if dev.early > 0 {
				t.Fatalf("%d of %d device calls were made with CPU debt outstanding, up to %v", dev.early, dev.calls, dev.worst)
			}
			t.Logf("%d device calls, %d partial scans, %d of 8 lookup calls handed pages over", dev.calls, b.Stats().PartialScans, handOvers)
		})
	}
}
