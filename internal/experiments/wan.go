package experiments

import (
	"fmt"

	"repro/clam"
	"repro/internal/ssd"
	"repro/internal/vclock"
	"repro/internal/wanopt"
	"repro/internal/workload"
)

// clamU64 exposes a clam.Store's inline fast path as a wanopt.U64Index —
// the paper's own design point: the evaluated optimizer stored 32–64 bit
// fingerprints (§7.1.1), so the figures are regenerated on the fast path
// and the full-fingerprint byte API is exercised by the wanopt tests and
// examples instead.
type clamU64 struct{ st clam.Store }

func (c clamU64) Insert(k, v uint64) error              { return c.st.PutU64(k, v) }
func (c clamU64) Lookup(k uint64) (uint64, bool, error) { return c.st.GetU64(k) }

// wanIndexKind selects the fingerprint index of a WAN optimizer run.
type wanIndexKind int

const (
	// blockingCLAM is the paper's CLAM (§5.2): its index is one Transcend
	// SSD on the CPU's clock (WithCustomDevice), so an insert that fills
	// the buffer pays for its flush and its write.
	blockingCLAM wanIndexKind = iota
	// behindCLAM is a kind-opened Transcend CLAM: its index is striped
	// over two SSDs with timelines of their own, and its flushes' work
	// runs behind its calls (see core.BufferHash.WriteBehind).
	behindCLAM
	// bdbIndex is the BerkeleyDB-style hash table on the Transcend SSD.
	bdbIndex
)

// wanIndex builds the fingerprint index for a WAN optimizer run.
//
// At the paper's scale the fingerprint table (32 GB) dwarfs the DRAM
// buffers, so duplicate fingerprints are found on FLASH — that flash
// lookup cost is exactly what limits the optimizer's top speed (Fig 9's
// right edge). To preserve that regime at reduced scale the index gets
// deliberately small buffers (32 KB × 1 super table = 1 K entries) and is
// pre-warmed past one eviction cycle so flushing is steady-state.
func wanIndex(sc Scale, kind wanIndexKind) (wanopt.Index, *vclock.Clock, error) {
	const idxFlash = 2 << 20 // 64 K fingerprints on flash, 1 K buffered
	clock := vclock.New()
	var u64 wanopt.U64Index
	var behind clam.Store
	if kind != bdbIndex {
		opts := []clam.Option{
			clam.WithDevice(clam.TranscendSSD),
			clam.WithFlash(idxFlash),
			clam.WithBufferKB(32),
			clam.WithMaxIncarnations(64),
			clam.WithClock(clock),
		}
		if kind == blockingCLAM {
			opts = append(opts, clam.WithCustomDevice(ssd.New(ssd.TranscendTS32(), idxFlash, clock)))
		}
		c, err := clam.Open(opts...)
		if err != nil {
			return nil, nil, err
		}
		u64 = clamU64{c}
		if kind == behindCLAM {
			behind = c
		}
	} else {
		h, err := newBDB(onSSD(ssd.TranscendTS32()), idxFlash/32, clock, 1)
		if err != nil {
			return nil, nil, err
		}
		u64 = h
	}
	// Pre-warm with unrelated fingerprints so the structures are in
	// steady state when the trace arrives; the scenarios measure time
	// deltas, so warm-up cost is excluded. The CLAM warms past a full
	// eviction cycle; BDB (no eviction) warms to ~60% occupancy, leaving
	// room for the trace's new fingerprints.
	warm := int(idxFlash/32) * 5 / 4
	if kind == bdbIndex {
		warm = int(idxFlash/32) * 6 / 10
	}
	for i := 0; i < warm; i++ {
		fp := uint64(i)*2654435761 + (1 << 62)
		if err := u64.Insert(fp|1, 1); err != nil {
			return nil, nil, err
		}
	}
	// A kind-opened CLAM still holds the warm-up's last flush images and
	// runs their writes behind it; Flush writes them and waits, so the
	// first measured lookup does not queue behind warm-up work.
	if behind != nil {
		if err := behind.Flush(); err != nil {
			return nil, nil, err
		}
	}
	return wanopt.Truncated{U64: u64}, clock, nil
}

// Fig9 regenerates Figure 9: effective bandwidth improvement versus link
// speed for CLAM-backed and BDB-backed WAN optimizers (Transcend SSD), at
// 50% and 15% trace redundancy. The paper's blocking CLAM is the figure's
// CLAM; a kind-opened CLAM, whose flushes run behind its calls, is
// reported next to it.
func Fig9(sc Scale) (Report, error) {
	r := Report{
		ID:    "fig9",
		Title: "WAN optimizer: effective bandwidth improvement vs link speed (Transcend)",
		PaperClaim: "BDB ≈2x only up to ~10Mbps then collapses; CLAM ≈2x through " +
			"~100Mbps, reasonable at 200Mbps, bottleneck by 400Mbps (50% redundancy trace)",
	}
	r.addRow("bufferhash: the paper's blocking CLAM; write-behind: a kind-opened CLAM whose flushes run behind its calls")
	speeds := []int64{10, 20, 100, 200, 400}
	for _, red := range []float64{0.5, 0.15} {
		r.addRow("redundancy %.0f%%:", red*100)
		r.addRow("%10s %14s %14s %14s", "Mbps", "bufferhash", "write-behind", "berkeleydb")
		for _, mbps := range speeds {
			var imps [3]float64
			for i, kind := range []wanIndexKind{blockingCLAM, behindCLAM, bdbIndex} {
				// Objects are large (2 MB mean) so the trace carries far
				// more distinct chunks than the index can buffer in DRAM.
				tr := workload.GenerateTrace(workload.TraceConfig{
					Objects:         sc.TraceObjects,
					MeanObjectBytes: 2 << 20,
					Redundancy:      red,
					Seed:            97,
				})
				idx, clock, err := wanIndex(sc, kind)
				if err != nil {
					return r, err
				}
				o, err := wanopt.New(wanopt.Config{
					Index:          idx,
					Clock:          clock,
					LinkBitsPerSec: mbps * 1e6,
				})
				if err != nil {
					return r, err
				}
				res, err := wanopt.RunThroughputTest(o, tr)
				if err != nil {
					return r, err
				}
				imps[i] = res.Improvement()
			}
			r.addRow("%10d %14.2f %14.2f %14.2f", mbps, imps[0], imps[1], imps[2])
			r.metric(fmt.Sprintf("bh_red%.0f_%dmbps", red*100, mbps), imps[0])
			r.metric(fmt.Sprintf("wb_red%.0f_%dmbps", red*100, mbps), imps[1])
			r.metric(fmt.Sprintf("bdb_red%.0f_%dmbps", red*100, mbps), imps[2])
		}
	}
	return r, nil
}

// Fig10 regenerates Figure 10: per-object throughput improvement under
// 100%-utilization load at 10 Mbps, 50% redundancy, for each index: the
// paper's blocking CLAM, a kind-opened CLAM and BDB.
func Fig10(sc Scale) (Report, error) {
	r := Report{
		ID:    "fig10",
		Title: "WAN optimizer under load: per-object throughput improvement @ 10Mbps",
		PaperClaim: "BDB worsens many (especially small) objects by 2x or more; CLAM " +
			"hurts far fewer objects; mean improvement 3.1 (CLAM) vs 1.9 (BDB), 65% better",
	}
	for _, kind := range []wanIndexKind{blockingCLAM, behindCLAM, bdbIndex} {
		tr := workload.GenerateTrace(workload.TraceConfig{
			Objects:         sc.TraceObjects,
			MeanObjectBytes: 2 << 20,
			Redundancy:      0.5,
			Seed:            98,
		})
		idx, clock, err := wanIndex(sc, kind)
		if err != nil {
			return r, err
		}
		o, err := wanopt.New(wanopt.Config{Index: idx, Clock: clock, LinkBitsPerSec: 10e6})
		if err != nil {
			return r, err
		}
		objs, err := wanopt.RunLoadTest(o, tr)
		if err != nil {
			return r, err
		}
		name := [...]string{blockingCLAM: "bufferhash", behindCLAM: "write-behind", bdbIndex: "berkeleydb"}[kind]
		worsened := 0
		for _, p := range objs {
			if p.Improvement() < 1.0 {
				worsened++
			}
		}
		mean := wanopt.MeanImprovement(objs)
		r.addRow("%-12s mean improvement %.2fx; %d/%d objects worsened",
			name, mean, worsened, len(objs))
		r.metric(name+"_mean_improvement", mean)
		r.metric(name+"_worsened_frac", float64(worsened)/float64(len(objs)))
		// A few per-object samples, smallest and largest.
		for _, p := range objs[:min(3, len(objs))] {
			r.addRow("  obj %7.2fMB: %.2fx", float64(p.Size)/(1<<20), p.Improvement())
		}
	}
	return r, nil
}
