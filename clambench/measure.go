package main

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// segments splits a measured phase into equal runs of steps. ops_per_s is
// the median of their rates, so a burst of noise from other processes on
// the host moves one segment, not the result. The host-speed probe runs
// before the first segment and after each one.
const segments = 20

// minBeyond is how many samples must lie above a percentile for it to be
// reported.
const minBeyond = 10

// failedSample is the latency recorded for a failed call: a failure misses
// any latency limit.
const failedSample = math.MaxInt32

// recorder collects a measured phase's per-call samples and counts.
type recorder struct {
	get, put          samples
	ops               int64 // operations counted towards throughput
	attempted, failed int64
	lookups, hits     int64
	seg               int
	segWall           [segments]time.Duration
	segOps            [segments]int64
}

// samples holds one latency per call, in nanoseconds.
type samples struct{ wall, virt []int32 }

func newRecorder(gets, puts int) *recorder {
	return &recorder{
		get: samples{make([]int32, 0, gets), make([]int32, 0, gets)},
		put: samples{make([]int32, 0, puts), make([]int32, 0, puts)},
	}
}

func (r *recorder) observe(k callKind, wall, virt time.Duration, keys, ops, hits int, failed bool) {
	s := &r.put
	if k.isGet() {
		s = &r.get
		r.lookups += int64(keys)
		r.hits += int64(hits)
	}
	w, v := int32(failedSample), int32(failedSample)
	if failed {
		r.failed += int64(keys)
	} else {
		w, v = int32(min(wall, failedSample)), int32(min(virt, failedSample))
	}
	s.wall = append(s.wall, w)
	s.virt = append(s.virt, v)
	r.ops += int64(ops)
	r.attempted += int64(keys)
	r.segWall[r.seg] += wall
	r.segOps[r.seg] += int64(ops)
}

// shardState is one shard's deterministic state: counters and clock.
type shardState struct {
	core        core.Stats
	device      storage.Counters
	valueDevice storage.Counters
	valueLog    storage.ValueLogStats
	clock       time.Duration
}

// snapshot is a store's deterministic state plus the client's call digest.
type snapshot struct {
	shards []shardState
	digest uint64
}

func (a snapshot) equal(b snapshot) bool {
	return a.digest == b.digest && slices.Equal(a.shards, b.shards)
}

// quantiles summarizes one latency family in microseconds. p99 and p99.99
// count only when at least minBeyond samples lie above them.
type quantiles struct {
	n               int
	p50, p99, p9999 float64
	has99, has9999  bool
}

func summarize(s []int32) quantiles {
	slices.Sort(s)
	q := quantiles{n: len(s)}
	q.p50, _ = percentile(s, 0.50)
	q.p99, q.has99 = percentile(s, 0.99)
	q.p9999, q.has9999 = percentile(s, 0.9999)
	return q
}

// percentile returns the nearest-rank q-quantile of sorted nanosecond
// samples in microseconds, and whether minBeyond samples lie above it.
func percentile(sorted []int32, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
	return float64(sorted[i]) / 1e3, n-1-i >= minBeyond
}

// phase is the outcome of one measured phase on one store.
type phase struct {
	opsPerS                float64 // median segment rate, unscaled
	segRates               []float64
	probes                 []time.Duration
	ops, attempted, failed int64
	lookups, hits          int64
	getWall, getVirt       quantiles
	putWall, putVirt       quantiles
	start, end, check      snapshot
	mallocs, allocBytes    uint64
}

// measure runs steps measured steps of w on c's store, snapshotting its
// state before step checkpoint (or at the end, if checkpoint ≥ steps).
func measure(w scenario, c *client, steps, checkpoint int) *phase {
	gets, puts := w.calls()
	rec := newRecorder(steps*gets, steps*puts)
	w.begin()
	p := &phase{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, allocBytes := ms.Mallocs, ms.TotalAlloc
	p.start = c.snapshot()
	c.rec = rec
	if c.tr != nil {
		c.tr.active = true
	}
	p.probes = append(p.probes, probe())
	for i := range steps {
		if i == checkpoint {
			p.check = c.snapshot()
		}
		if seg := i * segments / steps; seg != rec.seg {
			p.probes = append(p.probes, probe())
			rec.seg = seg
		}
		w.step(c)
	}
	p.probes = append(p.probes, probe())
	if c.tr != nil {
		c.tr.active = false
	}
	c.rec = nil
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes = ms.Mallocs-mallocs, ms.TotalAlloc-allocBytes
	p.end = c.snapshot()
	if checkpoint >= steps {
		p.check = p.end
	}
	p.ops, p.attempted, p.failed, p.lookups, p.hits = rec.ops, rec.attempted, rec.failed, rec.lookups, rec.hits
	for i := range segments {
		if rec.segWall[i] > 0 {
			p.segRates = append(p.segRates, float64(rec.segOps[i])/rec.segWall[i].Seconds())
		}
	}
	p.opsPerS = median(p.segRates)
	p.getWall, p.getVirt = summarize(rec.get.wall), summarize(rec.get.virt)
	p.putWall, p.putVirt = summarize(rec.put.wall), summarize(rec.put.virt)
	return p
}

// work sums what a phase did across shards: counter deltas between its
// start and end snapshots, times in seconds.
type work struct {
	lookups, inserts, probes, spurious, zeroIO float64
	flushes, evictions, cascades               float64
	devReads, devReadBytes, devWriteBytes      float64
	erases, moved                              float64
	vlogReadBytes, vlogWriteBytes              float64
	wraps, lapped, lappedLive                  float64
	liveBytes, deadBytes                       float64 // at the end of the phase
	busy, advance, makespan                    float64
	shards                                     float64
}

func (p *phase) work() work {
	f := func(a, b uint64) float64 { return float64(b - a) }
	var w work
	for i, b := range p.end.shards {
		a := p.start.shards[i]
		w.lookups += f(a.core.Lookups, b.core.Lookups)
		w.inserts += f(a.core.Inserts, b.core.Inserts)
		w.probes += f(a.core.FlashProbes, b.core.FlashProbes)
		w.spurious += f(a.core.SpuriousProbes, b.core.SpuriousProbes)
		w.zeroIO += f(a.core.LookupIOHist[0], b.core.LookupIOHist[0])
		w.flushes += f(a.core.Flushes, b.core.Flushes)
		w.evictions += f(a.core.Evictions, b.core.Evictions)
		w.cascades += f(a.core.Cascades, b.core.Cascades)
		w.devReads += f(a.device.Reads, b.device.Reads)
		w.devReadBytes += f(a.device.BytesRead, b.device.BytesRead)
		w.devWriteBytes += f(a.device.BytesWritten, b.device.BytesWritten)
		w.erases += f(a.device.Erases, b.device.Erases) + f(a.valueDevice.Erases, b.valueDevice.Erases)
		w.moved += f(a.device.PagesMoved, b.device.PagesMoved) + f(a.valueDevice.PagesMoved, b.valueDevice.PagesMoved)
		w.vlogReadBytes += f(a.valueDevice.BytesRead, b.valueDevice.BytesRead)
		w.vlogWriteBytes += f(a.valueDevice.BytesWritten, b.valueDevice.BytesWritten)
		w.wraps += f(a.valueLog.Wraps, b.valueLog.Wraps)
		w.lapped += f(a.valueLog.LappedBytes, b.valueLog.LappedBytes)
		w.lappedLive += f(a.valueLog.LappedLiveBytes, b.valueLog.LappedLiveBytes)
		w.liveBytes += float64(b.valueLog.LiveBytes)
		w.deadBytes += float64(b.valueLog.DeadBytes)
		w.busy += (b.device.BusyTime - a.device.BusyTime + b.valueDevice.BusyTime - a.valueDevice.BusyTime).Seconds()
		adv := (b.clock - a.clock).Seconds()
		w.advance += adv
		w.makespan = max(w.makespan, adv)
		w.shards++
	}
	return w
}

// contractMetrics are the end-to-end metrics of the result line, the ones
// BENCHMARK.json bounds: they apply to every workload, are never 0, vary
// with the seed and repeat within their bounds. The report carries the
// others (see README.md).
var contractMetrics = []string{"setup_s", "ops_per_s", "virt_ops_per_s", "hit_rate", "heap_mb", "get_p50_us"}

// wallMetrics are the end-to-end metrics read from the wall clock. They are
// scaled to the reference host's speed (see probe.go).
var wallMetrics = []string{"setup_s", "ops_per_s", "get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"}

// endToEnd derives every end-to-end metric that applies to the phase, with
// the wall metrics unscaled.
func endToEnd(p *phase, setup []time.Duration, heapMB float64) map[string]metric {
	secs := make([]float64, len(setup))
	for i, d := range setup {
		secs[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":        {median(secs), "s"},
		"ops_per_s":      {p.opsPerS, "1/s"},
		"virt_ops_per_s": {ratio(float64(p.ops), p.work().makespan), "1/s"},
		"hit_rate":       {ratio(float64(p.hits), float64(p.lookups)), "ratio"},
		"fail_ratio":     {ratio(float64(p.failed), float64(p.attempted)), "ratio"},
		"heap_mb":        {heapMB, "MB"},
	}
	for _, l := range []struct {
		name string
		q    quantiles
	}{
		{"get", p.getWall}, {"get_virt", p.getVirt}, {"put", p.putWall}, {"put_virt", p.putVirt},
	} {
		if l.q.n == 0 {
			continue
		}
		m[l.name+"_p50_us"] = metric{l.q.p50, "us"}
		if l.q.has99 {
			m[l.name+"_p99_us"] = metric{l.q.p99, "us"}
		}
	}
	if p.putVirt.has9999 {
		m["put_virt_p9999_us"] = metric{p.putVirt.p9999, "us"}
	}
	return m
}

// scaleWall returns m with its wall metrics scaled to the reference host's
// speed: rates divided by speed, times multiplied by it.
func scaleWall(m map[string]metric, speed float64) map[string]metric {
	out := maps.Clone(m)
	for _, name := range wallMetrics {
		v, ok := m[name]
		if !ok {
			continue
		}
		if v.Unit == "1/s" {
			v.Value /= speed
		} else {
			v.Value *= speed
		}
		out[name] = v
	}
	return out
}

// perLayer derives the per-layer metrics from the untraced phase (counters
// and allocations), the traced phase and its tracer.
func perLayer(w scenario, main, traced *phase, tr *tracer) map[string]metric {
	d := main.work()
	gets, puts := d.lookups, d.inserts
	userBytes := puts * float64(w.putBytes())
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("clam.shards_per_batch", ratio(float64(tr.touched), float64(tr.calls)), "count")
	set("clam.batch_skew", ratio(tr.maxOps, tr.meanOps), "ratio")
	set("clam.critical_path_ratio", ratio(tr.maxVirt, tr.meanVirt), "ratio")
	set("clam.allocs_per_op", ratio(float64(main.mallocs), float64(main.ops)), "count")
	set("clam.alloc_bytes_per_op", ratio(float64(main.allocBytes), float64(main.ops)), "B")
	set("core.flash_probes_per_get", ratio(d.probes, gets), "count")
	set("core.zero_io_get_frac", ratio(d.zeroIO, gets), "ratio")
	set("core.spurious_per_get", ratio(d.spurious, gets), "count")
	useful := 0.0
	if d.probes > 0 {
		useful = 1 - d.spurious/d.probes
	}
	set("core.bloom_useful_ratio", useful, "ratio")
	set("core.flushes_per_kput", 1000*ratio(d.flushes, puts), "count")
	set("core.evictions_per_kput", 1000*ratio(d.evictions, puts), "count")
	set("core.cascades_per_kput", 1000*ratio(d.cascades, puts), "count")
	set("core.virt_cpu_share", ratio(d.advance-d.busy, d.advance), "ratio")
	set("dev.reads_per_get", ratio(d.devReads, gets), "count")
	set("dev.read_kb_per_get", ratio(d.devReadBytes/1024, gets), "KB")
	set("dev.write_amp", ratio(d.devWriteBytes+d.vlogWriteBytes, userBytes), "ratio")
	set("dev.erases_per_kput", 1000*ratio(d.erases, puts), "count")
	set("dev.gc_pages_moved_per_kput", 1000*ratio(d.moved, puts), "count")
	set("dev.busy_frac", ratio(d.busy, d.shards*d.makespan), "ratio")
	set("dev.read_wall_ns", ratio(float64(tr.devNs[devRead]), float64(tr.devN[devRead])), "ns")
	set("dev.write_wall_ns", ratio(float64(tr.devNs[devWrite]), float64(tr.devN[devWrite])), "ns")
	devShare, selfShare := 0.0, 0.0
	if tr.devTraced {
		devShare = ratio(float64(tr.childNs), float64(tr.storeNs))
		selfShare = ratio(float64(tr.storeNs-tr.childNs), float64(tr.storeNs))
	}
	set("dev.wall_share", devShare, "ratio")
	set("store.self_wall_share", selfShare, "ratio")
	set("vlog.read_kb_per_get", ratio(d.vlogReadBytes/1024, gets), "KB")
	set("vlog.write_amp", ratio(d.vlogWriteBytes, userBytes), "ratio")
	set("vlog.wraps", d.wraps, "count")
	set("vlog.live_fraction", ratio(d.liveBytes, d.liveBytes+d.deadBytes), "ratio")
	set("vlog.lapped_live_frac", ratio(d.lappedLive, d.lapped), "ratio")
	// The two phases ran at different times, so each rate is scaled by its
	// own phase's host speed.
	set("trace.overhead", 1-ratio(traced.opsPerS/hostSpeed(traced.probes), main.opsPerS/hostSpeed(main.probes)), "ratio")
	return m
}

// ratio is a/b, or 0 when b is 0 (a metric of work that did not happen).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
