package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/clam"
	"repro/internal/ssd"
	"repro/internal/storage"
)

// Device span kinds.
const (
	devRead = iota
	devWrite
)

var devSpanNames = [2]string{"dev.read", "dev.write"}

// keptRequests bounds how many requests' spans a traced run keeps in memory
// for the trace file; every span still feeds the aggregates.
const keptRequests = 5000

// span is one recorded interval, in nanoseconds since the trace started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a store span
	Req    int64  `json:"req"`    // the store call the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shards is a sharded store call's per-shard work, read through
	// Shard(i).Stats and Shard(i).Clock around the call.
	Shards []shardWork `json:"shards,omitempty"`
}

type shardWork struct {
	Ops    uint64 `json:"ops"`
	VirtNs int64  `json:"virt_ns"`
}

// tracer records the spans of a traced measured phase. Store spans wrap
// each Store call the client makes; device spans come from tracedDevice
// and are children of the store span open at the time. Every span feeds
// the aggregates behind the per-layer metrics; the spans of every
// keepEvery-th request are also kept and written out when the run ends.
type tracer struct {
	epoch     time.Time
	active    bool
	keepEvery int64
	kept      []span
	shards    []*clam.CLAM // set for sharded stores, whose per-shard deltas are read
	ops0      []uint64
	devTraced bool // the store's index device is wrapped

	nextID, req  int64
	inCall       bool
	cur          int // index of the open store span in kept, or -1
	curID, start int64
	callChildNs  int64 // device time inside the open store span
	callChildEnd int64
	storeNs      int64
	childNs      int64
	devNs, devN  [2]int64
	misnested    int64
	calls        int64
	touched      int64
	maxOps       float64 // Σ over calls of the busiest shard's operations
	meanOps      float64 // Σ over calls of the mean operations per shard
	maxVirt      float64 // Σ over calls of the largest shard-clock advance, s
	meanVirt     float64 // Σ over calls of the mean shard-clock advance, s
}

func newTracer(calls int) *tracer {
	return &tracer{epoch: time.Now(), keepEvery: max(1, int64(calls)/keptRequests), cur: -1}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// bind attaches the store's shards. Per-shard deltas are read only when
// there is more than one; a single CLAM's call is all on its one shard.
func (t *tracer) bind(shards []*clam.CLAM) {
	if len(shards) > 1 {
		t.shards = shards
		t.ops0 = make([]uint64, len(shards))
	}
}

// release drops the tracer's references to the store.
func (t *tracer) release() { t.shards = nil }

func shardOps(s *clam.CLAM) uint64 {
	st := s.Stats().Core
	return st.Lookups + st.Inserts + st.Deletes
}

// beforeCall reads each shard's operation count, outside the timed call.
func (t *tracer) beforeCall() {
	for i, s := range t.shards {
		t.ops0[i] = shardOps(s)
	}
}

// openCall starts the store span of a call that began at t0.
func (t *tracer) openCall(t0 time.Time) {
	t.req++
	t.nextID++
	t.curID, t.start, t.inCall = t.nextID, t.ns(t0), true
	t.callChildNs, t.callChildEnd = 0, 0
	t.cur = -1
	if t.req%t.keepEvery == 0 {
		t.cur = len(t.kept)
		t.kept = append(t.kept, span{ID: t.curID, Req: t.req, Start: t.start})
	}
}

// device records a device span that started at s and ends now.
func (t *tracer) device(kind int, s time.Time) {
	if !t.active {
		return
	}
	a, b := t.ns(s), t.ns(time.Now())
	t.devNs[kind] += b - a
	t.devN[kind]++
	t.nextID++
	if !t.inCall || a < t.start {
		t.misnested++
		return
	}
	t.callChildNs += b - a
	t.callChildEnd = max(t.callChildEnd, b)
	if t.cur >= 0 {
		t.kept = append(t.kept, span{ID: t.nextID, Parent: t.curID, Req: t.req, Name: devSpanNames[kind], Start: a, End: b})
	}
}

// closeCall ends the open store span at t1 and accounts the call's
// per-shard work; advance holds each shard's virtual clock advance.
func (t *tracer) closeCall(k callKind, t1 time.Time, advance []time.Duration) {
	end := t.ns(t1)
	t.inCall = false
	if t.callChildEnd > end {
		t.misnested++
	}
	t.storeNs += end - t.start
	t.childNs += t.callChildNs
	var work []shardWork
	var maxOps, sumOps uint64
	var maxV, sumV time.Duration
	for i, adv := range advance {
		ops := uint64(1)
		if t.shards != nil {
			ops = shardOps(t.shards[i]) - t.ops0[i]
			if t.cur >= 0 {
				work = append(work, shardWork{ops, adv.Nanoseconds()})
			}
		}
		if ops > 0 {
			t.touched++
		}
		maxOps, sumOps = max(maxOps, ops), sumOps+ops
		maxV, sumV = max(maxV, adv), sumV+adv
	}
	n := float64(len(advance))
	t.calls++
	t.maxOps += float64(maxOps)
	t.meanOps += float64(sumOps) / n
	t.maxVirt += maxV.Seconds()
	t.meanVirt += sumV.Seconds() / n
	if t.cur >= 0 {
		sp := &t.kept[t.cur]
		sp.Name, sp.End, sp.Shards = k.String(), end, work
	}
}

// write saves the kept spans as JSON lines after a first line holding the
// run metadata, under .bench_build/traces, and returns the file's path.
func (t *tracer) write(m meta) (string, error) {
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", m.Workload, m.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"meta": m})
	for i := 0; err == nil && i < len(t.kept); i++ {
		err = enc.Encode(t.kept[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// wrap returns dev behind a tracedDevice recording into t.
func (t *tracer) wrap(dev *ssd.SSD) storage.Device {
	t.devTraced = true
	return &tracedDevice{dev: dev, t: t}
}

// tracedDevice is the traced wan-serial store's index device: the SSD
// model with a dev.read or dev.write span around every call into it. It
// implements the optional interfaces the SSD implements — BatchReader,
// BatchWriter and Trimmer — so the store takes exactly the paths it takes
// on the bare model (the run checks that counters and clocks agree).
type tracedDevice struct {
	dev *ssd.SSD
	t   *tracer
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	defer d.t.device(devRead, time.Now())
	return d.dev.ReadAt(p, off)
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	defer d.t.device(devWrite, time.Now())
	return d.dev.WriteAt(p, off)
}

func (d *tracedDevice) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	defer d.t.device(devRead, time.Now())
	return d.dev.ReadBatch(reqs)
}

func (d *tracedDevice) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	defer d.t.device(devWrite, time.Now())
	return d.dev.WriteBatch(reqs)
}

func (d *tracedDevice) Trim(off, n int64) error    { return d.dev.Trim(off, n) }
func (d *tracedDevice) Geometry() storage.Geometry { return d.dev.Geometry() }
func (d *tracedDevice) Counters() storage.Counters { return d.dev.Counters() }
