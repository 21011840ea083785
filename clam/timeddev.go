package clam

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// timedQueued instruments a device's write stream: every WriteAt records
// its virtual service time, and every WriteBatch records its overlapped
// total spread evenly over the batch's requests — so single-request and
// batched writes produce directly comparable per-request samples. The
// histogram feeds Stats.WriteLatency, the write-side tail the insert
// pipeline is built to flatten (a lone flush pays one full write for its
// incarnation image; a batch's images share command setup and overlap
// across queue lanes).
//
// Reads pass through the embedded device untimed. The Eraser and Trimmer
// optional interfaces are preserved by the variant types below, because
// layout selection and NAND erase-before-write probe for them through the
// device value. Caller-supplied custom devices are never wrapped — their
// dynamic type is part of the caller's contract.
type timedQueued struct {
	storage.Device
	h *metrics.Histogram // guarded by the owning shard's mutex
}

func (d *timedQueued) WriteAt(p []byte, off int64) (time.Duration, error) {
	lat, err := d.Device.WriteAt(p, off)
	if err == nil {
		d.h.Observe(lat)
	}
	return lat, err
}

func (d *timedQueued) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	lat, err := d.Device.WriteBatch(reqs)
	if err == nil && len(reqs) > 0 {
		observeSpread(d.h, lat, len(reqs))
	}
	return lat, err
}

// timedQueuedEraser additionally forwards Eraser (raw NAND): the layout
// chooser and the value log's erase-before-write both probe for it.
type timedQueuedEraser struct {
	timedQueued
	er storage.Eraser
}

func (d *timedQueuedEraser) Erase(off, n int64) (time.Duration, error) { return d.er.Erase(off, n) }

// timedQueuedTrimmer additionally forwards Trimmer (SSDs).
type timedQueuedTrimmer struct {
	timedQueued
	tr storage.Trimmer
}

func (d *timedQueuedTrimmer) Trim(off, n int64) error { return d.tr.Trim(off, n) }

// timeWrites wraps a kind-built device with write-latency instrumentation,
// preserving its optional interfaces.
func timeWrites(dev storage.Device, h *metrics.Histogram) storage.Device {
	base := timedQueued{Device: dev, h: h}
	if er, ok := dev.(storage.Eraser); ok {
		return &timedQueuedEraser{base, er}
	}
	if tr, ok := dev.(storage.Trimmer); ok {
		return &timedQueuedTrimmer{base, tr}
	}
	return &base
}
