package storage

import (
	"cmp"
	"slices"
	"time"
)

// ReadReq is one read of a Device.ReadBatch submission: fill P from device
// offset Off. ReadAt is the one-request case.
//
// ReadBatch fills every request's buffer and returns the overlapped service
// time of the whole batch, advancing the device clock by that amount once —
// not by the sum of per-request latencies, which is what a loop over ReadAt
// would charge. Counters still account every request individually (Reads
// and BytesRead grow by the batch size), so I/O counts do not depend on how
// requests are grouped; only the time model does. It is the device half of
// the batched lookup pipeline: BufferHash gathers every flash probe a
// lookup batch needs, dedupes and sorts them, and submits them in one call.
//
// The overlap model is deliberately explicit and shared by all devices:
//
//  1. Requests are served in ascending address order (NCQ / elevator).
//  2. A request starting exactly where the previous request ended joins a
//     sequential run and pays no per-request fixed cost (no seek, no
//     command setup) — only the transfer cost.
//  3. The device has a fixed number of queue lanes (channels, planes, or 1
//     for a single-actuator disk). Each request is placed on the
//     least-loaded lane, and the batch's service time is the maximum lane
//     total — lanes overlap, they do not add.
//
// A lone request starts a new run and occupies one lane, so it pays the
// fixed cost plus its transfer: the paper's linear I/O cost (§6.1). Devices
// that cannot reorder or overlap simply have one lane, where the model
// degenerates to the sorted serial sum (still a win on seek-bound media).
// Callers must treat request buffers as invalid on error.
//
// A request with View set lets a simulated device skip the copy: instead of
// filling P, the device may replace P with a read-only slice of its backing
// SparseStore of the same length (see SparseStore.Read). The charged time,
// the Counters and the bytes seen are those of a copying read. The view is
// valid until the device's next write or trim, and the caller must not
// write through it. Only the simulated devices honour View; a device
// without a backing store just fills P, so callers keep P sized and
// writable either way. Buffers a caller pools or keeps past the next write
// must not opt in.
type ReadReq struct {
	P    []byte
	Off  int64
	View bool
}

// WriteReq is one write of a Device.WriteBatch submission: store P at
// device offset Off. WriteAt is the one-request case.
//
// WriteBatch stores every request's bytes and returns the overlapped
// service time of the whole batch under ReadReq's three-step overlap
// model, advancing the device clock by that amount once. Counters account
// every request individually (Writes and BytesWritten grow by the batch
// size). FTL bookkeeping (page mapping, garbage collection,
// erase-before-write) runs per request in address order, with any
// synchronous GC debt paid once up front by the whole submission. It is
// the device half of the batched insert pipeline: BufferHash collects
// every incarnation image a batch's flushes produce and submits them in
// one call.
//
// Requests must respect the same alignment rules as WriteAt and must not
// overlap one another; on media with program-order constraints (raw NAND)
// the address-sorted requests must respect them, as full-block incarnation
// images do by construction.
type WriteReq struct {
	P   []byte
	Off int64
}

// SortReadReqs orders reqs by ascending device address (step 1 of the
// overlap model). Ties keep their relative order so duplicate-page reads
// stay adjacent for callers that dedupe; a stable order is unique, so run
// detection and lane assignment do not depend on the algorithm.
// Already-sorted batches — the common case, since the core pipeline
// submits sorted requests — are detected with one linear scan and left
// untouched.
//
// Others are sorted in O(n log n): insertion-sorted runs of sortRun
// requests, then bottom-up merge passes that alternate between reqs and
// buf. buf is the caller's merge buffer; it is grown to len(reqs) when
// short and returned for the caller to keep, so a device that stores it
// sorts without allocating once warm. On return the buffer is cleared and
// holds no request buffers. Batches of at most sortRun requests never
// touch it.
//
// The sort is written for ReadReq rather than as one generic helper: a
// generic call goes through a shape dictionary, which hides the slice from
// escape analysis and would move every device's one-request ReadAt array
// to the heap. For the same reason the buffer belongs to the caller: only
// buf, never reqs, flows to the result, so reqs stays on the caller's
// stack.
func SortReadReqs(reqs, buf []ReadReq) []ReadReq {
	n := len(reqs)
	if slices.IsSortedFunc(reqs, func(a, b ReadReq) int { return cmp.Compare(a.Off, b.Off) }) {
		return buf
	}
	for lo := 0; lo < n; lo += sortRun {
		insertionSortReadReqs(reqs[lo:min(lo+sortRun, n)])
	}
	if n <= sortRun {
		return buf
	}
	if cap(buf) < n {
		buf = make([]ReadReq, n)
	}
	tmp := buf[:n]
	src, dst := reqs, tmp
	for width := sortRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			mergeReadReqs(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &reqs[0] {
		copy(reqs, src)
	}
	clear(tmp)
	return buf
}

// sortRun is the length of SortReadReqs's insertion-sorted runs.
const sortRun = 16

// insertionSortReadReqs stably sorts a short run by Off.
func insertionSortReadReqs(reqs []ReadReq) {
	for i := 1; i < len(reqs); i++ {
		r, j := reqs[i], i
		for ; j > 0 && r.Off < reqs[j-1].Off; j-- {
			reqs[j] = reqs[j-1]
		}
		reqs[j] = r
	}
}

// mergeReadReqs merges the sorted runs a and b into dst (len(a)+len(b)),
// taking from a on ties so the merge is stable.
func mergeReadReqs(dst, a, b []ReadReq) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Off < a[i].Off {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// SortWriteReqs orders reqs by ascending device address (the elevator/NCQ
// step of the overlap model), leaving already-sorted batches untouched.
func SortWriteReqs(reqs []WriteReq) {
	cmpOff := func(a, b WriteReq) int { return cmp.Compare(a.Off, b.Off) }
	if !slices.IsSortedFunc(reqs, cmpOff) {
		slices.SortStableFunc(reqs, cmpOff)
	}
}

// OverlapLanes implements step 3 of the overlap model: distribute the
// per-request service times over `lanes` queue lanes, each request on the
// currently least-loaded lane, and return the maximum lane total. With one
// lane (or one request) this is the plain sum. svc is consumed in order,
// so callers pass the address-sorted (and sequential-run-discounted)
// service times.
func OverlapLanes(svc []time.Duration, lanes int) time.Duration {
	lanes = min(lanes, len(svc))
	if lanes <= 1 {
		var sum time.Duration
		for _, s := range svc {
			sum += s
		}
		return sum
	}
	var laneBuf [32]time.Duration // avoids a heap lane slice for real queue depths
	var lane []time.Duration
	if lanes <= len(laneBuf) {
		lane = laneBuf[:lanes]
	} else {
		lane = make([]time.Duration, lanes)
	}
	for _, s := range svc {
		least := 0
		for i := 1; i < lanes; i++ {
			if lane[i] < lane[least] {
				least = i
			}
		}
		lane[least] += s
	}
	var max time.Duration
	for _, t := range lane {
		if t > max {
			max = t
		}
	}
	return max
}
